// Property-based FTL testing: a randomized op fuzz against a shadow model,
// parameterized over geometries and victim policies.
//
// The shadow model is the set of LBAs that should currently be mapped; after
// every burst of operations the FTL must agree with it exactly, and the
// page-accounting and per-block SIP-count invariants must hold no matter
// what GC or wear leveling did in between.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "common/rng.h"
#include "ftl/ftl.h"
#include "ftl/sip_recount.h"

namespace jitgc::ftl {
namespace {

struct FuzzParam {
  std::uint32_t blocks;
  std::uint32_t pages_per_block;
  double op_ratio;
  VictimPolicyKind victim;
  bool sip_filter;
  bool hot_cold;
  /// Static wear-leveling spread threshold; 0 leaves wear leveling off.
  /// Narrow so it sits in the tail padding and the parameter keeps its
  /// 24-byte size (gtest prints the size in every case name).
  std::uint16_t wl_spread = 0;

  std::string label() const {
    std::ostringstream out;
    out << blocks << "b" << pages_per_block << "p_op" << static_cast<int>(op_ratio * 100);
    switch (victim) {
      case VictimPolicyKind::kGreedy: out << "_greedy"; break;
      case VictimPolicyKind::kCostBenefit: out << "_costbenefit"; break;
      case VictimPolicyKind::kFifo: out << "_fifo"; break;
      case VictimPolicyKind::kRandom: out << "_random"; break;
      case VictimPolicyKind::kSampledGreedy: out << "_sampled"; break;
    }
    if (sip_filter) out << "_sip";
    if (hot_cold) out << "_hotcold";
    if (wl_spread != 0) out << "_wl" << wl_spread;
    return out.str();
  }
};

class FtlFuzzTest : public ::testing::TestWithParam<FuzzParam> {
 protected:
  FtlConfig make_config() const {
    const FuzzParam& p = GetParam();
    FtlConfig cfg;
    cfg.geometry = nand::Geometry{.channels = 1,
                                  .dies_per_channel = 1,
                                  .planes_per_die = 1,
                                  .blocks_per_plane = p.blocks,
                                  .pages_per_block = p.pages_per_block,
                                  .page_size = 4 * KiB};
    cfg.op_ratio = p.op_ratio;
    cfg.victim_policy = p.victim;
    cfg.enable_sip_filter = p.sip_filter;
    cfg.enable_hot_cold_separation = p.hot_cold;
    cfg.enable_static_wear_leveling = p.wl_spread != 0;
    if (p.wl_spread != 0) cfg.wl_spread_threshold = p.wl_spread;
    return cfg;
  }

  static void check_invariants(const Ftl& ftl, const std::set<Lba>& shadow) {
    // 1. Page accounting: per-block truth sums to the FTL's counters.
    std::uint64_t free = 0, valid = 0, invalid = 0;
    for (std::uint32_t b = 0; b < ftl.nand().num_blocks(); ++b) {
      const auto& blk = ftl.nand().block(b);
      free += blk.free_count();
      valid += blk.valid_count();
      invalid += blk.invalid_count();
    }
    ASSERT_EQ(free + valid + invalid, ftl.config().geometry.total_pages());
    ASSERT_EQ(free, ftl.free_pages());
    ASSERT_EQ(valid, ftl.valid_pages());
    ASSERT_EQ(invalid, ftl.invalid_pages());

    // 2. The mapping agrees with the shadow model exactly.
    ASSERT_EQ(ftl.valid_pages(), shadow.size());
    for (const Lba lba : shadow) ASSERT_TRUE(ftl.is_mapped(lba));

    // 3. Every valid page's OOB address is a shadow member (no ghosts).
    for (std::uint32_t b = 0; b < ftl.nand().num_blocks(); ++b) {
      const auto& blk = ftl.nand().block(b);
      for (std::uint32_t pg = 0; pg < blk.pages_per_block(); ++pg) {
        if (blk.page_state(pg) != nand::PageState::kValid) continue;
        ASSERT_TRUE(shadow.contains(blk.page_lba(pg)));
      }
    }

    // 4. WAF can never be below 1.
    ASSERT_GE(ftl.waf(), 1.0);

    // 5. Every block's SIP count equals a recount of the SIP list through
    // the mapping, between SIP updates as well as at them.
    ASSERT_TRUE(testing_util::sip_counts_exact(ftl));
  }
};

TEST_P(FtlFuzzTest, RandomOpsPreserveInvariants) {
  Ftl ftl(make_config());
  std::set<Lba> shadow;
  Rng rng(0xF1u ^ GetParam().blocks ^ GetParam().pages_per_block);
  const Lba user = ftl.user_pages();
  const Lba hot = std::max<Lba>(1, user / 3);

  for (int burst = 0; burst < 60; ++burst) {
    const int ops = 200;
    for (int i = 0; i < ops; ++i) {
      const double roll = rng.uniform01();
      // Favor a hot region so GC sees skew; never exceed ~85 % occupancy so
      // space never runs out regardless of interleaving.
      const Lba lba = rng.chance(0.7) ? rng.uniform(hot)
                                      : rng.uniform(user * 8 / 10);
      if (roll < 0.70) {
        ftl.write(lba);
        shadow.insert(lba);
      } else if (roll < 0.80) {
        ftl.trim(lba);
        shadow.erase(lba);
      } else if (roll < 0.90) {
        ftl.read(lba);
      } else if (roll < 0.95) {
        ftl.background_collect_step(ftl.pages_per_block());
      } else {
        ftl.background_collect_step(static_cast<std::uint32_t>(rng.uniform_range(1, 16)));
      }
    }

    // Periodically install a fresh SIP list over random (possibly unmapped)
    // LBAs; the collector must tolerate arbitrary lists.
    if (burst % 7 == 3) {
      std::vector<Lba> sip;
      for (int i = 0; i < 64; ++i) sip.push_back(rng.uniform(user));
      ftl.set_sip_list(sip);
    }

    check_invariants(ftl, shadow);
  }
  // The fuzz must have actually exercised garbage collection (and wear
  // leveling, where it is on).
  EXPECT_GT(ftl.stats().gc_cycles, 0u);
  if (GetParam().wl_spread != 0) {
    EXPECT_GT(ftl.stats().wear_level_moves, 0u);
  }
}

TEST_P(FtlFuzzTest, DeterministicReplay) {
  const auto run = [this] {
    Ftl ftl(make_config());
    Rng rng(77);
    for (int i = 0; i < 4000; ++i) {
      ftl.write(rng.uniform(ftl.user_pages() / 2));
      if (i % 97 == 0) ftl.background_collect_step(ftl.pages_per_block());
    }
    return std::tuple{ftl.nand().stats().page_programs, ftl.nand().stats().block_erases,
                      ftl.free_pages()};
  };
  EXPECT_EQ(run(), run());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, FtlFuzzTest,
    ::testing::Values(
        FuzzParam{16, 8, 0.25, VictimPolicyKind::kGreedy, false, false},
        FuzzParam{32, 16, 0.15, VictimPolicyKind::kGreedy, true, false},
        FuzzParam{32, 16, 0.15, VictimPolicyKind::kCostBenefit, false, false},
        FuzzParam{64, 8, 0.10, VictimPolicyKind::kFifo, false, false},
        FuzzParam{64, 8, 0.10, VictimPolicyKind::kRandom, false, true},
        FuzzParam{16, 32, 0.30, VictimPolicyKind::kCostBenefit, true, true},
        FuzzParam{48, 8, 0.20, VictimPolicyKind::kSampledGreedy, false, false},
        FuzzParam{128, 4, 0.12, VictimPolicyKind::kGreedy, true, true},
        FuzzParam{32, 16, 0.15, VictimPolicyKind::kGreedy, true, false, /*wl_spread=*/2}),
    [](const ::testing::TestParamInfo<FuzzParam>& info) { return info.param.label(); });

}  // namespace
}  // namespace jitgc::ftl
