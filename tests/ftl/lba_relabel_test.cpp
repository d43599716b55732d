// Metamorphic LBA-relabelling test: the FTL must not care what the host calls
// its pages.
//
// One seeded write/trim/BGC/SIP-list sequence drives two FTLs: the first sees
// the LBAs as drawn, the second sees every LBA relabelled through a seeded
// permutation π. Placement, victim choice and wear in a page-mapped FTL
// depend on block state only, never on LBA values, so the two runs must
// agree exactly:
//   - the same blocks are erased in the same order (the victim sequence),
//     and every background-GC call returns the same result;
//   - the same NAND program and erase counts, the same free pages and the
//     same number of static wear-leveling moves;
//   - mapping(π(l)) in the relabelled run equals mapping(l) in the plain one.
// No golden and no model is needed. A failure names a hidden dependence on
// LBA order, such as a victim tie broken by LBA.
#include <gtest/gtest.h>

#include <numeric>
#include <sstream>
#include <vector>

#include "common/rng.h"
#include "ftl/ftl.h"

namespace jitgc::ftl {
namespace {

struct RelabelParam {
  VictimPolicyKind victim;
  bool hot_cold;
  bool sip_filter;
  bool wear_level = false;

  std::string label() const {
    std::ostringstream out;
    switch (victim) {
      case VictimPolicyKind::kGreedy: out << "greedy"; break;
      case VictimPolicyKind::kCostBenefit: out << "costbenefit"; break;
      case VictimPolicyKind::kFifo: out << "fifo"; break;
      case VictimPolicyKind::kRandom: out << "random"; break;
      case VictimPolicyKind::kSampledGreedy: out << "sampled"; break;
    }
    if (hot_cold) out << "_hotcold";
    if (sip_filter) out << "_sip";
    if (wear_level) out << "_wl";
    return out.str();
  }
};

/// Everything observable about one run, in LBA-free terms.
struct RunLog {
  /// (op index, block) per erased block, in erase order: the victim sequence.
  std::vector<std::pair<int, std::uint32_t>> erased;
  /// One packed entry per background-GC call.
  std::vector<std::uint64_t> bgc;
  /// (free pages, NAND programs, NAND erases) sampled every kSampleEvery ops.
  std::vector<std::uint64_t> samples;

  bool operator==(const RunLog&) const = default;
};

constexpr int kOps = 30'000;
constexpr int kSampleEvery = 500;
constexpr int kSipEvery = 1'500;

class LbaRelabelTest : public ::testing::TestWithParam<RelabelParam> {
 protected:
  FtlConfig make_config() const {
    FtlConfig cfg;
    cfg.geometry = nand::Geometry{.channels = 1,
                                  .dies_per_channel = 1,
                                  .planes_per_die = 1,
                                  .blocks_per_plane = 256,
                                  .pages_per_block = 64,
                                  .page_size = 4 * KiB};
    cfg.victim_policy = GetParam().victim;
    cfg.enable_hot_cold_separation = GetParam().hot_cold;
    cfg.enable_sip_filter = GetParam().sip_filter;
    cfg.enable_static_wear_leveling = GetParam().wear_level;
    // Low enough that cold blocks move a few hundred times per run.
    cfg.wl_spread_threshold = 4;
    return cfg;
  }

  /// Runs the seeded op sequence with every LBA `l` presented as `label[l]`.
  static RunLog drive(Ftl& ftl, const std::vector<Lba>& label) {
    RunLog log;
    Rng rng(0x5eed);
    const Lba user = ftl.user_pages();
    const Lba hot = user / 4;
    const std::uint32_t nblocks = ftl.nand().num_blocks();
    std::vector<std::uint64_t> erase_counts(nblocks, 0);
    std::uint64_t erases_seen = 0;
    const Lba span = user * 19 / 20;
    // Fill the span first, so GC (background and foreground) starts early.
    for (Lba l = 0; l < span; ++l) ftl.write(label[l]);

    for (int i = 0; i < kOps; ++i) {
      if (i % kSipEvery == 0) {
        std::vector<Lba> sip;
        for (int k = 0; k < 256; ++k) sip.push_back(label[rng.uniform(user)]);
        ftl.set_sip_list(sip);
      }
      const double roll = rng.uniform01();
      // Skewed toward a hot quarter of a span that fills 95% of the user
      // space: full enough that foreground GC runs alongside background GC.
      const Lba lba = label[rng.chance(0.7) ? rng.uniform(hot) : rng.uniform(span)];
      if (roll < 0.90) {
        ftl.write(lba);
      } else if (roll < 0.96) {
        ftl.trim(lba);
      } else {
        // One background-GC call in four asks for a whole victim; the rest
        // are partial steps.
        const auto max_pages = roll < 0.97
                                   ? ftl.pages_per_block()
                                   : static_cast<std::uint32_t>(rng.uniform_range(1, 16));
        const Ftl::GcStep s = ftl.background_collect_step(max_pages);
        log.bgc.push_back((std::uint64_t{s.migrated} << 32) | (std::uint64_t{s.freed_pages} << 3) |
                          (s.progressed ? 4 : 0) | (s.erased ? 2 : 0) | (s.sip_filtered ? 1 : 0));
      }
      if (ftl.nand().stats().block_erases != erases_seen) {
        erases_seen = ftl.nand().stats().block_erases;
        for (std::uint32_t b = 0; b < nblocks; ++b) {
          const std::uint64_t count = ftl.nand().block(b).erase_count();
          for (; erase_counts[b] < count; ++erase_counts[b]) log.erased.emplace_back(i, b);
        }
      }
      if (i % kSampleEvery == 0) {
        log.samples.push_back(ftl.free_pages());
        log.samples.push_back(ftl.nand().stats().page_programs);
        log.samples.push_back(ftl.nand().stats().block_erases);
      }
    }
    return log;
  }
};

TEST_P(LbaRelabelTest, RelabelledRunMatchesExactly) {
  Ftl plain(make_config());
  Ftl relabelled(make_config());
  const Lba user = plain.user_pages();

  std::vector<Lba> identity(user);
  std::iota(identity.begin(), identity.end(), Lba{0});
  // Seeded Fisher-Yates permutation π.
  std::vector<Lba> pi = identity;
  Rng perm_rng(0xB1EC7);
  for (Lba i = user - 1; i > 0; --i) std::swap(pi[i], pi[perm_rng.uniform(i + 1)]);
  ASSERT_NE(pi, identity);

  const RunLog a = drive(plain, identity);
  const RunLog b = drive(relabelled, pi);

  // The sequence must actually exercise GC, or the relation holds vacuously.
  ASSERT_GT(a.erased.size(), 200u);
  EXPECT_GT(plain.stats().foreground_gc_cycles, 0u);
  EXPECT_GT(plain.stats().background_gc_cycles, 0u);
  // FIFO and random scores ignore valid pages, so the SIP penalty never
  // moves them.
  if (GetParam().sip_filter && GetParam().victim != VictimPolicyKind::kFifo &&
      GetParam().victim != VictimPolicyKind::kRandom) {
    EXPECT_GT(plain.stats().sip_filtered_selections, 0u);
  }
  if (GetParam().wear_level) {
    EXPECT_GT(plain.stats().wear_level_moves, 0u);
  }

  ASSERT_EQ(a.erased.size(), b.erased.size());
  for (std::size_t k = 0; k < a.erased.size(); ++k) {
    ASSERT_EQ(a.erased[k], b.erased[k]) << "victim " << k << " diverged";
  }
  EXPECT_EQ(a.bgc, b.bgc);
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(plain.nand().stats().page_programs, relabelled.nand().stats().page_programs);
  EXPECT_EQ(plain.nand().stats().block_erases, relabelled.nand().stats().block_erases);
  EXPECT_EQ(plain.free_pages(), relabelled.free_pages());
  EXPECT_EQ(plain.stats().sip_filtered_selections, relabelled.stats().sip_filtered_selections);
  EXPECT_EQ(plain.stats().wear_level_moves, relabelled.stats().wear_level_moves);

  for (Lba l = 0; l < user; ++l) {
    const nand::Ppa want = plain.mapping(l);
    const nand::Ppa got = relabelled.mapping(pi[l]);
    ASSERT_EQ(got.block, want.block) << "LBA " << l;
    if (want.block != Ftl::kNoBlock) {
      ASSERT_EQ(got.page, want.page) << "LBA " << l;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, LbaRelabelTest,
    ::testing::Values(RelabelParam{VictimPolicyKind::kGreedy, false, false},
                      RelabelParam{VictimPolicyKind::kGreedy, false, true},
                      RelabelParam{VictimPolicyKind::kGreedy, true, false},
                      RelabelParam{VictimPolicyKind::kGreedy, true, true},
                      RelabelParam{VictimPolicyKind::kCostBenefit, false, false},
                      RelabelParam{VictimPolicyKind::kCostBenefit, false, true},
                      RelabelParam{VictimPolicyKind::kCostBenefit, true, false},
                      RelabelParam{VictimPolicyKind::kCostBenefit, true, true},
                      RelabelParam{VictimPolicyKind::kFifo, false, false},
                      RelabelParam{VictimPolicyKind::kFifo, false, true},
                      RelabelParam{VictimPolicyKind::kFifo, true, false},
                      RelabelParam{VictimPolicyKind::kFifo, true, true},
                      RelabelParam{VictimPolicyKind::kRandom, false, false},
                      RelabelParam{VictimPolicyKind::kRandom, true, true},
                      RelabelParam{VictimPolicyKind::kSampledGreedy, false, false},
                      RelabelParam{VictimPolicyKind::kSampledGreedy, true, true},
                      // Static wear leveling. FIFO is left out: collecting in
                      // fill order wears blocks evenly, so it never moves any.
                      RelabelParam{VictimPolicyKind::kGreedy, false, false, true},
                      RelabelParam{VictimPolicyKind::kGreedy, true, true, true},
                      RelabelParam{VictimPolicyKind::kCostBenefit, false, true, true},
                      RelabelParam{VictimPolicyKind::kRandom, false, true, true},
                      RelabelParam{VictimPolicyKind::kSampledGreedy, true, false, true}),
    [](const ::testing::TestParamInfo<RelabelParam>& info) { return info.param.label(); });

}  // namespace
}  // namespace jitgc::ftl
