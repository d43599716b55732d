// Fault injection and bad-block management: grown-bad retirement, spare
// promotion, graceful read-only degradation — and above all the mapping
// integrity property: no LBA is ever lost or duplicated, no matter where a
// program or erase failure lands.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "ftl/ftl.h"
#include "ftl/sip_recount.h"

namespace jitgc::ftl {
namespace {

FtlConfig faulty_config(double program_fail, double erase_fail, std::uint32_t spares,
                        std::uint64_t seed = 7) {
  FtlConfig cfg;
  cfg.geometry = nand::Geometry{.channels = 1,
                                .dies_per_channel = 1,
                                .planes_per_die = 1,
                                .blocks_per_plane = 64,
                                .pages_per_block = 16,
                                .page_size = 4 * KiB};
  cfg.op_ratio = 0.20;
  cfg.spare_blocks = spares;
  cfg.fault.program_fail_prob = program_fail;
  cfg.fault.erase_fail_prob = erase_fail;
  cfg.fault.seed = seed;
  return cfg;
}

/// The full accounting + mapping-integrity check, the fault-aware superset
/// of ftl_property_test's invariants.
void check_integrity(const Ftl& ftl, const std::set<Lba>& shadow) {
  // 1. The four page populations partition the device exactly.
  ASSERT_EQ(ftl.free_pages() + ftl.valid_pages() + ftl.invalid_pages() + ftl.offline_pages(),
            ftl.config().geometry.total_pages());

  // 2. No LBA lost: every shadow LBA is mapped, and its mapped page is a
  // valid page carrying that LBA in its OOB area.
  ASSERT_EQ(ftl.valid_pages(), shadow.size());
  for (const Lba lba : shadow) {
    ASSERT_TRUE(ftl.is_mapped(lba));
    const nand::Ppa ppa = ftl.mapping(lba);
    const auto& blk = ftl.nand().block(ppa.block);
    ASSERT_EQ(blk.page_state(ppa.page), nand::PageState::kValid);
    ASSERT_EQ(blk.page_lba(ppa.page), lba);
  }

  // 3. No LBA duplicated: with valid_pages == |shadow| and every shadow LBA
  // holding one valid page, counting valid pages per block must agree —
  // i.e. there is no extra valid page left behind by a failed migration.
  std::uint64_t valid = 0;
  for (std::uint32_t b = 0; b < ftl.nand().num_blocks(); ++b) {
    const auto& blk = ftl.nand().block(b);
    valid += blk.valid_count();
    if (ftl.block_health(b) == BlockHealth::kRetired) {
      // Retired blocks are fully out of the economy: no valid data.
      ASSERT_EQ(blk.valid_count(), 0u);
    }
  }
  ASSERT_EQ(valid, ftl.valid_pages());

  // 4. Every block's SIP count matches a recount through the mapping, so
  // retirement migrations carried the counts along (and left none behind).
  ASSERT_TRUE(testing_util::sip_counts_exact(ftl));
}

TEST(FtlFault, MappingIntegrityAcrossFailuresAndRetirements) {
  Ftl ftl(faulty_config(/*program_fail=*/0.004, /*erase_fail=*/0.002, /*spares=*/8));
  std::set<Lba> shadow;
  Rng rng(0xBADBu);
  // A separate stream picks the SIP lists, leaving the op stream unchanged.
  Rng sip_rng(0x51Bu);
  const Lba user = ftl.user_pages();
  bool worn_out = false;

  for (int burst = 0; burst < 80 && !worn_out; ++burst) {
    if (burst % 5 == 0) {
      std::vector<Lba> sip;
      for (int i = 0; i < 96; ++i) sip.push_back(sip_rng.uniform(user));
      ftl.set_sip_list(sip);
    }
    for (int i = 0; i < 150; ++i) {
      const Lba lba = rng.uniform(user * 8 / 10);
      const double roll = rng.uniform01();
      try {
        if (roll < 0.75) {
          ftl.write(lba);
          shadow.insert(lba);
        } else if (roll < 0.85) {
          ftl.trim(lba);
          shadow.erase(lba);
        } else {
          ftl.background_collect_step(ftl.pages_per_block());
        }
      } catch (const DeviceWornOut&) {
        // The host write may have landed before a later retirement step blew
        // up; the mapping is the ground truth for whether it did.
        if (roll < 0.75 && ftl.is_mapped(lba)) shadow.insert(lba);
        worn_out = true;
        break;
      }
    }
    check_integrity(ftl, shadow);
  }

  // The fault stream must have actually fired for the test to mean anything.
  EXPECT_GT(ftl.nand().stats().program_failures + ftl.nand().stats().erase_failures, 0u);
  EXPECT_GT(ftl.stats().grown_bad_blocks + ftl.stats().retired_blocks, 0u);
  // Even if the device died mid-fuzz, the surviving mapping must be intact.
  check_integrity(ftl, shadow);
}

TEST(FtlFault, SparePromotionReplacesRetiredBlocks) {
  Ftl ftl(faulty_config(/*program_fail=*/0.01, /*erase_fail=*/0.0, /*spares=*/8));
  Rng rng(3);
  const std::uint32_t spares_at_start = ftl.spare_blocks_left();
  EXPECT_EQ(spares_at_start, 8u);

  try {
    for (int i = 0; i < 20'000; ++i) ftl.write(rng.uniform(ftl.user_pages() / 2));
  } catch (const DeviceWornOut&) {
  }

  const FtlStats& s = ftl.stats();
  EXPECT_GT(s.grown_bad_blocks, 0u);
  EXPECT_GT(s.spares_promoted, 0u);
  EXPECT_EQ(s.spares_promoted, spares_at_start - ftl.spare_blocks_left());
  // A retirement with a spare in stock promotes exactly one spare.
  EXPECT_LE(s.spares_promoted, s.retired_blocks);
}

TEST(FtlFault, SpareExhaustionDegradesToReadOnly) {
  // Brutal failure rate, no spares: the device must die quickly — but via
  // the structured read-only path, not a crash or a corrupted mapping.
  Ftl ftl(faulty_config(/*program_fail=*/0.2, /*erase_fail=*/0.05, /*spares=*/0));
  std::set<Lba> shadow;
  Rng rng(11);
  bool worn_out = false;
  for (int i = 0; i < 50'000 && !worn_out; ++i) {
    const Lba lba = rng.uniform(ftl.user_pages() / 2);
    try {
      ftl.write(lba);
      shadow.insert(lba);
    } catch (const DeviceWornOut&) {
      // The write may have landed before a retirement step died; the
      // mapping is the ground truth for whether it did.
      if (ftl.is_mapped(lba)) shadow.insert(lba);
      worn_out = true;
    }
  }
  ASSERT_TRUE(worn_out);
  EXPECT_TRUE(ftl.read_only());
  // Read-only is sticky: the next write fails immediately.
  EXPECT_THROW(ftl.write(0), DeviceWornOut);
  // Reads of surviving data still work, and the mapping is still sound.
  check_integrity(ftl, shadow);
  for (const Lba lba : shadow) ftl.read(lba);

  // The degradation event log recorded the read-only transition exactly once.
  std::size_t read_only_events = 0;
  for (const auto& e : ftl.degrade_events()) {
    read_only_events += e.kind == DegradeEvent::Kind::kReadOnly;
  }
  EXPECT_EQ(read_only_events, 1u);
}

TEST(FtlFault, FaultStreamIsDeterministicPerSeed) {
  const auto run = [](std::uint64_t seed) {
    Ftl ftl(faulty_config(0.01, 0.004, /*spares=*/8, seed));
    Rng rng(5);
    try {
      for (int i = 0; i < 15'000; ++i) ftl.write(rng.uniform(ftl.user_pages() / 2));
    } catch (const DeviceWornOut&) {
    }
    std::vector<std::tuple<DegradeEvent::Kind, std::uint32_t, std::uint64_t>> events;
    for (const auto& e : ftl.degrade_events()) events.emplace_back(e.kind, e.block, e.seq);
    return std::tuple{ftl.nand().stats().program_failures, ftl.nand().stats().erase_failures,
                      ftl.stats().grown_bad_blocks, ftl.free_pages(), events};
  };
  EXPECT_EQ(run(9), run(9));        // bit-for-bit reproducible
  EXPECT_NE(std::get<4>(run(9)), std::get<4>(run(10)));  // but seed-sensitive
}

TEST(FtlFault, DisabledFaultModelMatchesLegacyBehaviorExactly) {
  const auto run = [](std::uint32_t spares) {
    FtlConfig cfg = faulty_config(0.0, 0.0, spares);
    Ftl ftl(cfg);
    Rng rng(21);
    for (int i = 0; i < 8'000; ++i) ftl.write(rng.uniform(ftl.user_pages() / 2));
    return std::tuple{ftl.nand().stats().page_programs, ftl.nand().stats().block_erases,
                      ftl.free_pages(), ftl.stats().gc_cycles};
  };
  // All-zero probabilities: no failures, no grown-bad blocks, and the GC
  // trajectory is identical to a device built without any fault plumbing.
  const auto r = run(0);
  EXPECT_EQ(r, run(0));
  Ftl plain(faulty_config(0.0, 0.0, 0));
  EXPECT_EQ(plain.offline_pages(), 0u);
  EXPECT_FALSE(plain.read_only());
}

TEST(FtlFault, SparePoolReservesCapacityUpFront) {
  FtlConfig cfg = faulty_config(0.001, 0.0, /*spares=*/4);
  Ftl ftl(cfg);
  const std::uint64_t ppb = cfg.geometry.pages_per_block;
  EXPECT_EQ(ftl.offline_pages(), 4 * ppb);  // spares sit outside the economy
  EXPECT_EQ(ftl.free_pages(), cfg.geometry.total_pages() - 4 * ppb);
  EXPECT_EQ(ftl.spare_blocks_left(), 4u);
}

}  // namespace
}  // namespace jitgc::ftl
