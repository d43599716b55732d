// Edge-case interactions between FTL features: incremental GC vs concurrent
// invalidation, SIP with cost-benefit scoring, background_reclaim semantics,
// and all realism features enabled at once.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "ftl/ftl.h"

namespace jitgc::ftl {
namespace {

FtlConfig tiny(std::uint32_t blocks = 32, std::uint32_t ppb = 8) {
  FtlConfig cfg;
  cfg.geometry = nand::Geometry{.channels = 1,
                                .dies_per_channel = 1,
                                .planes_per_die = 1,
                                .blocks_per_plane = blocks,
                                .pages_per_block = ppb,
                                .page_size = 4 * KiB};
  cfg.op_ratio = 0.25;
  // These tests construct nearly-full-valid victims on purpose.
  cfg.bgc_valid_threshold = 1.0;
  return cfg;
}

TEST(FtlEdge, HostWriteInvalidatesPageOfInFlightBgcVictim) {
  Ftl ftl(tiny());
  // Build a full block of LBAs 0..7 and make it the BGC victim by
  // invalidating one page.
  for (Lba lba = 0; lba < 8; ++lba) ftl.write(lba);
  for (Lba lba = 8; lba < 16; ++lba) ftl.write(lba);  // second block so GC has company
  ftl.write(0);  // invalidate one page of block A

  // Start incremental collection: migrate just one page.
  auto step = ftl.background_collect_step(1);
  ASSERT_TRUE(step.progressed);
  ASSERT_FALSE(step.erased);

  // Host rewrites LBAs that still sit in the victim: their pages invalidate
  // under the collector's cursor.
  ftl.write(5);
  ftl.write(6);

  // Finishing the collection must skip those now-invalid pages and erase.
  int guard = 0;
  while (true) {
    step = ftl.background_collect_step(8);
    ASSERT_TRUE(step.progressed);
    if (step.erased) break;
    ASSERT_LT(++guard, 16);
  }
  // All data still reachable.
  for (Lba lba = 0; lba < 16; ++lba) EXPECT_TRUE(ftl.is_mapped(lba));
  EXPECT_EQ(ftl.valid_pages(), 16u);
}

TEST(FtlEdge, TrimPageOfInFlightBgcVictim) {
  Ftl ftl(tiny());
  for (Lba lba = 0; lba < 8; ++lba) ftl.write(lba);
  for (Lba lba = 8; lba < 16; ++lba) ftl.write(lba);
  ftl.write(0);

  auto step = ftl.background_collect_step(1);
  ASSERT_TRUE(step.progressed);
  ftl.trim(7);  // kill the victim's last page mid-collection

  int guard = 0;
  while (!(step = ftl.background_collect_step(8)).erased) {
    ASSERT_TRUE(step.progressed);
    ASSERT_LT(++guard, 16);
  }
  EXPECT_FALSE(ftl.is_mapped(7));
  EXPECT_EQ(ftl.valid_pages(), 15u);
}

TEST(FtlEdge, BackgroundReclaimMeetsExactTarget) {
  Ftl ftl(tiny(64, 8));
  Rng rng(5);
  for (Lba lba = 0; lba < ftl.user_pages(); ++lba) ftl.write(lba);
  for (int i = 0; i < 2000; ++i) ftl.write(rng.uniform(ftl.user_pages() / 2));

  const std::uint64_t before = ftl.free_pages();
  ftl.background_reclaim(24);
  EXPECT_GE(ftl.free_pages(), before + 24);
}

TEST(FtlEdge, SipPenaltyComposesWithCostBenefit) {
  FtlConfig cfg = tiny();
  cfg.victim_policy = VictimPolicyKind::kCostBenefit;
  cfg.enable_sip_filter = true;
  cfg.bgc_valid_threshold = 1.0;
  Ftl ftl(cfg);

  for (Lba lba = 0; lba < 16; ++lba) ftl.write(lba);
  ftl.write(0);
  ftl.write(8);
  ftl.set_sip_list({1, 2, 3, 4, 5, 6, 7});  // block A is SIP-heavy

  const Ftl::GcStep r = ftl.background_collect_step(ftl.pages_per_block());
  ASSERT_TRUE(r.progressed);
  // Block A had the better (older) cost-benefit score but the SIP penalty
  // must push selection to block B; either way the stats stay coherent.
  EXPECT_EQ(ftl.stats().victim_selections, 1u);
  EXPECT_LE(ftl.stats().sip_filtered_selections, 1u);
}

TEST(FtlEdge, KitchenSinkConfigurationStaysCoherent) {
  // Everything on at once: endurance, hot/cold, SIP, static wear leveling,
  // cost-benefit scoring — plus churn with trims.
  FtlConfig cfg = tiny(64, 16);
  cfg.victim_policy = VictimPolicyKind::kCostBenefit;
  cfg.enable_sip_filter = true;
  cfg.enable_hot_cold_separation = true;
  cfg.enable_static_wear_leveling = true;
  cfg.wl_spread_threshold = 8;
  cfg.enforce_endurance = true;
  cfg.timing.endurance_pe_cycles = 10'000;  // high enough not to die here
  Ftl ftl(cfg);

  Rng rng(11);
  const Lba user = ftl.user_pages();
  try {
    for (int i = 0; i < 30'000; ++i) {
      const double roll = rng.uniform01();
      if (roll < 0.8) {
        ftl.write(rng.chance(0.7) ? rng.uniform(user / 4) : rng.uniform(user * 3 / 4));
      } else if (roll < 0.9) {
        ftl.trim(rng.uniform(user * 3 / 4));
      } else {
        ftl.background_collect_step(4);
      }
      if (i % 5000 == 0) {
        std::vector<Lba> sip;
        for (int k = 0; k < 32; ++k) sip.push_back(rng.uniform(user));
        ftl.set_sip_list(sip);
      }
    }
  } catch (const DeviceWornOut&) {
    FAIL() << "device must not wear out at this P/E rating";
  }

  // Global accounting still exact.
  std::uint64_t free = 0, valid = 0;
  for (std::uint32_t b = 0; b < ftl.nand().num_blocks(); ++b) {
    free += ftl.nand().block(b).free_count();
    valid += ftl.nand().block(b).valid_count();
  }
  EXPECT_EQ(free, ftl.free_pages());
  EXPECT_EQ(valid, ftl.valid_pages());
  EXPECT_GE(ftl.waf(), 1.0);
}

}  // namespace
}  // namespace jitgc::ftl
