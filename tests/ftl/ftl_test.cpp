#include "ftl/ftl.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace jitgc::ftl {
namespace {

FtlConfig tiny_config() {
  FtlConfig cfg;
  cfg.geometry = nand::Geometry{.channels = 1,
                                .dies_per_channel = 1,
                                .planes_per_die = 1,
                                .blocks_per_plane = 32,
                                .pages_per_block = 8,
                                .page_size = 4 * KiB};
  cfg.timing = nand::timing_20nm_mlc();
  cfg.op_ratio = 0.25;  // 256 pages total -> ~204 user pages
  cfg.min_free_blocks = 2;
  return cfg;
}

TEST(Ftl, CapacitySplit) {
  Ftl ftl(tiny_config());
  EXPECT_EQ(ftl.user_pages(), 204u);  // 256 / 1.25
  EXPECT_EQ(ftl.user_pages() * ftl.page_size(), ftl.user_capacity());
  EXPECT_EQ(ftl.op_capacity(), (256 - 204) * 4 * KiB);
  EXPECT_EQ(ftl.free_pages(), 256u);
}

TEST(Ftl, WriteMapsLba) {
  Ftl ftl(tiny_config());
  EXPECT_FALSE(ftl.is_mapped(5));
  const TimeUs cost = ftl.write(5);
  EXPECT_GT(cost, 0);
  EXPECT_TRUE(ftl.is_mapped(5));
  EXPECT_EQ(ftl.valid_pages(), 1u);
  EXPECT_EQ(ftl.stats().host_pages_written, 1u);
}

TEST(Ftl, OverwriteInvalidatesOldVersion) {
  Ftl ftl(tiny_config());
  ftl.write(5);
  ftl.write(5);
  EXPECT_EQ(ftl.valid_pages(), 1u);  // out-place update, one live copy
  EXPECT_EQ(ftl.nand().stats().page_programs, 2u);
}

TEST(Ftl, WriteBeyondUserCapacityThrows) {
  Ftl ftl(tiny_config());
  EXPECT_THROW(ftl.write(ftl.user_pages()), std::logic_error);
}

TEST(Ftl, FreePagesDecreaseWithWrites) {
  Ftl ftl(tiny_config());
  const auto before = ftl.free_pages();
  for (Lba lba = 0; lba < 10; ++lba) ftl.write(lba);
  EXPECT_EQ(ftl.free_pages(), before - 10);
}

TEST(Ftl, FreeForWritesExcludesHeadroom) {
  Ftl ftl(tiny_config());
  EXPECT_EQ(ftl.free_pages_for_writes(), 256u - 2 * 8);
}

TEST(Ftl, TrimUnmapsAndInvalidates) {
  Ftl ftl(tiny_config());
  ftl.write(7);
  ftl.trim(7);
  EXPECT_FALSE(ftl.is_mapped(7));
  EXPECT_EQ(ftl.valid_pages(), 0u);
  EXPECT_EQ(ftl.stats().trims, 1u);
  ftl.trim(7);  // trimming an unmapped LBA is a no-op
  EXPECT_EQ(ftl.stats().trims, 1u);
}

TEST(Ftl, TrimStillInvalidatesAndKeepsAccounting) {
  Ftl ftl(tiny_config());
  ftl.write(1);
  ftl.write(2);
  const std::uint64_t valid_before = ftl.valid_pages();
  ftl.trim(1);
  EXPECT_EQ(ftl.valid_pages(), valid_before - 1);
  EXPECT_FALSE(ftl.is_mapped(1));
  EXPECT_TRUE(ftl.is_mapped(2));
}

TEST(Ftl, ReadUnmappedCostsTransferOnly) {
  Ftl ftl(tiny_config());
  EXPECT_EQ(ftl.read(3), ftl.config().timing.page_transfer_us);
  ftl.write(3);
  EXPECT_EQ(ftl.read(3), ftl.config().timing.read_cost());
}

TEST(Ftl, ForegroundGcReclaimsSpace) {
  Ftl ftl(tiny_config());
  // Hammer a hot set while sprinkling in cold pages that stay valid, so GC
  // victims carry valid data and migrations actually happen.
  for (int round = 0; round < 50; ++round) {
    for (Lba lba = 0; lba < 20; ++lba) ftl.write(lba);
    ftl.write(100 + static_cast<Lba>(round));  // cold, never rewritten
  }
  EXPECT_GT(ftl.stats().foreground_gc_cycles, 0u);
  EXPECT_EQ(ftl.valid_pages(), 20u + 50u);
  EXPECT_GT(ftl.free_pages(), 0u);
  EXPECT_GT(ftl.waf(), 1.0);
  EXPECT_GT(ftl.nand().stats().page_migrations, 0u);
}

TEST(Ftl, MappingSurvivesGc) {
  Ftl ftl(tiny_config());
  // Distinct data per LBA tracked via mapping: after heavy churn every LBA
  // still maps to a valid page holding its own address (checked internally
  // by the mapping/OOB ENSURE during migrations).
  for (int round = 0; round < 30; ++round) {
    for (Lba lba = 0; lba < 50; ++lba) ftl.write(lba);
  }
  for (Lba lba = 0; lba < 50; ++lba) EXPECT_TRUE(ftl.is_mapped(lba));
  EXPECT_EQ(ftl.valid_pages(), 50u);
}

TEST(Ftl, WafIsOneWithoutGc) {
  Ftl ftl(tiny_config());
  for (Lba lba = 0; lba < 30; ++lba) ftl.write(lba);
  EXPECT_DOUBLE_EQ(ftl.waf(), 1.0);
}

TEST(Ftl, BackgroundReclaimCreatesFreeSpace) {
  Ftl ftl(tiny_config());
  for (int round = 0; round < 8; ++round) {
    for (Lba lba = 0; lba < 24; ++lba) ftl.write(lba);
  }
  const auto before = ftl.free_pages();
  const TimeUs t = ftl.background_reclaim(16);
  EXPECT_GT(t, 0);
  EXPECT_GE(ftl.free_pages(), before + 16);
  EXPECT_GT(ftl.stats().background_gc_cycles, 0u);
}

TEST(Ftl, BackgroundCollectOnFreshDeviceIsNoop) {
  Ftl ftl(tiny_config());
  const Ftl::GcStep r = ftl.background_collect_step(ftl.pages_per_block());
  EXPECT_FALSE(r.progressed);
  EXPECT_EQ(ftl.background_reclaim(100), 0);
}

TEST(Ftl, InvariantFreePlusValidPlusInvalidIsTotal) {
  Ftl ftl(tiny_config());
  for (int round = 0; round < 20; ++round) {
    for (Lba lba = 0; lba < 40; ++lba) ftl.write(lba);
    ftl.background_collect_step(ftl.pages_per_block());
  }
  std::uint64_t free = 0, valid = 0, invalid = 0;
  for (std::uint32_t b = 0; b < ftl.nand().num_blocks(); ++b) {
    const auto& blk = ftl.nand().block(b);
    free += blk.free_count();
    valid += blk.valid_count();
    invalid += blk.invalid_count();
  }
  EXPECT_EQ(free + valid + invalid, ftl.config().geometry.total_pages());
  EXPECT_EQ(free, ftl.free_pages());
  EXPECT_EQ(valid, ftl.valid_pages());
}

TEST(Ftl, SipListInstallsAndCounts) {
  Ftl ftl(tiny_config());
  for (Lba lba = 0; lba < 10; ++lba) ftl.write(lba);
  ftl.set_sip_list({1, 2, 3, 999999});  // out-of-range entries are ignored
  EXPECT_EQ(ftl.sip_index().size(), 4u);
  EXPECT_TRUE(ftl.sip_index().contains(2));
  EXPECT_FALSE(ftl.sip_index().contains(7));
}

TEST(Ftl, SipPenaltySteersVictimSelection) {
  FtlConfig cfg = tiny_config();
  cfg.enable_sip_filter = true;
  cfg.bgc_valid_threshold = 1.0;  // candidates are 7/8 valid by construction
  Ftl ftl(cfg);

  // Two full blocks, one invalid page each: identical greedy scores.
  for (Lba lba = 0; lba < 16; ++lba) ftl.write(lba);
  ftl.write(0);  // invalidates a page in block A
  ftl.write(8);  // invalidates a page in block B
  // Mark block A's surviving pages soon-to-be-invalidated.
  ftl.set_sip_list({1, 2, 3, 4, 5, 6, 7});

  const Ftl::GcStep r = ftl.background_collect_step(ftl.pages_per_block());
  ASSERT_TRUE(r.progressed);
  // The SIP-heavy block lost the (otherwise tied) selection.
  EXPECT_TRUE(r.sip_filtered);
  EXPECT_EQ(ftl.stats().sip_filtered_selections, 1u);
  EXPECT_EQ(ftl.stats().victim_selections, 1u);
  // Block B's pages (9..15) were the ones migrated; SIP pages stayed put.
  for (Lba lba = 1; lba <= 7; ++lba) EXPECT_TRUE(ftl.is_mapped(lba));
}

TEST(Ftl, SipPenaltyYieldsWhenAlternativeTooExpensive) {
  FtlConfig cfg = tiny_config();
  cfg.enable_sip_filter = true;
  Ftl ftl(cfg);

  // Block A: 1 valid SIP page (7 invalid). Block B: fully valid except one.
  for (Lba lba = 0; lba < 16; ++lba) ftl.write(lba);
  for (Lba lba = 0; lba < 7; ++lba) ftl.write(lba);  // invalidate most of A
  ftl.write(8);                                      // one invalid page in B
  ftl.set_sip_list({7});                             // A's survivor is SIP

  const Ftl::GcStep r = ftl.background_collect_step(ftl.pages_per_block());
  ASSERT_TRUE(r.progressed);
  // Penalized score of A (1 + 2 = 3) still beats B (7): no filtering.
  EXPECT_FALSE(r.sip_filtered);
  EXPECT_LE(r.migrated, 3u);
}

TEST(Ftl, FullUserCapacityAlwaysFits) {
  // The OP invariant: even with every user LBA valid, the device can absorb
  // the full sequential fill (and subsequent rewrites) because OP >= GC
  // headroom is enforced at construction.
  Ftl ftl(tiny_config());
  for (Lba lba = 0; lba < ftl.user_pages(); ++lba) ftl.write(lba);
  EXPECT_EQ(ftl.valid_pages(), ftl.user_pages());
  // Rewriting everything once more forces GC through the OP space.
  for (Lba lba = 0; lba < ftl.user_pages(); ++lba) ftl.write(lba);
  EXPECT_EQ(ftl.valid_pages(), ftl.user_pages());
  EXPECT_GT(ftl.stats().gc_cycles, 0u);
}

TEST(Ftl, MinFreeBlocksValidation) {
  FtlConfig cfg = tiny_config();
  cfg.min_free_blocks = 0;
  EXPECT_THROW(Ftl{cfg}, std::logic_error);
}

TEST(Ftl, StaticWearLevelingMovesColdBlocks) {
  FtlConfig cfg = tiny_config();
  cfg.enable_static_wear_leveling = true;
  cfg.wl_spread_threshold = 4;
  Ftl ftl(cfg);

  // Cold data: fills some blocks and never changes.
  for (Lba lba = 100; lba < 140; ++lba) ftl.write(lba);
  // Hot churn drives erase counts up elsewhere.
  for (int round = 0; round < 200; ++round) {
    for (Lba lba = 0; lba < 10; ++lba) ftl.write(lba);
  }
  EXPECT_GT(ftl.stats().wear_level_moves, 0u);
  // Cold data still intact.
  for (Lba lba = 100; lba < 140; ++lba) EXPECT_TRUE(ftl.is_mapped(lba));
}

}  // namespace
}  // namespace jitgc::ftl
