#include "sim/ssd.h"

#include <gtest/gtest.h>

#include <vector>

#include "host/page_cache.h"

namespace jitgc::sim {
namespace {

SsdConfig test_config() {
  SsdConfig cfg;
  cfg.ftl.geometry = nand::Geometry{.channels = 2,
                                    .dies_per_channel = 2,
                                    .planes_per_die = 1,
                                    .blocks_per_plane = 16,
                                    .pages_per_block = 8,
                                    .page_size = 4 * KiB};
  cfg.ftl.op_ratio = 0.25;
  cfg.ftl.timing = nand::timing_20nm_mlc();
  return cfg;
}

TEST(Ssd, ScaleDividesByParallelism) {
  Ssd ssd(test_config());
  EXPECT_EQ(ssd.parallelism(), 4u);
  EXPECT_EQ(ssd.scale(4000), 1000);
  EXPECT_EQ(ssd.scale(0), 0);
  EXPECT_EQ(ssd.scale(2), 1);  // never rounds a nonzero latency to zero
}

TEST(Ssd, WriteTimeIsScaled) {
  Ssd ssd(test_config());
  const TimeUs t = ssd.write_page(0);
  EXPECT_EQ(t, test_config().ftl.timing.program_cost() / 4);
}

TEST(Ssd, WriteBandwidthMatchesTiming) {
  Ssd ssd(test_config());
  const auto& timing = test_config().ftl.timing;
  const double expected = 4096.0 / (static_cast<double>(timing.program_cost()) / 4.0 / 1e6);
  EXPECT_NEAR(ssd.write_bandwidth_bps(), expected, 1.0);
}

TEST(Ssd, GcBandwidthStartsFromAnalyticPrior) {
  Ssd ssd(test_config());
  EXPECT_GT(ssd.gc_bandwidth_bps(), 0.0);
}

TEST(Ssd, GcEstimatesTrackRealCycles) {
  Ssd ssd(test_config());
  const double prior = ssd.gc_bandwidth_bps();
  // Build easy victims: hot overwrites leave nearly-invalid blocks, so real
  // GC is much faster than the 50 %-valid prior assumes.
  for (int round = 0; round < 30; ++round) {
    for (Lba lba = 0; lba < 8; ++lba) ssd.write_page(lba);
  }
  for (int i = 0; i < 10; ++i) ssd.bgc_collect_step(ssd.ftl().pages_per_block());
  EXPECT_NE(ssd.gc_bandwidth_bps(), prior);
}

TEST(Ssd, GcBandwidthUpdatesOncePerVictimFromItsSummedSteps) {
  Ssd ssd(test_config());
  // Blocks A (LBAs 0-7) and B (8-15) fill up; rewriting 0-2 leaves A with 5
  // valid pages, the only block with anything to reclaim.
  for (Lba lba = 0; lba < 16; ++lba) ssd.write_page(lba);
  for (Lba lba = 0; lba < 3; ++lba) ssd.write_page(lba);
  const double prior = ssd.gc_bandwidth_bps();

  // One page per step: four partial steps, then the fifth migrates the last
  // valid page and erases A.
  std::uint64_t migrated = 0;
  TimeUs time = 0;
  for (int i = 0; i < 4; ++i) {
    const ftl::Ftl::GcStep step = ssd.bgc_collect_step(1);
    ASSERT_TRUE(step.progressed);
    ASSERT_FALSE(step.erased);
    migrated += step.migrated;
    time += step.time_us;
    EXPECT_EQ(ssd.gc_bandwidth_bps(), prior) << "partial step " << i;
  }
  const ftl::Ftl::GcStep last = ssd.bgc_collect_step(1);
  ASSERT_TRUE(last.erased);
  migrated += last.migrated;
  time += last.time_us;
  EXPECT_EQ(migrated, 5u);
  const auto& timing = test_config().ftl.timing;
  EXPECT_EQ(time, 4 * ssd.scale(timing.migrate_cost()) +
                      ssd.scale(timing.migrate_cost() + timing.block_erase_us));

  // One EWMA update (alpha 0.05) with the net pages (8 freed - 5 migrated)
  // over the summed service time of all five steps.
  const double sample_bps = 3.0 * 4096.0 / (static_cast<double>(time) / 1e6);
  EXPECT_DOUBLE_EQ(ssd.gc_bandwidth_bps(), 0.95 * prior + 0.05 * sample_bps);
}

TEST(Ssd, ExtendedInterfaceChargesOverhead) {
  Ssd ssd(test_config());
  TimeUs overhead = 0;
  const Bytes free1 = ssd.query_free_capacity(overhead);
  EXPECT_EQ(overhead, 160);
  EXPECT_GT(free1, 0u);

  host::SipDelta delta;
  delta.added = {1, 2, 3};
  ssd.send_sip_update(delta, /*sip_size=*/3, overhead);
  EXPECT_EQ(overhead, 320);  // tiny payload: rounds to the flat cost
  EXPECT_TRUE(ssd.ftl().sip_index().contains(2));
}

TEST(Ssd, SipPayloadTransferScalesWithListSize) {
  Ssd ssd(test_config());
  // 50k entries x 4 B at 500 MB/s = 400 us of payload transfer, however few
  // of them changed since the last delivery.
  host::SipDelta delta;
  delta.added = {1, 2, 3};
  TimeUs overhead = 0;
  ssd.send_sip_update(delta, /*sip_size=*/50'000, overhead);
  EXPECT_EQ(overhead, 160 + 400);
}

/// The host's delivery of L_SIP: the page cache's pending delta, applied to
/// the device's last delivered list, leaves the device holding exactly the
/// cache's dirty set.
TEST(Ssd, SipUpdateDeliversCacheDelta) {
  Ssd ssd(test_config());
  host::PageCache cache(host::PageCacheConfig{}, ssd.ftl().user_pages());
  cache.write(7, seconds(1));
  cache.write(9, seconds(2));
  TimeUs overhead = 0;
  ssd.send_sip_update(cache.pending_sip_delta(), cache.dirty_pages(), overhead);
  cache.commit_sip_checkpoint();  // 7 and 9 delivered
  cache.write(11, seconds(3));
  cache.evict_oldest(1);  // writes back 7

  const host::SipDelta delta = cache.pending_sip_delta();
  EXPECT_EQ(delta.added, (std::vector<Lba>{11}));
  EXPECT_EQ(delta.removed, (std::vector<Lba>{7}));
  ssd.send_sip_update(delta, cache.dirty_pages(), overhead);
  EXPECT_EQ(ssd.ftl().sip_index().sorted(), (std::vector<Lba>{9, 11}));
  EXPECT_EQ(overhead, 2 * 160);  // one command per delivery
}

TEST(Ssd, MigrateStepTimeIsPositive) {
  Ssd ssd(test_config());
  EXPECT_GT(ssd.migrate_step_time(), 0);
  EXPECT_EQ(ssd.migrate_step_time(),
            test_config().ftl.timing.migrate_cost() / 4);
}

TEST(Ssd, TrimForwards) {
  Ssd ssd(test_config());
  ssd.write_page(5);
  ssd.trim(5);
  EXPECT_FALSE(ssd.ftl().is_mapped(5));
}

}  // namespace
}  // namespace jitgc::sim
