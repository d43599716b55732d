#include "host/page_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>

#include "host/page_cache_probe.h"

namespace jitgc::host {
namespace {

constexpr Lba kUniverse = 1024;

PageCacheConfig small_config() {
  PageCacheConfig cfg;
  cfg.page_size = 4 * KiB;
  cfg.capacity = 4 * MiB;  // 1024 pages
  cfg.tau_expire = seconds(30);
  cfg.tau_flush_fraction = 0.10;  // 102 pages
  cfg.flush_period = seconds(5);
  return cfg;
}

TEST(PageCache, ConfigDerivedQuantities) {
  const PageCacheConfig cfg = small_config();
  EXPECT_EQ(cfg.intervals_per_horizon(), 6u);
  EXPECT_EQ(cfg.tau_flush_bytes(), static_cast<Bytes>(0.1 * 4 * MiB));
}

TEST(PageCache, RejectsMisalignedExpiry) {
  PageCacheConfig cfg = small_config();
  cfg.tau_expire = seconds(31);  // not a multiple of p
  EXPECT_THROW((PageCache{cfg, kUniverse}), std::logic_error);
}

TEST(PageCache, WriteMakesDirty) {
  PageCache cache(small_config(), kUniverse);
  EXPECT_FALSE(cache.is_dirty(10));
  cache.write(10, seconds(1));
  EXPECT_TRUE(cache.is_dirty(10));
  EXPECT_EQ(cache.dirty_pages(), 1u);
  EXPECT_EQ(cache.dirty_bytes(), 4 * KiB);
}

TEST(PageCache, OverwriteAbsorbsAndResetsAge) {
  PageCache cache(small_config(), kUniverse);
  cache.write(10, seconds(1));
  cache.write(10, seconds(20));
  EXPECT_EQ(cache.dirty_pages(), 1u);
  EXPECT_EQ(cache.absorbed_overwrites(), 1u);

  // At t=31s the page would have expired under its original age (1+30),
  // but the overwrite at t=20 reset it: nothing flushes until t=50.
  EXPECT_TRUE(cache.flusher_tick(seconds(35)).empty());
  const auto flushed = cache.flusher_tick(seconds(50));
  ASSERT_EQ(flushed.size(), 1u);
  EXPECT_EQ(flushed[0], 10u);
}

TEST(PageCache, ExpiryFlushAtFirstTickAfterThreshold) {
  PageCache cache(small_config(), kUniverse);
  cache.write(42, seconds(2));  // expires at t=32
  EXPECT_TRUE(cache.flusher_tick(seconds(30)).empty());
  const auto flushed = cache.flusher_tick(seconds(35));
  ASSERT_EQ(flushed.size(), 1u);
  EXPECT_EQ(flushed[0], 42u);
  EXPECT_FALSE(cache.is_dirty(42));
}

TEST(PageCache, ExpiryExactlyAtTickFlushes) {
  PageCache cache(small_config(), kUniverse);
  cache.write(42, seconds(5));  // age at t=35 is exactly tau_expire
  const auto flushed = cache.flusher_tick(seconds(35));
  EXPECT_EQ(flushed.size(), 1u);
}

TEST(PageCache, ThresholdFlushEvictsOldestFirst) {
  PageCacheConfig cfg = small_config();
  PageCache cache(cfg, kUniverse);
  const auto threshold_pages = cfg.tau_flush_bytes() / cfg.page_size;  // 102

  // 150 young dirty pages: over the threshold but none expired.
  for (Lba lba = 0; lba < 150; ++lba) {
    cache.write(lba, seconds(1) + lba);  // staggered ages, oldest = lba 0
  }
  const auto flushed = cache.flusher_tick(seconds(5));
  EXPECT_EQ(flushed.size(), 150 - threshold_pages);
  // Oldest-first: the very first eviction is the oldest write.
  EXPECT_EQ(flushed.front(), 0u);
  EXPECT_EQ(cache.dirty_bytes(), threshold_pages * cfg.page_size);
}

TEST(PageCache, FlushAllDrainsEverything) {
  PageCache cache(small_config(), kUniverse);
  for (Lba lba = 0; lba < 20; ++lba) cache.write(lba, seconds(1));
  const auto flushed = cache.flush_all();
  EXPECT_EQ(flushed.size(), 20u);
  EXPECT_EQ(cache.dirty_pages(), 0u);
  EXPECT_EQ(cache.pages_flushed(), 20u);
}

TEST(PageCache, ScanDirtyOldestFirst) {
  PageCache cache(small_config(), kUniverse);
  cache.write(5, seconds(3));
  cache.write(9, seconds(1));
  cache.write(7, seconds(2));
  const auto scan = dirty_oldest_first(cache);
  ASSERT_EQ(scan.size(), 3u);
  EXPECT_EQ(scan[0].lba, 9u);
  EXPECT_EQ(scan[1].lba, 7u);
  EXPECT_EQ(scan[2].lba, 5u);
  EXPECT_EQ(scan[0].last_update, seconds(1));
}

TEST(PageCache, TieBreakOnEqualTimestampsIsFifo) {
  PageCache cache(small_config(), kUniverse);
  cache.write(1, seconds(1));
  cache.write(2, seconds(1));
  cache.write(3, seconds(1));
  const auto scan = dirty_oldest_first(cache);
  ASSERT_EQ(scan.size(), 3u);
  EXPECT_EQ(scan[0].lba, 1u);
  EXPECT_EQ(scan[2].lba, 3u);
}

TEST(PageCache, FlusherTickRespectsPageBudget) {
  PageCache cache(small_config(), kUniverse);
  for (Lba lba = 0; lba < 10; ++lba) cache.write(lba, seconds(1));
  // All expired, but the device can only absorb 4 pages this interval.
  const auto first = cache.flusher_tick(seconds(31), 4);
  EXPECT_EQ(first.size(), 4u);
  EXPECT_EQ(cache.dirty_pages(), 6u);
  // The remainder keeps its age and flushes at the next opportunity.
  const auto second = cache.flusher_tick(seconds(36), 100);
  EXPECT_EQ(second.size(), 6u);
}

TEST(PageCache, EvictOldestIsOrderedAndBounded) {
  PageCache cache(small_config(), kUniverse);
  cache.write(3, seconds(3));
  cache.write(1, seconds(1));
  cache.write(2, seconds(2));
  const auto evicted = cache.evict_oldest(2);
  ASSERT_EQ(evicted.size(), 2u);
  EXPECT_EQ(evicted[0], 1u);
  EXPECT_EQ(evicted[1], 2u);
  EXPECT_TRUE(cache.is_dirty(3));
  EXPECT_TRUE(cache.evict_oldest(0).empty());
}

TEST(PageCache, FlushCounterTracksEvictions) {
  PageCache cache(small_config(), kUniverse);
  cache.write(1, seconds(1));
  cache.write(2, seconds(1));
  cache.flusher_tick(seconds(31));
  EXPECT_EQ(cache.pages_flushed(), 2u);
}

/// The incrementally-maintained interval histogram must equal what
/// re-bucketing a full scan would produce, through writes, overwrites,
/// writebacks and discards.
TEST(PageCache, IntervalHistogramMatchesScan) {
  PageCache cache(small_config(), kUniverse);
  const TimeUs p = cache.config().flush_period;

  auto check = [&] {
    std::map<std::uint64_t, std::uint64_t> expected;
    for (const DirtyPage& dp : dirty_oldest_first(cache)) {
      ++expected[static_cast<std::uint64_t>((dp.last_update + p - 1) / p)];
    }
    ASSERT_EQ(histogram_map(cache), expected);
  };

  for (Lba lba = 0; lba < 40; ++lba) cache.write(lba, seconds(1) + lba * 100000);
  check();
  for (Lba lba = 10; lba < 20; ++lba) cache.write(lba, seconds(8));  // age resets
  check();
  cache.discard(30, 5);
  check();
  cache.flusher_tick(seconds(35), 12);  // partial writeback
  check();
  cache.evict_oldest(7);
  check();
  cache.flush_all();
  check();
  EXPECT_TRUE(histogram_map(cache).empty());
}

TEST(PageCache, SipDeltaTracksNetMembershipChange) {
  PageCache cache(small_config(), kUniverse);
  cache.write(1, seconds(1));  // dirty at the checkpoint: already delivered
  EXPECT_EQ(cache.pending_sip_delta().added, (std::vector<Lba>{1}));
  cache.commit_sip_checkpoint();

  cache.write(2, seconds(2));           // insert
  cache.write(2, seconds(3));           // overwrite: still dirty, no change
  cache.write(3, seconds(2));           // insert...
  cache.discard(3, 1);                  // ...then gone: cancels to nothing
  cache.evict_oldest(1);                // writes back LBA 1: a removal
  auto delta = cache.pending_sip_delta();
  EXPECT_EQ(delta.added, (std::vector<Lba>{2}));
  EXPECT_EQ(delta.removed, (std::vector<Lba>{1}));

  cache.commit_sip_checkpoint();
  EXPECT_TRUE(cache.pending_sip_delta().added.empty());
  EXPECT_TRUE(cache.pending_sip_delta().removed.empty());

  // Removed then re-dirtied within one interval: net no change.
  cache.flush_all();                    // removes 2
  cache.write(2, seconds(9));           // re-inserts 2
  delta = cache.pending_sip_delta();
  EXPECT_TRUE(delta.added.empty());
  EXPECT_TRUE(delta.removed.empty());
}

/// The cache is sized to the device's logical space: a buffered write or a
/// discard naming an LBA at or past it is refused on the spot, with a message
/// naming the LBA and the universe, instead of failing later at writeback.
TEST(PageCache, RejectsWriteOutsideUniverse) {
  PageCache cache(small_config(), kUniverse);
  cache.write(kUniverse - 1, seconds(1));
  EXPECT_TRUE(cache.is_dirty(kUniverse - 1));
  try {
    cache.write(kUniverse, seconds(1));
    FAIL() << "write past the universe was accepted";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("[1024, 1025)"), std::string::npos) << what;
    EXPECT_NE(what.find("universe [0, 1024)"), std::string::npos) << what;
  }
  EXPECT_FALSE(cache.is_dirty(kUniverse));
  EXPECT_FALSE(cache.is_dirty(~Lba{0}));
  EXPECT_EQ(cache.dirty_pages(), 1u);
}

TEST(PageCache, RejectsDiscardOutsideUniverse) {
  PageCache cache(small_config(), kUniverse);
  cache.write(kUniverse - 2, seconds(1));
  EXPECT_EQ(cache.discard(kUniverse - 2, 2), 1u);
  try {
    cache.discard(kUniverse - 1, 2);
    FAIL() << "discard past the universe was accepted";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("[1023, 1025)"), std::string::npos) << what;
    EXPECT_NE(what.find("universe [0, 1024)"), std::string::npos) << what;
  }
  // A page count that would wrap the LBA range is refused too.
  EXPECT_THROW(cache.discard(1, ~std::uint64_t{0}), std::logic_error);
}

/// With the LBA space split into partitions, each partition's histogram
/// counts exactly its own dirty pages, including pages already dirty when
/// the split is set.
TEST(PageCache, PartitionHistogramsSplitByLba) {
  PageCache cache(small_config(), kUniverse);
  cache.write(10, seconds(1));
  cache.write(700, seconds(6));
  cache.set_partitions(LbaPartitions::equal_share(kUniverse, 3));  // 341, 341, 342
  ASSERT_EQ(cache.partitions().share, 341u);
  cache.write(340, seconds(2));
  cache.write(341, seconds(7));
  cache.write(kUniverse - 1, seconds(7));
  cache.write(10, seconds(12));  // overwrite moves page 10 to a later bucket

  EXPECT_EQ(histogram_map(cache, 0), (std::map<std::uint64_t, std::uint64_t>{{1, 1}, {3, 1}}));
  EXPECT_EQ(histogram_map(cache, 1), (std::map<std::uint64_t, std::uint64_t>{{2, 1}}));
  EXPECT_EQ(histogram_map(cache, 2), (std::map<std::uint64_t, std::uint64_t>{{2, 2}}));
  EXPECT_EQ(cache.interval_histogram(0).pages(), 2u);
  EXPECT_EQ(cache.interval_histogram(2).pages(), 2u);

  cache.discard(682, 342);
  EXPECT_TRUE(histogram_map(cache, 2).empty());
  cache.flush_all();
  for (std::uint32_t q = 0; q < 3; ++q) EXPECT_EQ(cache.interval_histogram(q).pages(), 0u);
}

}  // namespace
}  // namespace jitgc::host
