// Validates the buffered-write predictor against the paper's Fig. 4 worked
// example: p = 5 s, tau_expire = 30 s, writes A(20) t=2, B(20) t=4, C(20)
// t=7, B'(update of B) t=9, D(200) t=17. Sizes are in pages here (one "MB"
// of the figure = one page), which leaves the arithmetic identical.
#include "core/buffered_predictor.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace jitgc::core {
namespace {

constexpr Lba kUniverse = 4096;

host::PageCacheConfig fig4_config() {
  host::PageCacheConfig cfg;
  cfg.page_size = 4 * KiB;
  cfg.capacity = 16 * MiB;  // 4096 pages, far above the figure's volumes
  cfg.tau_expire = seconds(30);
  cfg.tau_flush_fraction = 1.0;  // disable the threshold path for the figure
  cfg.flush_period = seconds(5);
  return cfg;
}

/// Writes `pages` consecutive dirty pages starting at `base` at time t.
void write_group(host::PageCache& cache, Lba base, std::uint32_t pages, TimeUs t) {
  for (std::uint32_t i = 0; i < pages; ++i) cache.write(base + i, t);
}

class Fig4Test : public ::testing::Test {
 protected:
  Fig4Test() : cache_(fig4_config(), kUniverse) {}

  std::vector<Bytes> demand_pages(TimeUs now) {
    const BufferedPrediction p = predictor_.predict(cache_, now);
    std::vector<Bytes> pages;
    for (const Bytes b : p.demand.values()) pages.push_back(b / (4 * KiB));
    return pages;
  }

  host::PageCache cache_;
  BufferedWritePredictor predictor_;
};

TEST_F(Fig4Test, PredictionAtT5) {
  write_group(cache_, 0, 20, seconds(2));     // A
  write_group(cache_, 100, 20, seconds(4));   // B
  cache_.flusher_tick(seconds(5));
  EXPECT_EQ(demand_pages(seconds(5)), (std::vector<Bytes>{0, 0, 0, 0, 0, 40}));
}

TEST_F(Fig4Test, PredictionAtT10) {
  write_group(cache_, 0, 20, seconds(2));     // A
  write_group(cache_, 100, 20, seconds(4));   // B
  write_group(cache_, 200, 20, seconds(7));   // C
  write_group(cache_, 100, 20, seconds(9));   // B' overwrites B, resetting age
  cache_.flusher_tick(seconds(10));
  // D5 = 20 (A only: B's age was reset), D6 = 40 (C + B').
  EXPECT_EQ(demand_pages(seconds(10)), (std::vector<Bytes>{0, 0, 0, 0, 20, 40}));
}

TEST_F(Fig4Test, PredictionAtT20) {
  write_group(cache_, 0, 20, seconds(2));      // A
  write_group(cache_, 100, 20, seconds(4));    // B
  write_group(cache_, 200, 20, seconds(7));    // C
  write_group(cache_, 100, 20, seconds(9));    // B'
  write_group(cache_, 300, 200, seconds(17));  // D
  cache_.flusher_tick(seconds(20));
  EXPECT_EQ(demand_pages(seconds(20)), (std::vector<Bytes>{0, 0, 20, 40, 0, 200}));
}

/// The SIP list sent at the first tick (a delta from the fresh cache's
/// checkpoint) names every dirty page; the predictor counts the same pages.
TEST_F(Fig4Test, SipListContainsAllDirtyLbas) {
  write_group(cache_, 0, 20, seconds(2));
  write_group(cache_, 100, 20, seconds(4));
  const host::SipDelta sip = cache_.pending_sip_delta();
  EXPECT_EQ(sip.added.size(), 40u);
  EXPECT_TRUE(sip.removed.empty());
  EXPECT_NE(std::find(sip.added.begin(), sip.added.end(), Lba{0}), sip.added.end());
  EXPECT_NE(std::find(sip.added.begin(), sip.added.end(), Lba{119}), sip.added.end());
  EXPECT_EQ(predictor_.predict(cache_, seconds(5)).stream_pages[0], 40u);
}

TEST_F(Fig4Test, EmptyCachePredictsZero) {
  const BufferedPrediction p = predictor_.predict(cache_, seconds(5));
  EXPECT_EQ(p.demand.total(), 0u);
  EXPECT_EQ(p.stream_pages[0], 0u);
  EXPECT_TRUE(cache_.pending_sip_delta().added.empty());
}

TEST_F(Fig4Test, DemandTotalMatchesDirtyBytes) {
  write_group(cache_, 0, 33, seconds(2));
  write_group(cache_, 500, 7, seconds(9));
  cache_.flusher_tick(seconds(10));
  const BufferedPrediction p = predictor_.predict(cache_, seconds(10));
  EXPECT_EQ(p.demand.total(), cache_.dirty_bytes());
}

TEST(BufferedPredictorStrict, BelowThresholdPredictsNothing) {
  host::PageCacheConfig cfg = fig4_config();
  cfg.tau_flush_fraction = 0.01;  // ~41 pages
  host::PageCache cache(cfg, kUniverse);
  for (Lba lba = 0; lba < 30; ++lba) cache.write(lba, seconds(12));
  // 30 dirty pages < threshold: the literal two-condition rule says no
  // flush will happen, so strict predicts zero demand — exactly the blind
  // spot the paper's relaxation removes. The pages are still counted, and
  // the SIP list still flows.
  const BufferedWritePredictor strict(false);
  const auto p = strict.predict(cache, seconds(15));
  EXPECT_EQ(p.demand.total(), 0u);
  EXPECT_EQ(p.stream_pages[0], 30u);
  EXPECT_EQ(cache.pending_sip_delta().added.size(), 30u);

  const BufferedWritePredictor relaxed(true);
  EXPECT_EQ(relaxed.predict(cache, seconds(15)).demand.total(), cache.dirty_bytes());
}

TEST(BufferedPredictorStrict, OverThresholdMovesOldestForward) {
  host::PageCacheConfig cfg = fig4_config();
  cfg.tau_flush_fraction = 0.01;  // 40.96 pages -> threshold ~41 pages
  host::PageCache cache(cfg, kUniverse);
  // 100 pages written mid-interval; the next tick will evict the oldest
  // ~59 pages via the threshold condition. Strict mode must predict that.
  for (Lba lba = 0; lba < 100; ++lba) cache.write(lba, seconds(12) + lba);

  const BufferedWritePredictor strict(false);
  const auto p = strict.predict(cache, seconds(15));
  const Bytes page = cfg.page_size;
  const Bytes threshold = cfg.tau_flush_bytes();
  const Bytes excess = 100 * page - threshold;
  const auto excess_pages = (excess + page - 1) / page;
  EXPECT_EQ(p.demand.at(1) / page, excess_pages);

  const BufferedWritePredictor relaxed(true);
  const auto pr = relaxed.predict(cache, seconds(15));
  EXPECT_EQ(pr.demand.at(1), 0u);  // relaxed mode ignores the threshold
  EXPECT_EQ(pr.demand.total(), p.demand.total());  // same total, shifted
}

/// A single stream is served from the cache's interval histogram instead of
/// a per-page scan; at flusher-tick instants the two paths must produce
/// identical demand vectors (the histogram identity the fast path relies
/// on), in both flush models. Asking for two streams the cache is not
/// partitioned by forces the scan.
TEST(BufferedPredictorHistogram, MatchesScanPathAtTickInstants) {
  for (const bool relax : {true, false}) {
    host::PageCacheConfig cfg = fig4_config();
    cfg.tau_flush_fraction = 0.02;  // ~82 pages: strict's threshold engages
    host::PageCache cache(cfg, kUniverse);
    const host::LbaPartitions two_streams = host::LbaPartitions::equal_share(kUniverse, 2);
    ASSERT_NE(cache.partitions(), two_streams);

    // Writes straddling several intervals and both streams, with overwrites
    // and a backlog of already-expired pages (no tick ever drains them here).
    for (Lba lba = 0; lba < 60; ++lba) cache.write(lba, seconds(1) + lba * 250000);
    for (Lba lba = 20; lba < 30; ++lba) cache.write(lba, seconds(22));
    for (Lba lba = 200; lba < 260; ++lba) cache.write(lba, seconds(33));
    for (Lba lba = 3000; lba < 3040; ++lba) cache.write(lba, seconds(14) + lba);

    const BufferedWritePredictor predictor(relax);
    for (const TimeUs now : {seconds(35), seconds(40), seconds(60), seconds(90)}) {
      const BufferedPrediction via_histogram = predictor.predict(cache, now);
      const BufferedPrediction via_scan = predictor.predict(cache, now, two_streams);
      ASSERT_EQ(via_scan.demand.values(), via_histogram.demand.values())
          << "relax=" << relax << " now=" << now;
      EXPECT_EQ(via_scan.stream_pages[0] + via_scan.stream_pages[1],
                via_histogram.stream_pages[0]);
    }
  }
}

}  // namespace
}  // namespace jitgc::core
