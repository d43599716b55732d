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

TEST_F(Fig4Test, SipListContainsAllDirtyLbas) {
  write_group(cache_, 0, 20, seconds(2));
  write_group(cache_, 100, 20, seconds(4));
  const BufferedPrediction p = predictor_.predict(cache_, seconds(5));
  EXPECT_EQ(p.sip.added.size(), 40u);
  EXPECT_NE(std::find(p.sip.added.begin(), p.sip.added.end(), Lba{0}), p.sip.added.end());
  EXPECT_NE(std::find(p.sip.added.begin(), p.sip.added.end(), Lba{119}), p.sip.added.end());
}

TEST_F(Fig4Test, EmptyCachePredictsZero) {
  const BufferedPrediction p = predictor_.predict(cache_, seconds(5));
  EXPECT_EQ(p.demand.total(), 0u);
  EXPECT_TRUE(p.sip.added.empty());
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
  // spot the paper's relaxation removes. The SIP list still flows.
  const BufferedWritePredictor strict(false);
  const auto p = strict.predict(cache, seconds(15));
  EXPECT_EQ(p.demand.total(), 0u);
  EXPECT_EQ(p.sip.added.size(), 30u);

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

/// With SIP tracking on, demand comes from the incremental interval
/// histogram instead of a per-page scan; at flusher-tick instants the two
/// paths must produce identical demand vectors (the histogram identity the
/// fast path relies on), in both flush models.
TEST(BufferedPredictorHistogram, MatchesScanPathAtTickInstants) {
  for (const bool relax : {true, false}) {
    host::PageCacheConfig cfg = fig4_config();
    cfg.tau_flush_fraction = 0.02;  // ~82 pages: strict's threshold engages
    host::PageCache scanned(cfg, kUniverse);
    host::PageCache tracked(cfg, kUniverse);
    tracked.enable_sip_tracking();

    auto write_both = [&](Lba lba, TimeUs t) {
      scanned.write(lba, t);
      tracked.write(lba, t);
    };
    // Writes straddling several intervals, with overwrites and a backlog of
    // already-expired pages (no tick ever drains them here).
    for (Lba lba = 0; lba < 60; ++lba) write_both(lba, seconds(1) + lba * 250000);
    for (Lba lba = 20; lba < 30; ++lba) write_both(lba, seconds(22));
    for (Lba lba = 200; lba < 260; ++lba) write_both(lba, seconds(33));

    const BufferedWritePredictor predictor(relax);
    for (const TimeUs now : {seconds(35), seconds(40), seconds(60), seconds(90)}) {
      const BufferedPrediction via_scan = predictor.predict(scanned, now);
      const BufferedPrediction via_histogram = predictor.predict(tracked, now);
      ASSERT_FALSE(via_scan.sip_is_delta);
      ASSERT_TRUE(via_histogram.sip_is_delta);
      ASSERT_EQ(via_scan.demand.values(), via_histogram.demand.values())
          << "relax=" << relax << " now=" << now;
      EXPECT_EQ(via_scan.sip_size, via_histogram.sip_size);
    }
  }
}

TEST(BufferedPredictorDelta, EmitsCacheDeltaAndFullSize) {
  host::PageCache cache(fig4_config(), kUniverse);
  cache.enable_sip_tracking();
  cache.write(7, seconds(1));
  cache.write(9, seconds(2));
  cache.commit_sip_checkpoint();  // 7 and 9 already delivered
  cache.write(11, seconds(3));
  cache.evict_oldest(1);  // writes back 7

  const BufferedWritePredictor predictor;
  const BufferedPrediction p = predictor.predict(cache, seconds(5));
  EXPECT_TRUE(p.sip_is_delta);
  EXPECT_EQ(p.sip.added, (std::vector<Lba>{11}));
  EXPECT_EQ(p.sip.removed, (std::vector<Lba>{7}));
  EXPECT_EQ(p.sip_size, cache.dirty_pages());  // wire cost: the full list
}

}  // namespace
}  // namespace jitgc::core
