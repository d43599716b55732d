// Property tests on the buffered-write predictor and the combined
// FutureWriteDemandPredictor, over randomized page-cache states.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "common/rng.h"
#include "core/predictor.h"

namespace jitgc::core {
namespace {

constexpr Lba kUniverse = 8192;

host::PageCacheConfig cache_config() {
  host::PageCacheConfig cfg;
  cfg.page_size = 4 * KiB;
  cfg.capacity = 64 * MiB;
  cfg.tau_expire = seconds(30);
  cfg.tau_flush_fraction = 1.0;  // isolate the expiry path
  cfg.flush_period = seconds(5);
  return cfg;
}

class PredictorPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

/// Relaxed-mode invariant: the demand vector's total equals the dirty bytes
/// exactly — the predictor never invents or loses demand.
TEST_P(PredictorPropertyTest, DemandTotalEqualsDirtyBytes) {
  host::PageCache cache(cache_config(), kUniverse);
  Rng rng(GetParam());
  TimeUs now = 0;
  const BufferedWritePredictor predictor;

  for (int tick = 1; tick <= 12; ++tick) {
    const TimeUs tick_time = tick * seconds(5);
    // Random writes spread through the interval.
    const int writes = static_cast<int>(rng.uniform(400));
    for (int i = 0; i < writes; ++i) {
      const TimeUs t = now + static_cast<TimeUs>(rng.uniform(seconds(5)));
      cache.write(rng.uniform(4096), t);
    }
    now = tick_time;
    cache.flusher_tick(now);

    const BufferedPrediction p = predictor.predict(cache, now);
    ASSERT_EQ(p.demand.total(), cache.dirty_bytes());
    ASSERT_EQ(p.stream_pages[0], cache.dirty_pages());
    // Construction is the first SIP checkpoint: the pending delta is the
    // whole dirty set, net of every page that came and went since.
    const host::SipDelta sip = cache.pending_sip_delta();
    ASSERT_EQ(sip.added.size(), cache.dirty_pages());
    ASSERT_TRUE(sip.removed.empty());
  }
}

/// The SIP list the host sends from a fresh checkpoint is exactly the dirty
/// set (no duplicates, nothing else).
TEST_P(PredictorPropertyTest, SipListIsTheDirtySet) {
  host::PageCache cache(cache_config(), kUniverse);
  Rng rng(GetParam() ^ 0x51u);
  for (int i = 0; i < 500; ++i) {
    cache.write(rng.uniform(1000), static_cast<TimeUs>(rng.uniform(seconds(4))));
  }
  const host::SipDelta sip = cache.pending_sip_delta();

  std::unordered_set<Lba> unique(sip.added.begin(), sip.added.end());
  EXPECT_EQ(unique.size(), sip.added.size());  // no duplicates
  for (const Lba lba : unique) EXPECT_TRUE(cache.is_dirty(lba));
  EXPECT_EQ(unique.size(), cache.dirty_pages());
  EXPECT_TRUE(sip.removed.empty());
}

/// Without new writes, demand moves strictly toward the near horizon as
/// time advances: whatever was predicted for interval i at time t must be
/// predicted for interval i-1 at time t+p.
TEST_P(PredictorPropertyTest, DemandShiftsForwardOverTime) {
  host::PageCache cache(cache_config(), kUniverse);
  Rng rng(GetParam() ^ 0x77u);
  for (int i = 0; i < 300; ++i) {
    cache.write(rng.uniform(5000), static_cast<TimeUs>(rng.uniform(seconds(5))));
  }
  const BufferedWritePredictor predictor;

  cache.flusher_tick(seconds(5));
  const BufferedPrediction before = predictor.predict(cache, seconds(5));
  // Advance one tick with no writes; the tick may flush expired data.
  cache.flusher_tick(seconds(10));
  const BufferedPrediction after = predictor.predict(cache, seconds(10));

  for (std::uint32_t i = 2; i <= before.demand.nwb(); ++i) {
    EXPECT_EQ(after.demand.at(i - 1), before.demand.at(i)) << "slot " << i;
  }
  EXPECT_EQ(after.demand.at(after.demand.nwb()), 0u);  // nothing new appeared
}

/// The combined predictor's C_req equals D_buf + D_dir and is monotone in
/// added direct-traffic history.
TEST_P(PredictorPropertyTest, CombinedPredictionComposes) {
  PredictorConfig cfg;
  cfg.cdh.bin_width = 1 * MiB;
  cfg.cdh.num_bins = 256;
  cfg.cdh.intervals_per_window = 6;
  FutureWriteDemandPredictor predictor(cfg);

  host::PageCache cache(cache_config(), kUniverse);
  Rng rng(GetParam() ^ 0x99u);
  for (int i = 0; i < 200; ++i) cache.write(rng.uniform(1000), seconds(2));

  const Prediction no_direct = predictor.predict(cache, seconds(5));
  EXPECT_EQ(no_direct.direct.total(), 0u);
  EXPECT_EQ(no_direct.required_capacity(), no_direct.buffered.total());

  // Feed a steady direct history; the direct component must appear.
  for (int i = 0; i < 12; ++i) predictor.observe_direct_interval(2 * MiB);
  const Prediction with_direct = predictor.predict(cache, seconds(5));
  EXPECT_GT(with_direct.direct.total(), 0u);
  EXPECT_EQ(with_direct.required_capacity(),
            with_direct.buffered.total() + with_direct.direct.total());
  EXPECT_EQ(with_direct.buffered.values(), no_direct.buffered.values());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PredictorPropertyTest,
                         ::testing::Values(1u, 7u, 1234u, 0xDEADBEEFu));

}  // namespace
}  // namespace jitgc::core
