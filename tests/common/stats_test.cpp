#include "common/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "common/histogram.h"
#include "common/rng.h"

namespace jitgc {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 3.5);
  EXPECT_EQ(s.max(), 3.5);
}

TEST(RunningStats, ClearResets) {
  RunningStats s;
  s.add(1.0);
  s.clear();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.sum(), 0.0);
}

TEST(PercentileTracker, EmptyIsZero) {
  PercentileTracker t;
  EXPECT_EQ(t.percentile(50), 0.0);
  EXPECT_EQ(t.mean(), 0.0);
}

TEST(PercentileTracker, NearestRank) {
  PercentileTracker t;
  for (int i = 1; i <= 100; ++i) t.add(static_cast<double>(i));
  EXPECT_EQ(t.percentile(50), 50.0);
  EXPECT_EQ(t.percentile(99), 99.0);
  EXPECT_EQ(t.percentile(100), 100.0);
  EXPECT_EQ(t.percentile(1), 1.0);
  EXPECT_EQ(t.percentile(0), 1.0);  // lowest sample
  EXPECT_DOUBLE_EQ(t.mean(), 50.5);
}

TEST(PercentileTracker, UnsortedInput) {
  PercentileTracker t;
  for (double v : {9.0, 1.0, 5.0, 3.0, 7.0}) t.add(v);
  EXPECT_EQ(t.percentile(100), 9.0);
  EXPECT_EQ(t.percentile(20), 1.0);
}

TEST(PercentileTracker, AddAfterQueryResorts) {
  PercentileTracker t;
  t.add(5.0);
  EXPECT_EQ(t.percentile(100), 5.0);
  t.add(10.0);
  EXPECT_EQ(t.percentile(100), 10.0);
}

TEST(PercentileTracker, OutOfRangeThrows) {
  PercentileTracker t;
  t.add(1.0);
  EXPECT_THROW(t.percentile(-1.0), std::logic_error);
  EXPECT_THROW(t.percentile(100.5), std::logic_error);
}

TEST(TailTracker, ExactModeIsBitIdenticalToPercentileTracker) {
  // Below the sample cap the TailTracker IS a PercentileTracker: same
  // nearest-rank answers, so swapping one in changes no metrics output
  // until an interval actually overflows the cap.
  TailTracker t(/*exact_cap=*/1024);
  PercentileTracker reference;
  for (int i = 0; i < 500; ++i) {
    const double v = static_cast<double>((i * 7919) % 1000) + 0.25;
    t.add(v);
    reference.add(v);
  }
  EXPECT_FALSE(t.histogram_mode());
  for (const double p : {0.0, 20.0, 50.0, 99.0, 99.9, 100.0}) {
    EXPECT_EQ(t.percentile(p), reference.percentile(p)) << "p" << p;
  }
  EXPECT_DOUBLE_EQ(t.mean(), reference.mean());
  EXPECT_EQ(t.count(), reference.count());
}

TEST(TailTracker, FoldsAtTheCapWithBoundedQuantileError) {
  TailTracker t(/*exact_cap=*/64, /*bin_width=*/100.0);
  PercentileTracker reference;
  for (int i = 0; i < 5000; ++i) {
    const double v = static_cast<double>((i * 104729) % 100000);
    t.add(v);
    reference.add(v);
  }
  EXPECT_TRUE(t.histogram_mode());
  EXPECT_EQ(t.count(), 5000u);
  // Extremes and the mean stay exact through the fold.
  EXPECT_EQ(t.percentile(100.0), reference.percentile(100.0));
  EXPECT_DOUBLE_EQ(t.mean(), reference.mean());
  // Interior quantiles are bin-resolution approximations: within one bin.
  for (const double p : {50.0, 90.0, 99.0, 99.9}) {
    EXPECT_NEAR(t.percentile(p), reference.percentile(p), 100.0) << "p" << p;
  }
}

TEST(TailTracker, ClearReturnsToExactMode) {
  TailTracker t(/*exact_cap=*/4);
  for (const double v : {1.0, 2.0, 3.0, 4.0, 5.0, 6.0}) t.add(v);
  EXPECT_TRUE(t.histogram_mode());
  t.clear();
  EXPECT_FALSE(t.histogram_mode());
  EXPECT_EQ(t.count(), 0u);
  EXPECT_EQ(t.percentile(99.0), 0.0);
  t.add(7.0);
  EXPECT_EQ(t.percentile(50.0), 7.0);
}

TEST(TailTracker, RejectsNaN) {
  TailTracker t;
  t.add(5.0);
  EXPECT_THROW(t.add(std::numeric_limits<double>::quiet_NaN()), std::logic_error);
  EXPECT_EQ(t.count(), 1u);
  EXPECT_EQ(t.percentile(50.0), 5.0);
}

TEST(TailTracker, SignedZerosAreDistinctKeys) {
  // -0.0 == +0.0, but each keeps its own count and bit pattern; -0.0 ranks
  // first, so both signs read back at the ranks their counts give them.
  TailTracker t;
  for (int i = 0; i < 3; ++i) t.add(0.0);
  t.add(-0.0);
  EXPECT_EQ(t.percentile(25.0), 0.0);
  EXPECT_TRUE(std::signbit(t.percentile(25.0)));
  EXPECT_FALSE(std::signbit(t.percentile(50.0)));
  EXPECT_FALSE(std::signbit(t.percentile(99.0)));

  TailTracker negative;
  for (int i = 0; i < 3; ++i) negative.add(-0.0);
  EXPECT_TRUE(std::signbit(negative.percentile(0.0)));
  EXPECT_TRUE(std::signbit(negative.percentile(50.0)));
}

constexpr double kQueryPercentiles[] = {0.0, 0.1, 1.0, 50.0, 99.0, 99.9, 100.0};

/// Whole-microsecond latencies with a long tail: most samples repeat a few
/// hundred distinct values, like the simulators' completion latencies.
double integer_latency(Rng& rng) { return std::floor(rng.exponential(150.0)) + 20.0; }

/// Same shape at quarter-microsecond resolution.
double fractional_latency(Rng& rng) {
  return std::floor(rng.exponential(150.0)) + 20.0 + 0.25 * static_cast<double>(rng.uniform(4));
}

void expect_matches_reference(double (*draw)(Rng&)) {
  TailTracker t(/*exact_cap=*/1 << 16);
  PercentileTracker reference;
  Rng rng(2024);
  for (int round = 0; round < 3; ++round) {
    // Each round exercises a tracker reused after clear(), as interval
    // trackers are every tick; queries interleave with the adds.
    for (int i = 1; i <= 6000; ++i) {
      const double v = draw(rng);
      t.add(v);
      reference.add(v);
      if (i % 997 == 0 || i <= 3) {
        for (const double p : kQueryPercentiles) {
          ASSERT_EQ(t.percentile(p), reference.percentile(p))
              << "round " << round << " n " << i << " p" << p;
        }
      }
    }
    EXPECT_FALSE(t.histogram_mode());
    for (const double p : kQueryPercentiles) {
      ASSERT_EQ(t.percentile(p), reference.percentile(p)) << "round " << round << " p" << p;
    }
    EXPECT_EQ(t.count(), reference.count());
    t.clear();
    reference.clear();
    EXPECT_EQ(t.percentile(50.0), 0.0);
  }
}

TEST(TailTracker, IntegerStreamMatchesPercentileTracker) {
  expect_matches_reference(integer_latency);
}

TEST(TailTracker, FractionalStreamMatchesPercentileTracker) {
  expect_matches_reference(fractional_latency);
}

TEST(TailTracker, FoldedAnswersEqualClampedHistogram) {
  // From the fold on, answers are exactly the clamped interpolation of a
  // histogram fed every sample: folding the (value -> count) table loses
  // nothing the histogram would have kept.
  constexpr std::size_t kCap = 1024;
  TailTracker t(kCap, /*bin_width=*/100.0, /*num_bins=*/64);
  Histogram h(/*bin_width=*/100.0, /*num_bins=*/64);
  Rng rng(7);
  double lo = 0.0;
  double hi = 0.0;
  for (std::size_t i = 1; i <= 3 * kCap; ++i) {
    const double v = integer_latency(rng);
    lo = i == 1 ? v : std::min(lo, v);
    hi = i == 1 ? v : std::max(hi, v);
    t.add(v);
    h.add(v);
    EXPECT_EQ(t.histogram_mode(), i >= kCap);
    if (i < kCap || (i != kCap && i % 200 != 0)) continue;
    EXPECT_EQ(t.percentile(0.0), lo);
    EXPECT_EQ(t.percentile(100.0), hi);
    for (const double p : {0.1, 1.0, 50.0, 99.0, 99.9}) {
      EXPECT_EQ(t.percentile(p), std::min(std::max(h.value_at_quantile(p / 100.0), lo), hi))
          << "n " << i << " p" << p;
    }
  }
}

/// Whole samples below, at and above the direct bound, fractions, both
/// zeros, negatives and very large values. `whole_pct` percent are whole
/// samples below the bound, the next `fraction_pct` percent near-unique
/// fractions on both sides of it.
double around_direct_bound(Rng& rng, std::uint64_t whole_pct, std::uint64_t fraction_pct) {
  constexpr std::uint64_t kBound = TailTracker::kDirectBound;
  const std::uint64_t r = rng.uniform(100);
  if (r < whole_pct) return static_cast<double>(rng.uniform(kBound));
  if (r < whole_pct + fraction_pct) return static_cast<double>(rng.uniform(1 << 16)) + 0.5;
  switch (rng.uniform(8)) {
    case 0: return static_cast<double>(kBound - 1 + rng.uniform(3));  // bound - 1, bound, + 1
    case 1: return static_cast<double>(kBound) - 0.25;
    case 2: return 0.0;
    case 3: return -0.0;
    case 4: return -static_cast<double>(1 + rng.uniform(100));
    case 5: return 0.25 * static_cast<double>(1 + rng.uniform(3));
    case 6: return 1e15 + static_cast<double>(rng.uniform(1000));
    default: return 1e300;
  }
}

/// Same value and same sign: EXPECT_EQ alone treats -0.0 and +0.0 as equal.
bool same_bits(double a, double b) {
  std::uint64_t x = 0;
  std::uint64_t y = 0;
  std::memcpy(&x, &a, sizeof x);
  std::memcpy(&y, &b, sizeof y);
  return x == y;
}

/// PercentileTracker's answers with TailTracker's signed-zero rule: its
/// std::sort leaves -0.0 and +0.0 in either order, so the sign of a zero
/// answer comes from a nearest-rank lookup that ranks -0.0 first.
class SignedZeroReference {
 public:
  void add(double x) {
    reference_.add(x);
    samples_.push_back(x);
  }
  double percentile(double p) const {
    const double value = reference_.percentile(p);
    if (value != 0.0) return value;
    std::vector<double> sorted = samples_;
    std::sort(sorted.begin(), sorted.end(), [](double a, double b) {
      return a < b || (a == b && std::signbit(a) && !std::signbit(b));
    });
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * sorted.size()));
    return sorted[rank == 0 ? 0 : rank - 1];
  }
  double mean() const { return reference_.mean(); }
  std::size_t count() const { return reference_.count(); }

 private:
  PercentileTracker reference_;
  std::vector<double> samples_;
};

/// The exact table of a tracker without direct counts: 16-byte (value,
/// count) slots, 16 to start, doubled whenever it would pass half full,
/// capacity kept across clear(), freed at the fold.
struct TableOnlyMemory {
  std::size_t slots = 0;
  std::unordered_set<std::uint64_t> keys;

  void add(double x) {
    if (slots == 0) slots = 16;
    std::uint64_t key = 0;
    std::memcpy(&key, &x, sizeof key);
    if (keys.insert(key).second && 2 * keys.size() > slots) slots *= 2;
  }
  std::size_t bytes() const { return slots * 16; }
};

TEST(TailTracker, DirectCountsMatchPercentileTracker) {
  // Three intervals through one tracker, cleared between them as interval
  // trackers are: mostly whole samples (direct counting switches on), then
  // mostly unique fractions (the table outgrows the direct array, so the
  // counts move back into one table), then a mix. Every answer is
  // bit-identical to PercentileTracker and memory never exceeds the
  // table-only tracker's. (PercentileTracker answers the value; the sign of
  // a zero answer follows TailTracker's -0.0-first rule.)
  constexpr std::uint64_t kMix[][2] = {{90, 5}, {5, 90}, {45, 45}};
  TailTracker t(/*exact_cap=*/1 << 16);
  TableOnlyMemory table_only;
  Rng rng(25);
  bool switched_on = false;
  bool switched_off = false;
  for (const auto& [whole_pct, fraction_pct] : kMix) {
    SignedZeroReference reference;
    table_only.keys.clear();
    for (int i = 1; i <= 8000; ++i) {
      const double v = around_direct_bound(rng, whole_pct, fraction_pct);
      const bool was_direct = t.direct_mode();
      t.add(v);
      reference.add(v);
      table_only.add(v);
      switched_on = switched_on || (!was_direct && t.direct_mode());
      switched_off = switched_off || (was_direct && !t.direct_mode());
      ASSERT_LE(t.exact_bytes(), table_only.bytes()) << "n " << i;
      if (i % 661 == 0 || i <= 3) {
        for (const double p : kQueryPercentiles) {
          ASSERT_TRUE(same_bits(t.percentile(p), reference.percentile(p)))
              << "n " << i << " p" << p << ": " << t.percentile(p) << " vs "
              << reference.percentile(p);
        }
      }
    }
    EXPECT_FALSE(t.histogram_mode());
    for (const double p : {0.0, 0.01, 5.0, 25.0, 50.0, 75.0, 99.0, 99.99, 100.0}) {
      ASSERT_TRUE(same_bits(t.percentile(p), reference.percentile(p))) << "p" << p;
    }
    EXPECT_EQ(t.mean(), reference.mean());
    EXPECT_EQ(t.count(), reference.count());
    t.clear();
    EXPECT_EQ(t.percentile(50.0), 0.0);
    EXPECT_EQ(t.mean(), 0.0);
  }
  EXPECT_TRUE(switched_on);
  EXPECT_TRUE(switched_off);
}

TEST(TailTracker, DirectCountsFoldIntoTheHistogram) {
  // Crossing the fold in direct mode: the direct counts reach the histogram
  // with the table's, both stores are freed, and clear() returns to an
  // exact tracker that again matches PercentileTracker.
  constexpr std::size_t kCap = 4000;
  TailTracker t(kCap, /*bin_width=*/100.0, /*num_bins=*/64);
  Histogram h(/*bin_width=*/100.0, /*num_bins=*/64);
  Rng rng(26);
  double lo = 0.0;
  double hi = 0.0;
  for (std::size_t i = 1; i <= 2 * kCap; ++i) {
    const double v = around_direct_bound(rng, 90, 5);
    lo = i == 1 ? v : std::min(lo, v);
    hi = i == 1 ? v : std::max(hi, v);
    t.add(v);
    h.add(v);
    if (i == kCap - 1) {
      EXPECT_TRUE(t.direct_mode());
    }
  }
  EXPECT_TRUE(t.histogram_mode());
  EXPECT_FALSE(t.direct_mode());
  EXPECT_EQ(t.exact_bytes(), 0u);
  EXPECT_EQ(t.percentile(0.0), lo);
  EXPECT_EQ(t.percentile(100.0), hi);
  for (const double p : {0.1, 1.0, 50.0, 99.0, 99.9}) {
    EXPECT_EQ(t.percentile(p), std::min(std::max(h.value_at_quantile(p / 100.0), lo), hi))
        << "p" << p;
  }

  t.clear();
  SignedZeroReference reference;
  for (int i = 0; i < 3000; ++i) {
    const double v = around_direct_bound(rng, 90, 5);
    t.add(v);
    reference.add(v);
  }
  EXPECT_FALSE(t.histogram_mode());
  for (const double p : kQueryPercentiles) {
    EXPECT_TRUE(same_bits(t.percentile(p), reference.percentile(p))) << "p" << p;
  }
}

TEST(TailTracker, SparseTrackerAllocatesNoDirectArray) {
  // A tracker with a few hundred distinct samples (one tenant's interval in
  // a many-tenant run) keeps its small table: the 16 KiB direct array is
  // allocated only once the table would outgrow it.
  TailTracker t = TailTracker::run_level();
  for (int i = 0; i < 2000; ++i) t.add(static_cast<double>(20 + i % 200));
  EXPECT_FALSE(t.direct_mode());
  EXPECT_EQ(t.exact_bytes(), 512u * 16u);  // 200 distinct values, at most half full
  for (int i = 0; i < 400; ++i) t.add(static_cast<double>(300 + i));
  EXPECT_TRUE(t.direct_mode());  // 600 distinct: a 2048-slot table would hold 32 KiB
  EXPECT_LT(t.exact_bytes(), 2048u * 16u);
}

}  // namespace
}  // namespace jitgc
