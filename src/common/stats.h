// Streaming statistics helpers for metrics collection.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

namespace jitgc {

/// Welford-style running summary: count / mean / min / max / stddev.
class RunningStats {
 public:
  void add(double x);

  std::uint64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double variance() const;
  double stddev() const;
  double sum() const { return sum_; }

  void clear();

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Reservoir-free latency recorder: keeps every sample (simulations are
/// bounded) and answers percentile queries by sorting on demand.
class PercentileTracker {
 public:
  void add(double x) { samples_.push_back(x); sorted_ = false; }

  std::size_t count() const { return samples_.size(); }

  /// Nearest-rank percentile, p in [0, 100].
  double percentile(double p) const;
  double mean() const;

  void clear() { samples_.clear(); sorted_ = false; }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

class Histogram;

/// Bounded-memory tail tracker: the scale-pass replacement for the
/// per-interval PercentileTrackers in the simulators (open-loop array runs
/// at high rates would otherwise store every latency sample).
///
/// Below `exact_cap` samples it keeps an exact (value -> count) table and
/// answers nearest-rank percentiles exactly like PercentileTracker
/// (bit-identical, so existing smoke/golden output is unchanged at smoke
/// scale). Simulated latencies are whole microseconds with heavy repetition,
/// so the table holds far fewer entries than samples. At the cap the table
/// folds into a fixed-bin common::Histogram and later queries interpolate
/// inside the crossing bin, so reported quantiles are within one bin width
/// (`bin_width`, default 100 us) of the exact value; values beyond the last
/// bin edge clamp into it, and percentile(100), mean() and count() stay
/// exact in both regimes. Memory is O(distinct values below the cap +
/// num_bins) regardless of how many samples arrive. NaN samples are
/// rejected; -0.0 and +0.0 are distinct values and -0.0 ranks first.
///
/// Direct counts: the exact table is an open-addressed hash. A tracker whose
/// table would grow past the size of a kDirectBound-entry u32 array (16 KiB)
/// switches to counting whole samples in [+0, kDirectBound) by index in that
/// array, so the common sample costs one increment instead of a hash probe;
/// fractional, negative, -0.0 and larger samples stay in the table. The
/// switch is taken, and kept, only while the array plus the remaining table
/// is no larger than the table alone would be, so exact-mode memory never
/// exceeds the table-only tracker's and sparse trackers (many-tenant runs)
/// never allocate the array. Answers do not depend on which store a value
/// sits in.
class TailTracker {
 public:
  explicit TailTracker(std::size_t exact_cap = 1 << 16, double bin_width = 100.0,
                       std::size_t num_bins = 1 << 13);

  /// Tracker sized for *run-level* latency tails (the whole measured run, not
  /// one interval): a 2^18-sample exact window so every smoke/test-scale run
  /// reports bit-identical quantiles to the unbounded PercentileTracker it
  /// replaced, folding to the bounded histogram (quantiles within one
  /// 100 us bin) only on multi-hundred-thousand-op runs. Below the fold the
  /// window costs 16 B per table slot (at most four slots per distinct
  /// value), not 8 B per sample.
  static TailTracker run_level() {
    return TailTracker(/*exact_cap=*/1 << 18, /*bin_width=*/100.0, /*num_bins=*/1 << 13);
  }
  ~TailTracker();
  TailTracker(TailTracker&&) noexcept;
  TailTracker& operator=(TailTracker&&) noexcept;

  /// Records one sample; throws std::logic_error on NaN.
  void add(double x) {
    // The common sample, inline: a repeat of a direct-counted value with no
    // fold due (so an earlier sample has already set min_ and max_).
    std::size_t k = 0;
    if (!direct_.empty() && n_ + 1 < exact_cap_ && direct_index(x, k) && direct_[k] != 0) {
      ++direct_[k];
      min_ = std::min(min_, x);
      max_ = std::max(max_, x);
      ++n_;
      sum_ += x;
      ranked_.clear();
      return;
    }
    add_sample(x);
  }

  std::uint64_t count() const { return n_; }

  /// Nearest-rank percentile while exact, histogram-interpolated after the
  /// fold; p in [0, 100]. percentile(100) is always the exact maximum.
  double percentile(double p) const;
  double mean() const { return n_ ? sum_ / static_cast<double>(n_) : 0.0; }

  /// True once the tracker folded into histogram (bounded-error) mode.
  bool histogram_mode() const { return hist_ != nullptr; }
  /// True while whole samples below kDirectBound are counted by index.
  bool direct_mode() const { return !direct_.empty(); }
  /// Bytes held by the exact-mode stores (table plus direct array).
  std::size_t exact_bytes() const {
    return table_.size() * sizeof(Slot) + direct_.size() * sizeof(std::uint32_t);
  }

  /// Whole samples below this many microseconds are direct-counted.
  static constexpr std::size_t kDirectBound = 4096;

  /// Drops all samples and returns to exact mode; keeps the table's
  /// capacity, since interval trackers are cleared every tick.
  void clear();

 private:
  /// One exact-table entry; count == 0 marks an empty slot.
  struct Slot {
    double value = 0.0;
    std::uint64_t count = 0;
  };

  /// The direct-array index of `x` when `x` is a whole sample in
  /// [+0, kDirectBound); -0.0 is excluded, so it keeps its own table key.
  static bool direct_index(double x, std::size_t& k) {
    if (!(x >= 0.0 && x < static_cast<double>(kDirectBound))) return false;
    k = static_cast<std::size_t>(x);
    return static_cast<double>(k) == x && !std::signbit(x);
  }
  /// add() for every other sample.
  void add_sample(double x);
  /// Index of the slot holding `x`, or of the empty slot where it belongs.
  std::size_t probe(double x) const;
  /// Counts one sample in the direct array or the table.
  void count(double x);
  /// Makes room for `x`, a value new to a full table: doubles the table, or
  /// switches direct counting on or off where that keeps memory lower.
  void grow_for(double x);
  /// Moves the table's entries into a `slots`-slot table, or into the
  /// direct array where direct mode counts them.
  void rehash(std::size_t slots);

  std::size_t exact_cap_;
  double bin_width_;
  std::size_t num_bins_;
  /// Open-addressed, linearly probed, power-of-two size, at most half full.
  std::vector<Slot> table_;
  std::size_t distinct_ = 0;
  /// Direct counts by whole-microsecond value; empty unless in direct mode.
  std::vector<std::uint32_t> direct_;
  std::size_t direct_distinct_ = 0;
  /// In direct mode: the table size a table-only tracker would have now
  /// (the memory bound direct mode must stay within).
  std::size_t shadow_slots_ = 0;
  /// Occupied slots in ascending value order with `count` replaced by the
  /// cumulative count; emptied by add() and rebuilt by the next percentile().
  mutable std::vector<Slot> ranked_;
  std::unique_ptr<Histogram> hist_;  ///< allocated lazily at the fold
  std::uint64_t n_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace jitgc
