#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "common/ensure.h"
#include "common/histogram.h"

namespace jitgc {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void RunningStats::clear() { *this = RunningStats{}; }

double PercentileTracker::percentile(double p) const {
  JITGC_ENSURE_MSG(p >= 0.0 && p <= 100.0, "percentile must be in [0, 100]");
  if (samples_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * samples_.size()));
  return samples_[rank == 0 ? 0 : rank - 1];
}

double PercentileTracker::mean() const {
  if (samples_.empty()) return 0.0;
  return std::accumulate(samples_.begin(), samples_.end(), 0.0) / samples_.size();
}

namespace {

/// splitmix64's finalizer. Whole-microsecond latencies have all-zero low
/// mantissa bits, so the hash must mix every key bit into the low (index)
/// bits; a plain multiply-shift of the bits leaves long probe chains.
std::uint64_t mix64(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::uint64_t bits_of(double x) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof bits);
  return bits;
}

/// Ascending value order with -0.0 before +0.0: a total order on non-NaN
/// doubles, so the two zero keys rank deterministically.
bool ranks_before(double a, double b) {
  return a < b || (a == b && std::signbit(a) && !std::signbit(b));
}

constexpr std::size_t kMinTableSlots = 16;

}  // namespace

TailTracker::TailTracker(std::size_t exact_cap, double bin_width, std::size_t num_bins)
    : exact_cap_(exact_cap), bin_width_(bin_width), num_bins_(num_bins) {
  JITGC_ENSURE_MSG(exact_cap_ >= 1, "exact cap must be at least one sample");
}

TailTracker::~TailTracker() = default;
TailTracker::TailTracker(TailTracker&&) noexcept = default;
TailTracker& TailTracker::operator=(TailTracker&&) noexcept = default;

std::size_t TailTracker::probe(double x) const {
  const std::uint64_t key = bits_of(x);
  const std::size_t mask = table_.size() - 1;
  std::size_t i = mix64(key) & mask;
  while (table_[i].count != 0 && bits_of(table_[i].value) != key) i = (i + 1) & mask;
  return i;
}

void TailTracker::grow_table() {
  std::vector<Slot> old(std::max(kMinTableSlots, 2 * table_.size()));
  old.swap(table_);
  for (const Slot& slot : old) {
    if (slot.count != 0) table_[probe(slot.value)] = slot;
  }
}

void TailTracker::add(double x) {
  JITGC_ENSURE_MSG(!std::isnan(x), "latency sample is NaN");
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;

  if (hist_ != nullptr) {
    hist_->add(x);
    return;
  }
  if (table_.empty()) grow_table();
  std::size_t i = probe(x);
  if (table_[i].count == 0) {
    if (2 * (distinct_ + 1) > table_.size()) {
      grow_table();
      i = probe(x);
    }
    table_[i].value = x;
    ++distinct_;
  }
  ++table_[i].count;
  ranked_.clear();
  if (n_ >= exact_cap_) {
    // Fold: every recorded sample moves into the histogram; from here on
    // quantiles are bounded-error instead of exact.
    hist_ = std::make_unique<Histogram>(bin_width_, num_bins_);
    for (const Slot& slot : table_) {
      for (std::uint64_t c = 0; c < slot.count; ++c) hist_->add(slot.value);
    }
    table_ = {};
    distinct_ = 0;
    ranked_ = {};
  }
}

double TailTracker::percentile(double p) const {
  JITGC_ENSURE_MSG(p >= 0.0 && p <= 100.0, "percentile must be in [0, 100]");
  if (n_ == 0) return 0.0;
  if (p >= 100.0) return max_;  // the maximum is tracked exactly in both modes
  if (hist_ == nullptr) {
    // Exact regime: nearest rank over the cumulative counts, bit-identical
    // to PercentileTracker's sorted-sample lookup.
    if (ranked_.empty()) {
      for (const Slot& slot : table_) {
        if (slot.count != 0) ranked_.push_back(slot);
      }
      std::sort(ranked_.begin(), ranked_.end(),
                [](const Slot& a, const Slot& b) { return ranks_before(a.value, b.value); });
      std::uint64_t cumulative = 0;
      for (Slot& slot : ranked_) slot.count = cumulative += slot.count;
    }
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::ceil(p / 100.0 * static_cast<double>(n_))));
    const auto it = std::lower_bound(
        ranked_.begin(), ranked_.end(), rank,
        [](const Slot& slot, std::uint64_t r) { return slot.count < r; });
    JITGC_ENSURE(it != ranked_.end());
    return it->value;
  }
  if (p <= 0.0) return min_;
  // Interpolation can overshoot the true extremes inside the crossing bin;
  // clamp to the exact observed range.
  return std::min(std::max(hist_->value_at_quantile(p / 100.0), min_), max_);
}

void TailTracker::clear() {
  if (distinct_ != 0) std::fill(table_.begin(), table_.end(), Slot{});
  distinct_ = 0;
  ranked_.clear();
  hist_.reset();
  n_ = 0;
  sum_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
}

}  // namespace jitgc
