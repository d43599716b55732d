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
constexpr std::size_t kDirectBytes = TailTracker::kDirectBound * sizeof(std::uint32_t);

/// Table size for `distinct` values under the growth rule (at most half full).
std::size_t slots_for(std::size_t distinct) {
  std::size_t slots = kMinTableSlots;
  while (2 * distinct > slots) slots *= 2;
  return slots;
}

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

void TailTracker::rehash(std::size_t slots) {
  std::vector<Slot> old(slots);
  old.swap(table_);
  distinct_ = 0;
  std::size_t k = 0;
  for (const Slot& slot : old) {
    if (slot.count == 0) continue;
    if (!direct_.empty() && direct_index(slot.value, k)) {
      direct_[k] = static_cast<std::uint32_t>(slot.count);
      ++direct_distinct_;
    } else {
      table_[probe(slot.value)] = slot;
      ++distinct_;
    }
  }
}

void TailTracker::grow_for(double x) {
  const std::size_t doubled = 2 * table_.size();
  if (direct_.empty()) {
    // The table-only tracker would double to `doubled` slots here. Past the
    // direct array's size, switch if the array plus a table of what is not
    // direct-countable (x included) comes out no larger.
    if (doubled * sizeof(Slot) > kDirectBytes && exact_cap_ <= UINT32_MAX) {
      std::size_t k = 0;
      std::size_t rest = direct_index(x, k) ? 0 : 1;
      for (const Slot& slot : table_) {
        if (slot.count != 0 && !direct_index(slot.value, k)) ++rest;
      }
      const std::size_t slots = slots_for(rest);
      if (kDirectBytes + slots * sizeof(Slot) <= doubled * sizeof(Slot)) {
        shadow_slots_ = table_.size();
        direct_.assign(kDirectBound, 0);
        rehash(slots);
        return;
      }
    }
    rehash(doubled);
    return;
  }
  // Direct mode: keep it while the array plus the doubled table stays
  // within the table-only size once `x` is counted; otherwise move the
  // direct counts back into a table of exactly that size.
  const bool shadow_grows = 2 * (distinct_ + direct_distinct_ + 1) > shadow_slots_;
  const std::size_t shadow = shadow_grows ? 2 * shadow_slots_ : shadow_slots_;
  if (kDirectBytes + doubled * sizeof(Slot) <= shadow * sizeof(Slot)) {
    rehash(doubled);
    return;
  }
  rehash(shadow);
  for (std::size_t v = 0; v < direct_.size(); ++v) {
    const auto value = static_cast<double>(v);
    if (direct_[v] != 0) table_[probe(value)] = Slot{value, direct_[v]};
  }
  distinct_ += direct_distinct_;
  direct_ = {};
  direct_distinct_ = 0;
}

void TailTracker::count(double x) {
  std::size_t k = 0;
  if (!direct_.empty() && direct_index(x, k)) {
    if (direct_[k]++ != 0) return;
    ++direct_distinct_;
  } else {
    if (table_.empty()) table_.resize(kMinTableSlots);
    const std::size_t i = probe(x);
    if (table_[i].count != 0) {
      ++table_[i].count;
      return;
    }
    if (2 * (distinct_ + 1) > table_.size()) {
      grow_for(x);
      count(x);  // x may now be direct-counted; either store has room for it
      return;
    }
    table_[i] = Slot{x, 1};
    ++distinct_;
  }
  // A new distinct value: the table-only tracker's table may double here.
  if (!direct_.empty() && 2 * (distinct_ + direct_distinct_) > shadow_slots_) {
    shadow_slots_ *= 2;
  }
}

void TailTracker::add_sample(double x) {
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
  count(x);
  ranked_.clear();
  if (n_ >= exact_cap_) {
    // Fold: every recorded sample moves into the histogram; from here on
    // quantiles are bounded-error instead of exact.
    hist_ = std::make_unique<Histogram>(bin_width_, num_bins_);
    for (const Slot& slot : table_) {
      for (std::uint64_t c = 0; c < slot.count; ++c) hist_->add(slot.value);
    }
    for (std::size_t v = 0; v < direct_.size(); ++v) {
      for (std::uint32_t c = 0; c < direct_[v]; ++c) hist_->add(static_cast<double>(v));
    }
    table_ = {};
    distinct_ = 0;
    direct_ = {};
    direct_distinct_ = 0;
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
      const auto by_rank = [](const Slot& a, const Slot& b) {
        return ranks_before(a.value, b.value);
      };
      std::sort(ranked_.begin(), ranked_.end(), by_rank);
      if (!direct_.empty()) {
        // The direct counts are already in value order; no value is in both.
        const auto hashed = static_cast<std::ptrdiff_t>(ranked_.size());
        for (std::size_t v = 0; v < direct_.size(); ++v) {
          if (direct_[v] != 0) ranked_.push_back(Slot{static_cast<double>(v), direct_[v]});
        }
        std::inplace_merge(ranked_.begin(), ranked_.begin() + hashed, ranked_.end(), by_rank);
      }
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
  if (direct_distinct_ != 0) std::fill(direct_.begin(), direct_.end(), 0);
  distinct_ = 0;
  direct_distinct_ = 0;
  ranked_.clear();
  hist_.reset();
  n_ = 0;
  sum_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
}

}  // namespace jitgc
