#include "host/page_cache.h"

#include <algorithm>
#include <iterator>

#include "common/ensure.h"

namespace jitgc::host {

PageCache::PageCache(const PageCacheConfig& config) : config_(config) {
  JITGC_ENSURE_MSG(config_.flush_period > 0, "flusher period must be positive");
  JITGC_ENSURE_MSG(config_.tau_expire % config_.flush_period == 0,
                   "tau_expire must be a multiple of the flusher period (paper assumption)");
  JITGC_ENSURE_MSG(config_.tau_flush_fraction > 0.0 && config_.tau_flush_fraction <= 1.0,
                   "tau_flush fraction must be in (0, 1]");
  // Size the hash table for the working set up front; growing it page by
  // page rehashes repeatedly in the write hot path.
  const std::uint64_t max_resident = config_.capacity / config_.page_size;
  by_lba_.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(max_resident, 1u << 20)));
}

std::uint64_t PageCache::interval_key(TimeUs last_update) const {
  // ceil(last_update / p): the flusher interval whose tick first sees this
  // page at its current age.
  return static_cast<std::uint64_t>((last_update + config_.flush_period - 1) /
                                    config_.flush_period);
}

void PageCache::histogram_add(TimeUs last_update) {
  const std::uint64_t key = interval_key(last_update);
  if (hist_.empty()) {
    hist_base_ = key;
    hist_.push_back(1);
    return;
  }
  if (key < hist_base_) {
    hist_.insert(hist_.begin(), hist_base_ - key, 0);
    hist_base_ = key;
  } else if (key - hist_base_ >= hist_.size()) {
    hist_.resize(key - hist_base_ + 1, 0);
  }
  ++hist_[key - hist_base_];
}

void PageCache::histogram_remove(TimeUs last_update) {
  const std::uint64_t key = interval_key(last_update);
  JITGC_ENSURE(key >= hist_base_ && key - hist_base_ < hist_.size() &&
               hist_[key - hist_base_] > 0);
  --hist_[key - hist_base_];
  // Trim empty buckets off both ends; the window is only a handful of
  // buckets wide, so shifting it down is cheap.
  const auto first = std::find_if(hist_.begin(), hist_.end(), [](std::uint64_t c) { return c > 0; });
  hist_base_ += static_cast<std::uint64_t>(first - hist_.begin());
  hist_.erase(hist_.begin(), first);
  while (!hist_.empty() && hist_.back() == 0) hist_.pop_back();
}

std::map<std::uint64_t, std::uint64_t> PageCache::dirty_interval_histogram() const {
  std::map<std::uint64_t, std::uint64_t> out;
  for (std::size_t i = 0; i < hist_.size(); ++i) {
    if (hist_[i] > 0) out.emplace_hint(out.end(), hist_base_ + i, hist_[i]);
  }
  return out;
}

void PageCache::note_insert(Lba lba) {
  if (!sip_tracking_) return;
  const auto [it, inserted] = pending_.try_emplace(lba, true);
  // Removed then re-inserted within one interval: net no change.
  if (!inserted && !it->second) pending_.erase(it);
}

void PageCache::note_remove(Lba lba) {
  if (!sip_tracking_) return;
  const auto [it, inserted] = pending_.try_emplace(lba, false);
  // Inserted then removed within one interval: net no change.
  if (!inserted && it->second) pending_.erase(it);
}

SipDelta PageCache::pending_sip_delta() const {
  SipDelta delta;
  for (const auto& [lba, added] : pending_) {
    (added ? delta.added : delta.removed).push_back(lba);
  }
  std::sort(delta.added.begin(), delta.added.end());
  std::sort(delta.removed.begin(), delta.removed.end());
  return delta;
}

void PageCache::write(Lba lba, TimeUs now) {
  // The node goes after every page last updated at or before `now` (ties
  // keep insertion order): step back from the tail past newer pages only.
  auto pos = by_age_.end();
  while (pos != by_age_.begin() && std::prev(pos)->last_update > now) --pos;

  auto [it, inserted] = by_lba_.try_emplace(lba);
  histogram_add(now);
  if (inserted) {
    it->second = by_age_.insert(pos, DirtyPage{lba, now});
    note_insert(lba);
  } else {
    // Overwrite of dirty data: absorbed in RAM, age resets (Fig. 4's B -> B').
    histogram_remove(it->second->last_update);
    by_age_.splice(pos, by_age_, it->second);
    it->second->last_update = now;
    ++absorbed_;
  }
}

Lba PageCache::pop_oldest() {
  JITGC_ENSURE(!by_age_.empty());
  const DirtyPage oldest = by_age_.front();
  histogram_remove(oldest.last_update);
  by_age_.pop_front();
  by_lba_.erase(oldest.lba);
  note_remove(oldest.lba);
  ++pages_flushed_;
  return oldest.lba;
}

std::vector<Lba> PageCache::flusher_tick(TimeUs now, std::size_t max_pages) {
  std::vector<Lba> out;

  // Size the output once: fully-expired histogram buckets cover condition 1,
  // the bytes over the flush threshold cover condition 2 (take the larger —
  // condition 2 re-checks the total after condition 1's evictions).
  std::size_t expected = 0;
  if (now >= config_.tau_expire) {
    const std::uint64_t cutoff =
        static_cast<std::uint64_t>((now - config_.tau_expire) / config_.flush_period);
    for (std::size_t i = 0; i < hist_.size() && hist_base_ + i <= cutoff; ++i) {
      expected += hist_[i];
    }
  }
  const Bytes threshold = config_.tau_flush_bytes();
  if (dirty_bytes() > threshold) {
    expected = std::max<std::size_t>(
        expected, (dirty_bytes() - threshold + config_.page_size - 1) / config_.page_size);
  }
  out.reserve(std::min(expected, std::min(max_pages, by_age_.size())));

  // Condition 1: evict everything whose age reached tau_expire.
  while (!by_age_.empty() && out.size() < max_pages) {
    if (now - by_age_.front().last_update < config_.tau_expire) break;
    out.push_back(pop_oldest());
  }

  // Condition 2: dirty total above the flush threshold -> write back oldest
  // first until we are under it again.
  while (dirty_bytes() > config_.tau_flush_bytes() && out.size() < max_pages) {
    out.push_back(pop_oldest());
  }

  return out;
}

std::vector<Lba> PageCache::evict_oldest(std::size_t max_pages) {
  std::vector<Lba> out;
  out.reserve(std::min(max_pages, by_age_.size()));
  while (!by_age_.empty() && out.size() < max_pages) out.push_back(pop_oldest());
  return out;
}

std::vector<Lba> PageCache::flush_all() {
  std::vector<Lba> out;
  out.reserve(by_age_.size());
  while (!by_age_.empty()) out.push_back(pop_oldest());
  return out;
}

std::size_t PageCache::discard(Lba lba, std::uint64_t pages) {
  std::size_t discarded = 0;
  for (std::uint64_t i = 0; i < pages; ++i) {
    const auto it = by_lba_.find(lba + i);
    if (it == by_lba_.end()) continue;
    histogram_remove(it->second->last_update);
    by_age_.erase(it->second);
    by_lba_.erase(it);
    note_remove(lba + i);
    ++discarded;
  }
  return discarded;
}

std::vector<DirtyPage> PageCache::scan_dirty() const {
  std::vector<DirtyPage> out;
  out.reserve(by_age_.size());
  // A push_back loop rather than assign(begin, end): GCC 12 raises a false
  // -Waggressive-loop-optimizations on vector::assign from list iterators.
  for (const DirtyPage& page : by_age_) out.push_back(page);
  return out;
}

}  // namespace jitgc::host
