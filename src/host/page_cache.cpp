#include "host/page_cache.h"

#include <algorithm>
#include <new>
#include <string>

#include "common/ensure.h"

namespace jitgc::host {

LbaPartitions LbaPartitions::equal_share(Lba universe, std::uint32_t count) {
  JITGC_ENSURE_MSG(count > 0, "an LBA partitioning needs at least one partition");
  JITGC_ENSURE_MSG(universe >= count, "LBA space too small to partition");
  return LbaPartitions{.share = universe / count, .count = count};
}

void IntervalHistogram::add(std::uint64_t key) {
  ++pages_;
  if (counts_.empty()) {
    base_ = key;
    counts_.push_back(1);
    return;
  }
  if (key < base_) {
    counts_.insert(counts_.begin(), base_ - key, 0);
    base_ = key;
  } else if (key - base_ >= counts_.size()) {
    counts_.resize(key - base_ + 1, 0);
  }
  ++counts_[key - base_];
}

void IntervalHistogram::remove(std::uint64_t key) {
  JITGC_ENSURE(key >= base_ && key - base_ < counts_.size() && counts_[key - base_] > 0);
  --pages_;
  --counts_[key - base_];
  // Trim empty buckets off both ends; the window is only a handful of
  // buckets wide, so shifting it down is cheap.
  const auto first =
      std::find_if(counts_.begin(), counts_.end(), [](std::uint64_t c) { return c > 0; });
  base_ += static_cast<std::uint64_t>(first - counts_.begin());
  counts_.erase(counts_.begin(), first);
  while (!counts_.empty() && counts_.back() == 0) counts_.pop_back();
}

PageCache::PageCache(const PageCacheConfig& config, Lba universe)
    : config_(config),
      universe_(universe),
      slot_(static_cast<std::uint32_t*>(std::calloc(universe, sizeof(std::uint32_t)))) {
  JITGC_ENSURE_MSG(config_.flush_period > 0, "flusher period must be positive");
  JITGC_ENSURE_MSG(config_.tau_expire % config_.flush_period == 0,
                   "tau_expire must be a multiple of the flusher period (paper assumption)");
  JITGC_ENSURE_MSG(config_.tau_flush_fraction > 0.0 && config_.tau_flush_fraction <= 1.0,
                   "tau_flush fraction must be in (0, 1]");
  JITGC_ENSURE_MSG(universe > 0 && universe < kNil, "page-cache LBA universe out of range");
  if (!slot_) throw std::bad_alloc();
  pending_.assign((universe + 63) / 64, 0);
  touched_.assign((pending_.size() + 63) / 64, 0);
  partitions_ = LbaPartitions::equal_share(universe, 1);
  hist_.resize(1);
  // Reserve the pool for a full cache: untouched capacity costs no resident
  // memory, and the write path never re-allocates.
  const std::uint64_t max_resident = config_.capacity / config_.page_size;
  nodes_.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(max_resident, universe)));
}

void PageCache::check_in_universe(Lba lba, std::uint64_t pages) const {
  JITGC_ENSURE_MSG(lba < universe_ && pages <= universe_ - lba,
                   "LBA range [" + std::to_string(lba) + ", " + std::to_string(lba + pages) +
                       ") is outside the page cache's universe [0, " +
                       std::to_string(universe_) + ")");
}

std::uint64_t PageCache::interval_key(TimeUs last_update) const {
  // ceil(last_update / p): the flusher interval whose tick first sees this
  // page at its current age.
  return static_cast<std::uint64_t>((last_update + config_.flush_period - 1) /
                                    config_.flush_period);
}

void PageCache::set_partitions(const LbaPartitions& partitions) {
  JITGC_ENSURE_MSG(partitions.count > 0 && (partitions.count == 1 || partitions.share > 0),
                   "an LBA partitioning needs at least one non-empty partition");
  partitions_ = partitions;
  hist_.assign(partitions.count, IntervalHistogram{});
  for_each_dirty([&](const DirtyPage& dp) {
    histogram_of(dp.lba).add(interval_key(dp.last_update));
  });
}

void PageCache::note_membership_change(Lba lba) {
  const Lba word = lba >> 6;
  pending_[word] ^= std::uint64_t{1} << (lba & 63);
  touched_[word >> 6] |= std::uint64_t{1} << (word & 63);
}

SipDelta PageCache::pending_sip_delta() const {
  SipDelta delta;
  for (std::size_t t = 0; t < touched_.size(); ++t) {
    for (std::uint64_t words = touched_[t]; words != 0; words &= words - 1) {
      const std::size_t w = t * 64 + static_cast<std::size_t>(__builtin_ctzll(words));
      for (std::uint64_t bits = pending_[w]; bits != 0; bits &= bits - 1) {
        const Lba lba = w * 64 + static_cast<Lba>(__builtin_ctzll(bits));
        (is_dirty(lba) ? delta.added : delta.removed).push_back(lba);
      }
    }
  }
  return delta;
}

void PageCache::commit_sip_checkpoint() {
  for (std::size_t t = 0; t < touched_.size(); ++t) {
    for (std::uint64_t words = touched_[t]; words != 0; words &= words - 1) {
      pending_[t * 64 + static_cast<std::size_t>(__builtin_ctzll(words))] = 0;
    }
    touched_[t] = 0;
  }
}

std::uint32_t PageCache::alloc_node(const DirtyPage& page) {
  if (free_ == kNil) {
    nodes_.push_back(Node{page, kNil, kNil});
    return static_cast<std::uint32_t>(nodes_.size() - 1);
  }
  const std::uint32_t n = free_;
  free_ = nodes_[n].next;
  nodes_[n] = Node{page, kNil, kNil};
  return n;
}

void PageCache::link_after(std::uint32_t node, std::uint32_t after) {
  Node& n = nodes_[node];
  n.prev = after;
  n.next = after == kNil ? head_ : nodes_[after].next;
  (n.next == kNil ? tail_ : nodes_[n.next].prev) = node;
  (after == kNil ? head_ : nodes_[after].next) = node;
}

void PageCache::unlink(std::uint32_t node) {
  const Node& n = nodes_[node];
  (n.prev == kNil ? head_ : nodes_[n.prev].next) = n.next;
  (n.next == kNil ? tail_ : nodes_[n.next].prev) = n.prev;
}

void PageCache::remove(std::uint32_t node) {
  const DirtyPage page = nodes_[node].page;
  histogram_of(page.lba).remove(interval_key(page.last_update));
  unlink(node);
  nodes_[node].next = free_;
  free_ = node;
  slot_[page.lba] = 0;
  --dirty_;
  note_membership_change(page.lba);
}

void PageCache::write(Lba lba, TimeUs now) {
  check_in_universe(lba, 1);
  // The node goes after every page last updated at or before `now` (ties
  // keep insertion order): step back from the tail past newer pages only.
  std::uint32_t stop = tail_;
  while (stop != kNil && nodes_[stop].page.last_update > now) stop = nodes_[stop].prev;

  IntervalHistogram& hist = histogram_of(lba);
  hist.add(interval_key(now));
  std::uint32_t& slot = slot_[lba];
  if (slot == 0) {
    const std::uint32_t n = alloc_node(DirtyPage{lba, now});
    link_after(n, stop);
    slot = n + 1;
    ++dirty_;
    note_membership_change(lba);
    return;
  }
  // Overwrite of dirty data: absorbed in RAM, age resets (Fig. 4's B -> B').
  // A node that is itself the stop already sits in its place.
  const std::uint32_t n = slot - 1;
  Node& node = nodes_[n];
  hist.remove(interval_key(node.page.last_update));
  node.page.last_update = now;
  if (stop != n) {
    unlink(n);
    link_after(n, stop);
  }
  ++absorbed_;
}

Lba PageCache::pop_oldest() {
  JITGC_ENSURE(head_ != kNil);
  const Lba lba = nodes_[head_].page.lba;
  remove(head_);
  ++pages_flushed_;
  return lba;
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
    for (const IntervalHistogram& hist : hist_) {
      hist.for_each([&](std::uint64_t key, std::uint64_t count) {
        if (key <= cutoff) expected += count;
      });
    }
  }
  const Bytes threshold = config_.tau_flush_bytes();
  if (dirty_bytes() > threshold) {
    expected = std::max<std::size_t>(
        expected, (dirty_bytes() - threshold + config_.page_size - 1) / config_.page_size);
  }
  out.reserve(std::min(expected, std::min<std::size_t>(max_pages, dirty_)));

  // Condition 1: evict everything whose age reached tau_expire.
  while (head_ != kNil && out.size() < max_pages) {
    if (now - nodes_[head_].page.last_update < config_.tau_expire) break;
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
  out.reserve(std::min<std::size_t>(max_pages, dirty_));
  while (head_ != kNil && out.size() < max_pages) out.push_back(pop_oldest());
  return out;
}

std::vector<Lba> PageCache::flush_all() {
  std::vector<Lba> out;
  out.reserve(dirty_);
  while (head_ != kNil) out.push_back(pop_oldest());
  return out;
}

std::size_t PageCache::discard(Lba lba, std::uint64_t pages) {
  check_in_universe(lba, pages);
  std::size_t discarded = 0;
  for (std::uint64_t i = 0; i < pages; ++i) {
    const std::uint32_t slot = slot_[lba + i];
    if (slot == 0) continue;
    remove(slot - 1);
    ++discarded;
  }
  return discarded;
}

}  // namespace jitgc::host
