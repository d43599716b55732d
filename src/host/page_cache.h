// Write-back page cache with Linux flusher-thread semantics.
//
// This models exactly the behaviour the paper's buffered-write predictor
// exploits (§3.2.1): dirty data ages in the cache; the flusher thread wakes
// every `p` seconds and evicts data that is (1) older than tau_expire since
// its last update, and additionally evicts oldest-first while (2) the total
// dirty size exceeds the tau_flush threshold. An overwrite of a dirty page
// resets its age (the B -> B' case in Fig. 4).
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace jitgc::host {

struct PageCacheConfig {
  Bytes page_size = 4 * KiB;
  /// Total cache capacity (the paper's host has 8 GiB RAM).
  Bytes capacity = 512 * MiB;
  /// Dirty data older than this is flushed at the next flusher tick.
  TimeUs tau_expire = seconds(30);
  /// Second flush condition: dirty total above this fraction of capacity
  /// triggers oldest-first writeback down to the threshold.
  double tau_flush_fraction = 0.10;
  /// Flusher thread period `p`.
  TimeUs flush_period = seconds(5);

  Bytes tau_flush_bytes() const {
    return static_cast<Bytes>(tau_flush_fraction * static_cast<double>(capacity));
  }
  /// Nwb = tau_expire / p: the prediction horizon in write-back intervals.
  std::uint32_t intervals_per_horizon() const {
    return static_cast<std::uint32_t>(tau_expire / flush_period);
  }
};

/// One dirty page as seen by the predictor's scan.
struct DirtyPage {
  Lba lba = 0;
  TimeUs last_update = 0;
};

/// Net change to the cache's dirty-LBA set since the last checkpoint:
/// `added` holds LBAs that became dirty, `removed` LBAs that were written
/// back or discarded (both ascending, disjoint). An LBA that came and went
/// within one checkpoint interval appears in neither.
struct SipDelta {
  std::vector<Lba> added;
  std::vector<Lba> removed;
};

/// The page cache. Holds dirty pages only (clean caching does not affect
/// write-demand dynamics); reads of a dirty page hit in RAM.
class PageCache {
 public:
  explicit PageCache(const PageCacheConfig& config);
  // by_lba_ holds iterators into by_age_: moving keeps them valid, copying
  // would not.
  PageCache(const PageCache&) = delete;
  PageCache& operator=(const PageCache&) = delete;
  PageCache(PageCache&&) = default;
  PageCache& operator=(PageCache&&) = default;

  const PageCacheConfig& config() const { return config_; }

  /// Buffered write of one page: lands in the cache and (re)starts its age.
  void write(Lba lba, TimeUs now);

  bool is_dirty(Lba lba) const { return by_lba_.contains(lba); }
  std::uint64_t dirty_pages() const { return by_lba_.size(); }
  Bytes dirty_bytes() const { return dirty_pages() * config_.page_size; }

  /// Runs the flusher thread at time `now`: applies both flush conditions and
  /// returns the evicted LBAs (oldest first) for writing to the device.
  /// `max_pages` bounds the writeback to what the device can absorb this
  /// interval; pages beyond it stay dirty with their ages intact (writeback
  /// is paced by the device, not by the cache).
  std::vector<Lba> flusher_tick(TimeUs now, std::size_t max_pages = SIZE_MAX);

  /// Synchronous writeback of the oldest dirty pages (Linux
  /// balance_dirty_pages analog: a throttled writer pushes old dirty data
  /// out itself). Returns the evicted LBAs, oldest first.
  std::vector<Lba> evict_oldest(std::size_t max_pages);

  /// Drops dirty pages in [lba, lba + pages) without writing them back
  /// (file deletion / TRIM: the data is dead). Returns pages discarded.
  std::size_t discard(Lba lba, std::uint64_t pages);

  /// Forces everything out (unmount / sync / end of run).
  std::vector<Lba> flush_all();

  /// Snapshot of all dirty pages, oldest first — the predictor's "scan of
  /// the page cache".
  std::vector<DirtyPage> scan_dirty() const;

  /// Total data ever flushed to the device (for write-breakdown accounting).
  std::uint64_t pages_flushed() const { return pages_flushed_; }
  /// Buffered writes absorbed by overwriting an already-dirty page.
  std::uint64_t absorbed_overwrites() const { return absorbed_; }

  /// Starts recording dirty-set membership changes for the SIP delta
  /// protocol. Off by default: workloads that never send SIP updates should
  /// not pay for the bookkeeping.
  void enable_sip_tracking() { sip_tracking_ = true; }
  bool sip_tracking_enabled() const { return sip_tracking_; }

  /// The net dirty-set change since the last checkpoint (ascending LBAs).
  SipDelta pending_sip_delta() const;

  /// Marks the current dirty set as delivered: the next delta is relative
  /// to this point.
  void commit_sip_checkpoint() { pending_.clear(); }

  /// Dirty-page counts keyed by flusher interval c = ceil(last_update / p),
  /// maintained incrementally on every write/writeback/discard and listed
  /// here (non-zero buckets only) in O(#buckets). The predictor derives its
  /// per-interval write-back demand from this instead of re-bucketing a
  /// full scan.
  std::map<std::uint64_t, std::uint64_t> dirty_interval_histogram() const;

 private:
  using AgeList = std::list<DirtyPage>;

  Lba pop_oldest();

  std::uint64_t interval_key(TimeUs last_update) const;
  void histogram_add(TimeUs last_update);
  void histogram_remove(TimeUs last_update);
  void note_insert(Lba lba);
  void note_remove(Lba lba);

  PageCacheConfig config_;
  /// Dirty pages oldest first, ordered by (last_update, insertion order).
  /// Writes append at the tail after stepping back past any newer nodes, so
  /// a non-decreasing write clock inserts in O(1); overwrites re-link their
  /// node with splice() and allocate nothing.
  AgeList by_age_;
  /// Each dirty LBA's node in by_age_.
  std::unordered_map<Lba, AgeList::iterator> by_lba_;
  std::uint64_t pages_flushed_ = 0;
  std::uint64_t absorbed_ = 0;
  bool sip_tracking_ = false;
  /// Net membership change per LBA since the last checkpoint: true = became
  /// dirty, false = left the cache. Cancelling transitions erase the entry;
  /// pending_sip_delta() sorts.
  std::unordered_map<Lba, bool> pending_;
  /// Dirty-page counts for the contiguous interval keys
  /// [hist_base_, hist_base_ + hist_.size()); the end buckets are never
  /// zero. Keys only drift forward with the clock, so the window stays a
  /// few buckets wide (about N_wb + 1) and each update is O(1).
  std::vector<std::uint64_t> hist_;
  std::uint64_t hist_base_ = 0;
};

}  // namespace jitgc::host
