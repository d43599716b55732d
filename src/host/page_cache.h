// Write-back page cache with Linux flusher-thread semantics.
//
// This models exactly the behaviour the paper's buffered-write predictor
// exploits (§3.2.1): dirty data ages in the cache; the flusher thread wakes
// every `p` seconds and evicts data that is (1) older than tau_expire since
// its last update, and additionally evicts oldest-first while (2) the total
// dirty size exceeds the tau_flush threshold. An overwrite of a dirty page
// resets its age (the B -> B' case in Fig. 4).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
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

/// Contiguous equal-share LBA partitioning of [0, universe): partition t of
/// `count` owns [t * share, (t + 1) * share), the last one also taking the
/// division remainder. The multi-tenant front-end splits the device this
/// way, one partition per tenant.
struct LbaPartitions {
  Lba share = 0;
  std::uint32_t count = 1;

  static LbaPartitions equal_share(Lba universe, std::uint32_t count);

  std::uint32_t of(Lba lba) const {
    if (count == 1) return 0;
    const Lba t = lba / share;
    return t < count - 1 ? static_cast<std::uint32_t>(t) : count - 1;
  }

  friend bool operator==(const LbaPartitions&, const LbaPartitions&) = default;
};

/// Dirty-page counts keyed by flusher interval c = ceil(last_update / p),
/// held for a contiguous window of keys whose end buckets are never zero.
/// Keys only drift forward with the clock, so the window stays a few
/// buckets wide (about N_wb + 1) and each update is O(1).
class IntervalHistogram {
 public:
  void add(std::uint64_t key);
  void remove(std::uint64_t key);

  /// Dirty pages counted, over all keys.
  std::uint64_t pages() const { return pages_; }

  /// Calls f(key, count) for every non-empty bucket, oldest key first.
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      if (counts_[i] > 0) f(base_ + i, counts_[i]);
    }
  }

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t base_ = 0;
  std::uint64_t pages_ = 0;
};

/// The page cache. Holds dirty pages only (clean caching does not affect
/// write-demand dynamics); reads of a dirty page hit in RAM.
///
/// Storage is flat and indexed by LBA over the device's logical space
/// [0, universe), allocated once at construction: a slot array maps each
/// LBA to its node in a pooled, intrusive age list. Memory is 4 B per LBA in
/// the universe (resident only for the slot-array pages that written LBAs
/// touched) plus 24 B per dirty page (the pool keeps its high-water mark),
/// plus one SIP parity bit per LBA.
class PageCache {
 public:
  /// `universe` is the device's logical page count: buffered writes and
  /// discards must name LBAs below it.
  PageCache(const PageCacheConfig& config, Lba universe);

  const PageCacheConfig& config() const { return config_; }

  /// Buffered write of one page: lands in the cache and (re)starts its age.
  void write(Lba lba, TimeUs now);

  bool is_dirty(Lba lba) const { return lba < universe_ && slot_[lba] != 0; }
  std::uint64_t dirty_pages() const { return dirty_; }
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

  /// Calls f(const DirtyPage&) for every dirty page, oldest first — the
  /// predictor's "scan of the page cache". `f` must not modify the cache.
  template <typename F>
  void for_each_dirty(F&& f) const {
    for (std::uint32_t n = head_; n != kNil; n = nodes_[n].next) f(nodes_[n].page);
  }

  /// Total data ever flushed to the device (for write-breakdown accounting).
  std::uint64_t pages_flushed() const { return pages_flushed_; }
  /// Buffered writes absorbed by overwriting an already-dirty page.
  std::uint64_t absorbed_overwrites() const { return absorbed_; }

  /// The net dirty-set change since the last checkpoint (ascending LBAs):
  /// the L_SIP update the host sends the device. Membership changes are
  /// recorded from construction, which is the first checkpoint.
  SipDelta pending_sip_delta() const;

  /// Marks the current dirty set as delivered: the next delta is relative
  /// to this point.
  void commit_sip_checkpoint();

  /// Splits the dirty-interval histograms by LBA partition (one partition,
  /// the whole universe, by default), re-counting the pages already dirty.
  void set_partitions(const LbaPartitions& partitions);
  const LbaPartitions& partitions() const { return partitions_; }

  /// Partition `partition`'s dirty pages counted by flusher interval,
  /// maintained on every write/writeback/discard. The predictor derives its
  /// per-interval write-back demand from this instead of re-bucketing a full
  /// scan.
  const IntervalHistogram& interval_histogram(std::uint32_t partition) const {
    return hist_[partition];
  }

 private:
  static constexpr std::uint32_t kNil = UINT32_MAX;

  /// Age-list node; free nodes are chained through `next`.
  struct Node {
    DirtyPage page;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
  };
  struct FreeDeleter {
    void operator()(std::uint32_t* p) const { std::free(p); }
  };

  void check_in_universe(Lba lba, std::uint64_t pages) const;
  std::uint32_t alloc_node(const DirtyPage& page);
  void link_after(std::uint32_t node, std::uint32_t after);
  void unlink(std::uint32_t node);
  /// Removes `node` from the cache (writeback or discard).
  void remove(std::uint32_t node);
  Lba pop_oldest();

  std::uint64_t interval_key(TimeUs last_update) const;
  IntervalHistogram& histogram_of(Lba lba) { return hist_[partitions_.of(lba)]; }
  /// SIP parity: flips `lba`'s pending bit on every insert and removal.
  void note_membership_change(Lba lba);

  PageCacheConfig config_;
  /// Dirty pages oldest first, ordered by (last_update, insertion order).
  /// Writes link in at the tail after stepping back past any newer nodes, so
  /// a non-decreasing write clock inserts in O(1); overwrites re-link their
  /// own node.
  std::vector<Node> nodes_;
  std::uint32_t head_ = kNil;  ///< oldest
  std::uint32_t tail_ = kNil;  ///< newest
  std::uint32_t free_ = kNil;
  Lba universe_ = 0;
  /// Each LBA's node plus one, 0 when clean. Zero-filled by calloc, so the
  /// pages of LBAs never written stay untouched and cost no resident memory.
  std::unique_ptr<std::uint32_t[], FreeDeleter> slot_;
  std::uint64_t dirty_ = 0;
  std::uint64_t pages_flushed_ = 0;
  std::uint64_t absorbed_ = 0;
  /// One bit per LBA, set iff its membership changed an odd number of times
  /// since the last checkpoint, i.e. it is in the net delta.
  std::vector<std::uint64_t> pending_;
  /// One bit per word of pending_: written since the last checkpoint. Walking
  /// it in order yields the delta ascending and bounds the commit's clearing.
  std::vector<std::uint64_t> touched_;
  LbaPartitions partitions_;
  /// One dirty-interval histogram per partition.
  std::vector<IntervalHistogram> hist_;
};

}  // namespace jitgc::host
