// Write-demand predictor for buffered writes (paper §3.2.1).
//
// Invoked right after each flusher-thread run, it reads the page cache's
// dirty pages and, using the *relaxed* flush model (every dirty page flushes
// at the first flusher tick after its age reaches tau_expire, ignoring the
// tau_flush condition), computes an upper bound D_buf(t) on the data the
// cache will push to the SSD in each future write-back interval, optionally
// split per LBA partition (one stream per tenant). The SIP list (the LBAs
// whose on-SSD versions those flushes will invalidate) is not its output:
// the simulator reads it off the page cache at the same tick.
#pragma once

#include <cstdint>
#include <vector>

#include "core/demand_vector.h"
#include "host/page_cache.h"

namespace jitgc::core {

struct BufferedPrediction {
  DemandVector demand;  ///< D_buf(t), one slot per future interval
  /// `demand` and the dirty-page count split by stream (the LBA partitions
  /// passed to predict(); a single entry by default).
  std::vector<DemandVector> stream_demand;
  std::vector<std::uint64_t> stream_pages;
};

class BufferedWritePredictor {
 public:
  /// `relax_flush_condition = true` is the paper's design choice: assume
  /// every dirty page flushes once it expires, without checking the
  /// tau_flush condition. This over-predicts by at most tau_flush but never
  /// misses a sudden large buffered write.
  ///
  /// The strict variant (false, for the ablation bench) takes the flusher's
  /// two-condition rule literally: while total dirty data is at or below
  /// tau_flush, condition 2 fails, so it predicts no flushes at all — and a
  /// sudden large write that pushes the cache over the threshold triggers
  /// writeback the predictor never announced (the paper's motivating
  /// foreground-GC scenario). Above the threshold it additionally predicts
  /// the threshold-driven early writeback of the oldest data.
  explicit BufferedWritePredictor(bool relax_flush_condition = true)
      : relax_(relax_flush_condition) {}

  /// Predicts from `cache` at time `now` (a flusher-tick instant) and returns
  /// D_buf(now), with demand and dirty pages attributed to the partitions of
  /// `streams`. When `streams` is the cache's own partitioning (or a single
  /// stream), a tick-aligned call reads the cache's per-partition interval
  /// histograms instead of scanning pages.
  BufferedPrediction predict(const host::PageCache& cache, TimeUs now,
                             const host::LbaPartitions& streams = {}) const;

 private:
  bool relax_;
};

}  // namespace jitgc::core
