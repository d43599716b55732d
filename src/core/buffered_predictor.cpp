#include "core/buffered_predictor.h"

#include <algorithm>

#include "common/ensure.h"

namespace jitgc::core {
namespace {

// Per-page demand bucketing — the reference path, used when the histograms
// cannot answer: off-tick calls (the histogram identity below needs tick
// alignment), strict mode over several partitions, or streams that are not
// the cache's partitions. With `predict_flushes` false it only counts the
// pages.
void bucket_by_scan(const host::PageCache& cache, TimeUs now, bool predict_flushes,
                    std::uint64_t early_flush_pages, const host::LbaPartitions& streams,
                    BufferedPrediction& out) {
  const auto& cfg = cache.config();
  const std::uint32_t nwb = cfg.intervals_per_horizon();
  const TimeUs p = cfg.flush_period;
  const Bytes page = cfg.page_size;

  std::uint64_t scanned = 0;
  cache.for_each_dirty([&](const host::DirtyPage& dp) {
    const std::uint32_t s = streams.of(dp.lba);
    ++out.stream_pages[s];
    if (!predict_flushes) return;

    std::uint32_t j;
    if (scanned < early_flush_pages) {
      // The visit is oldest-first, so these are exactly the pages the
      // flusher would evict to get back under tau_flush.
      j = 1;
    } else {
      // The page expires at last_update + tau_expire and is flushed by the
      // first flusher wake-up at or after that instant (Fig. 4: data written
      // during (s, s+p] flushes in I^(Nwb+1), not I^Nwb). Already-expired
      // pages (writeback backlog: the device could not absorb them this
      // tick) are due immediately.
      const TimeUs expiry = dp.last_update + cfg.tau_expire;
      if (expiry <= now) {
        j = 1;
      } else {
        const TimeUs delta = expiry - now;
        j = static_cast<std::uint32_t>((delta + p - 1) / p);  // ceil(delta / p)
      }
      // Pages expiring beyond the horizon would need updates to survive that
      // long; under the no-future-writes assumption the horizon covers all,
      // but clamp defensively.
      if (j > nwb) j = nwb;
    }
    out.stream_demand[s].add(j, page);
    ++scanned;
  });
}

// Demand from the cache's dirty-interval histograms, no per-page scan. At a
// tick instant now = m * p, every page in bucket c = ceil(last_update / p)
// shares one slot: expiry - now = last_update + (nwb - m) * p, so
// ceil((expiry - now) / p) = c + nwb - m and the page is already expired
// iff c + nwb <= m — the per-page arithmetic collapses to per-bucket.
// Strict mode's early flush takes the oldest `early_flush_pages` pages;
// with a single partition the buckets ascend by age, so a prefix of the walk
// (splitting at most one bucket, where the two halves differ only in slot)
// covers it exactly. Each cache partition feeds its own stream, or all feed
// stream 0 when one stream is asked for.
void bucket_by_histogram(const host::PageCache& cache, TimeUs now, bool predict_flushes,
                         std::uint64_t early_flush_pages, BufferedPrediction& out) {
  const auto& cfg = cache.config();
  const std::uint32_t nwb = cfg.intervals_per_horizon();
  const Bytes page = cfg.page_size;
  const std::uint64_t m = static_cast<std::uint64_t>(now / cfg.flush_period);
  const std::uint32_t partitions = cache.partitions().count;
  JITGC_ENSURE(early_flush_pages == 0 || partitions == 1);

  std::uint64_t remaining_early = early_flush_pages;
  for (std::uint32_t q = 0; q < partitions; ++q) {
    const std::uint32_t s = out.stream_pages.size() == 1 ? 0 : q;
    const host::IntervalHistogram& hist = cache.interval_histogram(q);
    out.stream_pages[s] += hist.pages();
    if (!predict_flushes) continue;
    DemandVector& demand = out.stream_demand[s];
    hist.for_each([&](std::uint64_t c, std::uint64_t count) {
      std::uint64_t rest = count;
      if (remaining_early > 0) {
        const std::uint64_t take = std::min(remaining_early, rest);
        demand.add(1, take * page);
        remaining_early -= take;
        rest -= take;
        if (rest == 0) return;
      }
      std::uint32_t j;
      if (c + nwb <= m) {
        j = 1;
      } else {
        j = static_cast<std::uint32_t>(std::min<std::uint64_t>(c + nwb - m, nwb));
      }
      demand.add(j, rest * page);
    });
  }
}

}  // namespace

BufferedPrediction BufferedWritePredictor::predict(const host::PageCache& cache, TimeUs now,
                                                   const host::LbaPartitions& streams) const {
  const auto& cfg = cache.config();
  const std::uint32_t nwb = cfg.intervals_per_horizon();
  const TimeUs p = cfg.flush_period;
  const Bytes page = cfg.page_size;

  BufferedPrediction out;
  out.demand = DemandVector(nwb);
  out.stream_demand.assign(streams.count, DemandVector(nwb));
  out.stream_pages.assign(streams.count, 0);

  // Strict mode takes the two-condition flush rule literally. At or below
  // tau_flush, condition 2 fails: nothing is predicted to flush (the pages
  // are still counted — dirty data still shadows stale on-SSD pages).
  // Above it, the oldest `excess` bytes flush at the very next tick.
  bool predict_flushes = true;
  std::uint64_t early_flush_pages = 0;
  if (!relax_) {
    const Bytes dirty_bytes = cache.dirty_bytes();
    const Bytes threshold = cfg.tau_flush_bytes();
    if (dirty_bytes <= threshold) {
      predict_flushes = false;
    } else {
      early_flush_pages = (dirty_bytes - threshold + page - 1) / page;
    }
  }

  // The histograms serve the streams when those are the cache's partitions
  // or one stream covering them all. Off-tick calls need the per-page
  // arithmetic; the early flush takes the globally oldest pages, which only a
  // single histogram orders.
  const host::LbaPartitions& parts = cache.partitions();
  const bool histograms_serve =
      (streams.count == 1 || streams == parts) &&
      (!predict_flushes ||
       (now >= 0 && now % p == 0 && (early_flush_pages == 0 || parts.count == 1)));
  if (histograms_serve) {
    bucket_by_histogram(cache, now, predict_flushes, early_flush_pages, out);
  } else {
    bucket_by_scan(cache, now, predict_flushes, early_flush_pages, streams, out);
  }

  for (const DemandVector& d : out.stream_demand) {
    for (std::uint32_t i = 1; i <= nwb; ++i) out.demand.add(i, d.at(i));
  }
  return out;
}

}  // namespace jitgc::core
