// Microbenchmarks of the substrate primitives (google-benchmark): mapping
// writes, host reads, GC cycles, page-cache operations, predictor scans, CDH
// updates, latency-tail recording and the multi-tenant front-end's cycle.
// These bound the simulator's own cost, which is what makes the full
// paper-reproduction sweeps run in seconds.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/zipf.h"
#include "core/buffered_predictor.h"
#include "core/cdh.h"
#include "ftl/ftl.h"
#include "ftl/sip_index.h"
#include "ftl/victim_index.h"
#include "host/frontend/frontend.h"
#include "host/page_cache.h"

namespace {

using namespace jitgc;

ftl::FtlConfig bench_ftl_config(std::uint32_t block_mult = 1) {
  ftl::FtlConfig cfg;
  cfg.geometry = nand::Geometry{.channels = 2,
                                .dies_per_channel = 2,
                                .planes_per_die = 1,
                                .blocks_per_plane = 128 * block_mult,
                                .pages_per_block = 128,
                                .page_size = 4 * KiB};
  cfg.op_ratio = 0.07;
  return cfg;
}

/// Ages an FTL into GC steady state (device full, half the LBAs re-dirtied)
/// so victim selection sees a realistic candidate population.
void age_ftl(ftl::Ftl& ftl, bool sip_list) {
  Rng rng(42);
  for (Lba l = 0; l < ftl.user_pages(); ++l) ftl.write(l);
  for (Lba i = 0; i < ftl.user_pages() / 2; ++i) ftl.write(rng.uniform(ftl.user_pages() / 2));
  if (sip_list) {
    std::vector<Lba> sip;
    for (Lba l = 0; l < ftl.user_pages() / 16; ++l) sip.push_back(rng.uniform(ftl.user_pages()));
    ftl.set_sip_list(sip);
  }
}

void BM_FtlSequentialWrite(benchmark::State& state) {
  ftl::Ftl ftl(bench_ftl_config());
  Lba lba = 0;
  const Lba n = ftl.user_pages();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ftl.write(lba));
    lba = (lba + 1) % n;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FtlSequentialWrite);

void BM_FtlRandomOverwriteWithGc(benchmark::State& state) {
  ftl::Ftl ftl(bench_ftl_config());
  Rng rng(1);
  const Lba hot = ftl.user_pages() / 2;
  for (Lba l = 0; l < ftl.user_pages(); ++l) ftl.write(l);  // age the device
  for (auto _ : state) {
    benchmark::DoNotOptimize(ftl.write(rng.uniform(hot)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["waf"] = ftl.waf();
}
BENCHMARK(BM_FtlRandomOverwriteWithGc);

// Host read path on an aged device at 1x/16x block counts: the L2P entry,
// the page's state byte, then its OOB LBA checked against the request. At
// 16x the map and page arenas outgrow the caches, so this tracks what the
// page-state layout costs a read.
void BM_FtlRandomRead(benchmark::State& state) {
  ftl::Ftl ftl(bench_ftl_config(static_cast<std::uint32_t>(state.range(0))));
  age_ftl(ftl, /*sip_list=*/false);
  Rng rng(4);
  const Lba n = ftl.user_pages();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ftl.read(rng.uniform(n)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["pages"] = static_cast<double>(ftl.nand().geometry().total_pages());
}
BENCHMARK(BM_FtlRandomRead)->Arg(1)->Arg(16);

void BM_FtlBackgroundCollectStep(benchmark::State& state) {
  ftl::Ftl ftl(bench_ftl_config());
  Rng rng(2);
  for (Lba l = 0; l < ftl.user_pages(); ++l) ftl.write(l);
  for (auto _ : state) {
    // Keep dirtying so there is always something to collect.
    ftl.write(rng.uniform(ftl.user_pages() / 2));
    benchmark::DoNotOptimize(ftl.background_collect_step(8));
  }
}
BENCHMARK(BM_FtlBackgroundCollectStep);

void BM_VictimSelectionScan(benchmark::State& state) {
  // Measures a full BGC cycle dominated by the victim scan over all blocks.
  ftl::Ftl ftl(bench_ftl_config());
  Rng rng(3);
  for (Lba l = 0; l < ftl.user_pages(); ++l) ftl.write(l);
  for (Lba i = 0; i < ftl.user_pages() / 2; ++i) ftl.write(rng.uniform(ftl.user_pages() / 2));
  for (auto _ : state) {
    const ftl::Ftl::GcStep r = ftl.background_collect_step(ftl.pages_per_block());
    benchmark::DoNotOptimize(r);
    if (!r.progressed) {
      // Re-dirty to keep candidates available.
      for (int i = 0; i < 1000; ++i) ftl.write(rng.uniform(ftl.user_pages() / 2));
    }
  }
}
BENCHMARK(BM_VictimSelectionScan);

// Pure victim-selection probes at 1x/4x/16x block counts: the indexed path
// must stay flat while the reference scan grows linearly with num_blocks.
void BM_VictimSelectIndexed(benchmark::State& state) {
  ftl::FtlConfig cfg = bench_ftl_config(static_cast<std::uint32_t>(state.range(0)));
  cfg.enable_sip_filter = true;
  cfg.verify_victim_selection = false;
  ftl::Ftl ftl(cfg);
  age_ftl(ftl, /*sip_list=*/true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ftl.select_victim_indexed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["blocks"] = static_cast<double>(ftl.nand().num_blocks());
}
BENCHMARK(BM_VictimSelectIndexed)->Arg(1)->Arg(4)->Arg(16);

void BM_VictimSelectReference(benchmark::State& state) {
  ftl::FtlConfig cfg = bench_ftl_config(static_cast<std::uint32_t>(state.range(0)));
  cfg.enable_sip_filter = true;
  cfg.verify_victim_selection = false;
  ftl::Ftl ftl(cfg);
  age_ftl(ftl, /*sip_list=*/true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ftl.select_victim_reference());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["blocks"] = static_cast<double>(ftl.nand().num_blocks());
}
BENCHMARK(BM_VictimSelectReference)->Arg(1)->Arg(4)->Arg(16);

// Victim-index upkeep at 1x/4x/16x block counts: every candidate block
// re-bucketed to a fresh (raw, SIP-adjusted) valid count, the per-block work
// Ftl::flush_victim_index does after writes and GC. Should stay flat.
void BM_VictimIndexUpdate(benchmark::State& state) {
  const ftl::FtlConfig cfg = bench_ftl_config(static_cast<std::uint32_t>(state.range(0)));
  const std::uint32_t blocks = cfg.geometry.total_blocks();
  const std::uint32_t ppb = cfg.geometry.pages_per_block;
  // Greedy's needs: the two bucket families, no order sets.
  ftl::VictimIndex index(blocks, ppb,
                         ftl::VictimIndex::Needs{.by_recency = false, .by_fill = false});
  Rng rng(7);
  ftl::VictimIndex::BlockState s;
  s.candidate = true;
  for (std::uint32_t b = 0; b < blocks; ++b) {
    s.valid = static_cast<std::uint32_t>(rng.uniform(ppb));
    s.adjusted_valid = s.valid;
    index.update(b, s);
  }
  std::uint64_t seq = 0;
  for (auto _ : state) {
    const auto b = static_cast<std::uint32_t>(rng.uniform(blocks));
    s.valid = static_cast<std::uint32_t>(rng.uniform(ppb));
    s.adjusted_valid = std::min(ppb, s.valid + static_cast<std::uint32_t>(rng.uniform(4)));
    s.last_update_seq = ++seq;
    index.update(b, s);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["blocks"] = static_cast<double>(blocks);
}
BENCHMARK(BM_VictimIndexUpdate)->Arg(1)->Arg(4)->Arg(16);

void BM_PageCacheWrite(benchmark::State& state) {
  host::PageCacheConfig cfg;
  cfg.capacity = 256 * MiB;
  host::PageCache cache(cfg, /*universe=*/1 << 20);
  Rng rng(4);
  TimeUs now = 0;
  for (auto _ : state) {
    cache.write(rng.uniform(1 << 20), now);
    now += 10;
    if (cache.dirty_bytes() > cfg.tau_flush_bytes()) {
      benchmark::DoNotOptimize(cache.flusher_tick(now));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PageCacheWrite);

// The absorbed-write path: a hot set of dirty pages overwritten again and
// again, with a flusher tick (and SIP delta hand-off) every flush period —
// the page-cache work of a buffered, SIP-sending run such as YCSB under
// JIT-GC.
void BM_PageCacheOverwrite(benchmark::State& state) {
  host::PageCacheConfig cfg;
  host::PageCache cache(cfg, /*universe=*/1 << 20);
  Rng rng(8);
  const Lba hot = 1 << 14;
  TimeUs now = 0;
  for (Lba l = 0; l < hot; ++l) cache.write(l, now);
  TimeUs next_tick = cfg.flush_period;
  for (auto _ : state) {
    cache.write(rng.uniform(hot), now);
    now += 100;
    if (now >= next_tick) {
      benchmark::DoNotOptimize(cache.flusher_tick(now));
      benchmark::DoNotOptimize(cache.pending_sip_delta());
      cache.commit_sip_checkpoint();
      next_tick += cfg.flush_period;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PageCacheOverwrite);

// One flusher tick's SIP hand-off over a device-sized universe: `range(0)`
// dirty-set membership changes (half writebacks, half fresh writes at
// scattered LBAs) since the last checkpoint, then the sorted delta and the
// commit. Only the delta and the commit are timed.
void BM_PageCacheSipDelta(benchmark::State& state) {
  host::PageCacheConfig cfg;
  cfg.capacity = 1 * GiB;
  const Lba universe = 1 << 20;
  host::PageCache cache(cfg, universe);
  Rng rng(10);
  const auto changes = static_cast<std::size_t>(state.range(0));
  TimeUs now = 0;
  for (std::size_t i = 0; i < 4 * changes; ++i) cache.write(rng.uniform(universe), ++now);
  cache.commit_sip_checkpoint();
  for (auto _ : state) {
    state.PauseTiming();
    benchmark::DoNotOptimize(cache.evict_oldest(changes / 2));
    for (std::size_t i = 0; i < changes / 2; ++i) cache.write(rng.uniform(universe), ++now);
    state.ResumeTiming();
    benchmark::DoNotOptimize(cache.pending_sip_delta());
    cache.commit_sip_checkpoint();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(changes));
}
BENCHMARK(BM_PageCacheSipDelta)->Arg(1024)->Arg(16384);

// SIP membership probes over a device-sized universe with 1/16 of the LBAs
// listed: what GC pays per migrated or overwritten page.
void BM_SipIndexContains(benchmark::State& state) {
  const Lba universe = 1 << 22;
  ftl::SipIndex sip(universe);
  Rng rng(9);
  for (Lba i = 0; i < universe / 16; ++i) sip.insert(rng.uniform(universe));
  std::uint64_t hits = 0;
  for (auto _ : state) {
    hits += sip.contains(rng.uniform(universe)) ? 1 : 0;
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SipIndexContains);

void BM_BufferedPredictorScan(benchmark::State& state) {
  host::PageCacheConfig cfg;
  cfg.capacity = 512 * MiB;
  cfg.tau_flush_fraction = 1.0;
  const auto pages = static_cast<Lba>(state.range(0));
  host::PageCache cache(cfg, pages);
  for (Lba l = 0; l < pages; ++l) cache.write(l, seconds(1) + static_cast<TimeUs>(l));
  core::BufferedWritePredictor predictor;
  for (auto _ : state) {
    benchmark::DoNotOptimize(predictor.predict(cache, seconds(5)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * pages);
}
BENCHMARK(BM_BufferedPredictorScan)->Arg(1024)->Arg(16384)->Arg(65536);

void BM_CdhObserveAndQuery(benchmark::State& state) {
  core::CdhConfig cfg;
  cfg.bin_width = 256 * KiB;
  cfg.num_bins = 2048;
  cfg.intervals_per_window = 6;
  core::Cdh cdh(cfg);
  Rng rng(5);
  for (auto _ : state) {
    cdh.observe_interval(rng.uniform(64 * MiB));
    benchmark::DoNotOptimize(cdh.reserve_for_quantile(0.8));
  }
}
BENCHMARK(BM_CdhObserveAndQuery);

// Run-level latency-tail recording: whole-microsecond latencies with heavy
// repetition (about 2,200 distinct values, as in a closed-loop tenant run),
// filling the exact window up to, never past, the 2^18-sample fold; the
// refill clear() is untimed.
void BM_TailTrackerAdd(benchmark::State& state) {
  constexpr std::size_t kWindow = (1 << 18) - 1;
  Rng rng(11);
  std::vector<double> stream(kWindow);
  for (double& v : stream) v = std::floor(rng.exponential(300.0)) + 20.0;
  TailTracker tracker = TailTracker::run_level();
  std::size_t i = 0;
  for (auto _ : state) {
    tracker.add(stream[i]);
    benchmark::DoNotOptimize(&tracker);
    benchmark::ClobberMemory();
    if (++i == kWindow) {
      state.PauseTiming();
      tracker.clear();
      i = 0;
      state.ResumeTiming();
    }
  }
  benchmark::DoNotOptimize(tracker.percentile(99.0));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TailTrackerAdd);

/// Endless 1-page op stream for the front-end cycle: writes and reads in
/// turn, 5 us think time.
class LoopWorkload final : public wl::WorkloadGenerator {
 public:
  std::string name() const override { return "loop"; }
  std::optional<wl::AppOp> next() override {
    wl::AppOp op;
    op.type = ++n_ % 2 == 0 ? wl::OpType::kWrite : wl::OpType::kRead;
    op.lba = n_ % 1024;
    op.think_us = 5;
    return op;
  }
  Lba footprint_pages() const override { return 1024; }
  Lba working_set_pages() const override { return 1024; }

 private:
  std::uint64_t n_ = 0;
};

// One event of the multi-tenant measured-run loop, without the device: two
// closed-loop tenants (as in perfbench's tenants_closed), each event either
// retires the earliest completion or admits the due arrivals, then a
// dispatch pass drains the queues into note_issued() and ends on a pass
// that finds them empty. The interval trackers are cleared every 4096
// events, as the flusher tick does.
void BM_FrontendClosedLoopCycle(benchmark::State& state) {
  frontend::FrontendConfig config;
  config.tenants.resize(2);
  for (frontend::TenantSpec& tenant : config.tenants) tenant.closed_loop = true;
  frontend::HostFrontend fe(config, /*user_pages=*/4096, 4 * KiB, /*seed=*/1,
                            [](const frontend::TenantSpec&, std::uint32_t, Lba, std::uint64_t) {
                              return std::make_unique<LoopWorkload>();
                            });
  Rng rng(12);
  TimeUs now = 0;
  std::uint64_t events = 0;
  for (auto _ : state) {
    const std::optional<TimeUs> arrival = fe.next_arrival();
    const std::optional<TimeUs> completion = fe.next_completion();
    if (completion && (!arrival || *completion <= *arrival)) {
      now = *completion;
      fe.retire_completions(now);
    } else {
      now = *arrival;
      fe.admit_arrivals(now);
    }
    while (const std::optional<frontend::DispatchedOp> d = fe.pop_dispatch(now)) {
      fe.note_issued(*d, now + 50 + static_cast<TimeUs>(rng.uniform(200)));
    }
    if (++events % 4096 == 0) fe.reset_interval_stats();
  }
  benchmark::DoNotOptimize(fe.run_stats(0).p99_latency_us);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FrontendClosedLoopCycle);

void BM_ZipfSample(benchmark::State& state) {
  Rng seed(6);
  ScatteredZipf zipf(1 << 20, 0.95, seed);
  Rng rng(7);
  for (auto _ : state) benchmark::DoNotOptimize(zipf(rng));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ZipfSample);

}  // namespace

BENCHMARK_MAIN();
