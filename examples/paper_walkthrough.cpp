// Walks through the paper's three worked examples (Figs. 4, 5 and 6) using
// the library's public API, printing every intermediate quantity so the
// mechanics of JIT-GC can be followed step by step.
//
//   ./build/examples/paper_walkthrough
#include <cstdio>

#include "core/buffered_predictor.h"
#include "core/cdh.h"
#include "core/jit_manager.h"
#include "host/page_cache.h"

using namespace jitgc;

namespace {

constexpr Bytes MB = 1'000'000;  // the figures use decimal megabytes

void fig4_buffered_prediction() {
  std::printf("=== Fig. 4: future write demand estimation for buffered writes ===\n");
  std::printf("p = 5 s, tau_expire = 30 s; writes A(20) t=2, B(20) t=4, C(20) t=7,\n");
  std::printf("B'(update of B) t=9, D(200) t=17  (sizes in pages)\n\n");

  host::PageCacheConfig cfg;
  cfg.page_size = 4 * KiB;
  cfg.capacity = 16 * MiB;
  cfg.tau_expire = seconds(30);
  cfg.tau_flush_fraction = 1.0;  // the figure has no threshold flushes
  cfg.flush_period = seconds(5);
  host::PageCache cache(cfg, /*universe=*/1024);

  const auto write_group = [&](Lba base, std::uint32_t pages, TimeUs t) {
    for (std::uint32_t i = 0; i < pages; ++i) cache.write(base + i, t);
  };
  const core::BufferedWritePredictor predictor;

  const auto show = [&](TimeUs t) {
    cache.flusher_tick(t);
    const core::BufferedPrediction p = predictor.predict(cache, t);
    std::printf("D_buf(%2lld) = (", static_cast<long long>(t / kUsPerSec));
    for (std::uint32_t i = 1; i <= p.demand.nwb(); ++i) {
      std::printf("%s%llu", i > 1 ? ", " : "",
                  static_cast<unsigned long long>(p.demand.at(i) / cfg.page_size));
    }
    std::printf(")   |SIP| = %llu\n", static_cast<unsigned long long>(cache.dirty_pages()));
  };

  write_group(0, 20, seconds(2));     // A
  write_group(100, 20, seconds(4));   // B
  show(seconds(5));                   // expect (0,0,0,0,0,40)

  write_group(200, 20, seconds(7));   // C
  write_group(100, 20, seconds(9));   // B' resets B's age
  show(seconds(10));                  // expect (0,0,0,0,20,40)

  write_group(300, 200, seconds(17));  // D
  show(seconds(20));                   // expect (0,0,20,40,0,200)
}

void fig5_cdh() {
  std::printf("\n=== Fig. 5: cumulative data histogram for direct writes ===\n");
  std::printf("interval traffic: 10, 20, 20, 20, 80 MB; 10-MB bins\n\n");

  core::CdhConfig cfg;
  cfg.bin_width = 10 * MB;
  cfg.num_bins = 16;
  cfg.intervals_per_window = 1;
  core::Cdh cdh(cfg);
  for (Bytes v : {10 * MB, 20 * MB, 20 * MB, 20 * MB, 80 * MB}) cdh.observe_interval(v);

  for (double q : {0.2, 0.5, 0.8, 1.0}) {
    std::printf("reserve covering %3.0f%% of windows: %3llu MB\n", 100 * q,
                static_cast<unsigned long long>(cdh.reserve_for_quantile(q) / MB));
  }
  std::printf("coverage of a 20-MB reserve: %.0f%%  (the paper: \"for 80%% of the\n"
              "intervals, less than 20 MB data were written\")\n",
              100 * cdh.coverage(20 * MB));
}

void fig6_manager() {
  std::printf("\n=== Fig. 6: the JIT-GC manager's decision rule ===\n");
  std::printf("C_free = 50 MB, B_w = 40 MB/s, B_gc = 10 MB/s, tau_expire = 30 s\n\n");

  const core::JitGcManager manager(seconds(30));
  const core::BandwidthEstimate bw{40.0 * MB, 10.0 * MB};

  const auto decide = [&](const char* label, std::vector<Bytes> dbuf_mb) {
    core::Prediction p;
    for (auto& v : dbuf_mb) v *= MB;
    p.buffered = core::DemandVector(std::move(dbuf_mb));
    p.direct = core::DemandVector(std::vector<Bytes>(6, 5 * MB));
    const core::JitDecision d = manager.decide(p, 50 * MB, bw);
    std::printf("%s: C_req = %llu MB, T_w = %.2f s, T_idle = %.2f s, T_gc = %.2f s\n", label,
                static_cast<unsigned long long>(d.c_req / MB), d.t_write_s, d.t_idle_s, d.t_gc_s);
    if (d.invoke_bgc) {
      std::printf("  -> T_idle < T_gc: invoke BGC now, D_reclaim = %.1f MB"
                  " (plus %llu MB scheduled into idle time)\n",
                  static_cast<double>(d.reclaim_bytes) / MB,
                  static_cast<unsigned long long>(d.idle_reclaim_bytes / MB));
    } else {
      std::printf("  -> T_idle > T_gc: no BGC this interval (D_reclaim = 0;"
                  " %llu MB left for idle-time GC)\n",
                  static_cast<unsigned long long>(d.idle_reclaim_bytes / MB));
    }
  };

  decide("t = 10 (Fig. 6a)", {0, 0, 0, 0, 20, 40});
  decide("t = 20 (Fig. 6b)", {0, 0, 20, 40, 0, 200});
}

}  // namespace

int main() {
  fig4_buffered_prediction();
  fig5_cdh();
  fig6_manager();
  return 0;
}
