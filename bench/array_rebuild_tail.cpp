// Rebuild time vs degraded-window write tail across GC coordination modes.
//
// A 4-device volume (one hot spare) loses device 1 to a scripted retirement
// at t = 60 s. The surviving run measures the trade the rebuild-rate floor
// controls: a low floor keeps rebuild windows small (better degraded-window
// p99 write latency) but stretches the exposed window; a high floor finishes
// the rebuild quickly at the cost of heavier per-interval interference.
// Cells: {parity, mirror} x {naive, staggered, max-k} x {low, high floor}.
//
// Shape to check: every cell completes (no array_data_loss — one failure
// with a spare never exhausts redundancy), the high floor rebuilds several
// times faster than the low floor, and the low floor's degraded-window p99
// is no worse (usually visibly better) within each scheme x mode cell pair.
//
// Writes one JSONL stream (run + interval + rebuild_progress + array_state
// records, one run index per cell) next to the human-readable table:
//   array_rebuild_tail [metrics.jsonl]
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "array/array_simulator.h"
#include "bench_util.h"
#include "common/thread_pool.h"
#include "sim/experiment.h"
#include "sim/metrics_sink.h"
#include "workload/specs.h"
#include "workload/synthetic.h"

namespace {

struct SchemeCell {
  const char* label;
  jitgc::array::RedundancyScheme scheme;
};

struct ModeCell {
  const char* label;
  jitgc::array::ArrayGcMode mode;
  std::uint32_t max_concurrent_gc;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace jitgc;

  const std::string metrics_path = argc > 1 ? argv[1] : "array_rebuild_tail.jsonl";

  const std::vector<SchemeCell> schemes = {
      {"parity", array::RedundancyScheme::kParity},
      {"mirror", array::RedundancyScheme::kMirror},
  };
  const std::vector<ModeCell> modes = {
      {"naive", array::ArrayGcMode::kNaive, 1},
      {"staggered", array::ArrayGcMode::kStaggered, 1},
      {"max-k=1", array::ArrayGcMode::kMaxK, 1},
  };
  const std::vector<double> floors = {0.05, 0.5};

  // Open-loop arrivals must stay below the degraded array's service rate
  // (parity RMW doubles the write cost while a slot is down) or every cell
  // saturates identically and the tails measure overload, not scheduling.
  constexpr double kRateScale = 0.10;
  wl::WorkloadSpec spec = wl::ycsb_spec();
  spec.ops_per_sec *= kRateScale;

  // Devices sized so one rebuild spans several coordinator ticks even at
  // full duty (and many at the low floor) yet still completes well inside
  // the run at every cell: ~7.6k stripe rows of which the ~60 % footprint
  // fill needs reconstruction.
  const auto device_config = [] {
    sim::SsdConfig cfg = sim::default_sim_config(1).ssd;
    cfg.ftl.geometry = nand::Geometry{.channels = 4,
                                      .dies_per_channel = 2,
                                      .planes_per_die = 1,
                                      .blocks_per_plane = 128,
                                      .pages_per_block = 64,
                                      .page_size = 4 * KiB};
    return cfg;
  }();

  std::printf("Rebuild-rate floor vs degraded-window tail: 4+1-spare array,\n");
  std::printf("device 1 retired at t=60s, YCSB at %.0f%% nominal rate\n", kRateScale * 100);

  const std::size_t cells = schemes.size() * modes.size() * floors.size();
  std::vector<sim::SimReport> reports(cells);
  std::vector<std::ostringstream> streams(cells);
  ThreadPool pool(ThreadPool::hardware_threads());
  pool.parallel_for(cells, [&](std::size_t i) {
    const SchemeCell& scheme = schemes[i / (modes.size() * floors.size())];
    const ModeCell& mode = modes[(i / floors.size()) % modes.size()];
    const double floor = floors[i % floors.size()];

    array::ArraySimConfig config;
    config.ssd = device_config;
    config.duration = seconds(300);
    config.flush_period = seconds(5);
    config.seed = 1;
    config.step_threads = 1;  // cell-level parallelism only
    config.array.devices = 4;
    config.array.stripe_chunk_pages = 8;
    config.array.gc_mode = mode.mode;
    config.array.max_concurrent_gc = mode.max_concurrent_gc;
    config.array.redundancy = scheme.scheme;
    config.array.spare_devices = 1;
    config.array.rebuild_rate_floor = floor;
    config.kill_slot = 1;
    config.kill_at = seconds(60);

    array::ArraySimulator simulator(config);
    wl::SyntheticWorkload gen(spec, simulator.ssd_array().user_pages(), config.seed);
    sim::JsonlMetricsSink sink(streams[i], /*run_index=*/i, config.seed);
    simulator.set_metrics_sink(&sink);
    reports[i] = simulator.run(gen);
  });

  std::FILE* out = std::fopen(metrics_path.c_str(), "w");
  if (out != nullptr) {
    for (const auto& s : streams) {
      const std::string text = s.str();
      std::fwrite(text.data(), 1, text.size(), out);
    }
    std::fclose(out);
    std::printf("metrics: %s (%zu runs)\n", metrics_path.c_str(), cells);
  } else {
    std::fprintf(stderr, "warning: cannot write %s\n", metrics_path.c_str());
  }

  std::vector<std::string> columns;
  for (const double f : floors) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "floor=%.2f", f);
    columns.emplace_back(buf);
  }

  const auto cell = [&](std::size_t s, std::size_t m, std::size_t f) -> const sim::SimReport& {
    return reports[(s * modes.size() + m) * floors.size() + f];
  };

  bench::print_section("rebuild time (s, lower = reprotected sooner)");
  bench::print_header("scheme/mode", columns);
  for (std::size_t s = 0; s < schemes.size(); ++s) {
    for (std::size_t m = 0; m < modes.size(); ++m) {
      std::vector<double> vals;
      for (std::size_t f = 0; f < floors.size(); ++f) {
        vals.push_back(cell(s, m, f).rebuild_time_s);
      }
      bench::print_row(std::string(schemes[s].label) + "/" + modes[m].label, vals, 0);
    }
  }

  bench::print_section("degraded-window p99 write latency (us)");
  bench::print_header("scheme/mode", columns);
  for (std::size_t s = 0; s < schemes.size(); ++s) {
    for (std::size_t m = 0; m < modes.size(); ++m) {
      std::vector<double> vals;
      for (std::size_t f = 0; f < floors.size(); ++f) {
        vals.push_back(cell(s, m, f).degraded_write_p99_latency_us);
      }
      bench::print_row(std::string(schemes[s].label) + "/" + modes[m].label, vals, 0);
    }
  }

  bench::print_section("exposed time (s) / whole-run p99 write latency (us)");
  bench::print_header("scheme/mode", columns);
  for (std::size_t s = 0; s < schemes.size(); ++s) {
    for (std::size_t m = 0; m < modes.size(); ++m) {
      std::vector<double> vals;
      for (std::size_t f = 0; f < floors.size(); ++f) {
        vals.push_back(cell(s, m, f).degraded_time_s);
      }
      bench::print_row(std::string(schemes[s].label) + "/" + modes[m].label + " exposed", vals,
                       0);
      vals.clear();
      for (std::size_t f = 0; f < floors.size(); ++f) {
        vals.push_back(cell(s, m, f).direct_write_p99_latency_us);
      }
      bench::print_row(std::string(schemes[s].label) + "/" + modes[m].label + " p99", vals, 0);
    }
  }

  // The bench doubles as a correctness gate for the smoke script: a single
  // failure with a spare in the pool must never end in data loss, and every
  // cell must drive its rebuild to completion inside the run.
  int failures = 0;
  for (std::size_t i = 0; i < cells; ++i) {
    if (reports[i].run_end_reason != "completed") {
      std::fprintf(stderr, "FAIL: cell %zu ended with %s\n", i,
                   reports[i].run_end_reason.c_str());
      ++failures;
    }
    if (reports[i].rebuilds_completed != 1) {
      std::fprintf(stderr, "FAIL: cell %zu finished %llu rebuilds (want 1)\n", i,
                   static_cast<unsigned long long>(reports[i].rebuilds_completed));
      ++failures;
    }
  }
  if (failures == 0) {
    std::printf("\nall %zu cells completed with their rebuild finished\n", cells);
  }
  return failures == 0 ? 0 : 1;
}
