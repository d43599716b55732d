// Array-level GC coordination: naive (independent local JIT policies) vs
// staggered rotation vs max-k concurrency cap, on a 4-device striped volume
// running the fig7-style benchmarks.
//
// Shape to check: with symmetric devices under a striped workload, naive
// local policies self-synchronize — every device wants to collect in the
// same interval, and a stripe op completes at the max of its per-device
// completions, so the array write tail inherits the worst device's GC
// session. The staggered rotation (Zheng & Burns style desynchronization)
// and the max-k cap both bound how many devices collect at once and pace
// granted devices across the interval, so the array p99 write latency drops
// by an order of magnitude on at least the bursty workloads.
//
// Writes one JSONL stream (run + array_interval + device_interval records,
// one run index per cell) next to the human-readable table:
//   array_gc_coordination [metrics.jsonl]
#include <cstdio>
#include <memory>
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

struct ModeCell {
  const char* label;
  jitgc::array::ArrayGcMode mode;
  std::uint32_t max_concurrent_gc;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace jitgc;

  const std::string metrics_path = argc > 1 ? argv[1] : "array_gc_coordination.jsonl";

  const std::vector<ModeCell> modes = {
      {"naive", array::ArrayGcMode::kNaive, 1},
      {"staggered", array::ArrayGcMode::kStaggered, 1},
      {"max-k=2", array::ArrayGcMode::kMaxK, 2},
  };
  // Open-loop arrivals must stay below the array's sustainable service rate
  // (host writes x WAF x program time, plus GC traffic); beyond it the
  // backlog grows without bound and every mode saturates identically. The
  // paper's closed-loop cells self-limit; here we scale the nominal rates to
  // a high-but-feasible utilization so the tails measure GC scheduling, not
  // overload collapse.
  constexpr double kRateScale = 0.15;
  std::vector<wl::WorkloadSpec> specs = {wl::ycsb_spec(), wl::postmark_spec(), wl::tpcc_spec()};
  for (auto& spec : specs) spec.ops_per_sec *= kRateScale;

  std::printf("Array GC coordination: %zu-device striped volume, fig7-style workloads\n",
              static_cast<std::size_t>(4));
  std::printf("(array p99 write latency; a stripe op completes at the max of its devices)\n");

  // Every cell is an independent simulation; run them on the pool and keep
  // the JSONL streams per cell so the merged file is in cell order no matter
  // which cell finishes first.
  const std::size_t cells = specs.size() * modes.size();
  std::vector<sim::SimReport> reports(cells);
  std::vector<std::ostringstream> streams(cells);
  ThreadPool pool(ThreadPool::hardware_threads());
  pool.parallel_for(cells, [&](std::size_t i) {
    const wl::WorkloadSpec& spec = specs[i / modes.size()];
    const ModeCell& mode = modes[i % modes.size()];

    const sim::SimConfig base = sim::default_sim_config(1);
    array::ArraySimConfig config;
    config.ssd = base.ssd;
    config.duration = base.duration;
    config.flush_period = base.cache.flush_period;
    config.seed = base.seed;
    config.step_threads = 1;  // cell-level parallelism only
    config.array.devices = 4;
    config.array.gc_mode = mode.mode;
    config.array.max_concurrent_gc = mode.max_concurrent_gc;

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
  for (const auto& m : modes) columns.push_back(m.label);

  bench::print_section("array p99 write latency (us)");
  bench::print_header("benchmark", columns);
  for (std::size_t w = 0; w < specs.size(); ++w) {
    std::vector<double> vals;
    for (std::size_t m = 0; m < modes.size(); ++m) {
      vals.push_back(reports[w * modes.size() + m].direct_write_p99_latency_us);
    }
    bench::print_row(specs[w].name, vals, 0);
  }

  bench::print_section("array p99 write latency, normalized (naive = 1.0)");
  bench::print_header("benchmark", columns);
  for (std::size_t w = 0; w < specs.size(); ++w) {
    std::vector<double> vals;
    for (std::size_t m = 0; m < modes.size(); ++m) {
      vals.push_back(reports[w * modes.size() + m].direct_write_p99_latency_us);
    }
    bench::print_row(specs[w].name, bench::normalize(vals, vals[0]));
  }

  bench::print_section("overall p99 latency (us) / WAF");
  bench::print_header("benchmark", columns);
  for (std::size_t w = 0; w < specs.size(); ++w) {
    std::vector<double> vals;
    for (std::size_t m = 0; m < modes.size(); ++m) {
      vals.push_back(reports[w * modes.size() + m].p99_latency_us);
    }
    bench::print_row(specs[w].name + " p99", vals, 0);
    vals.clear();
    for (std::size_t m = 0; m < modes.size(); ++m) {
      vals.push_back(reports[w * modes.size() + m].waf);
    }
    bench::print_row(specs[w].name + " WAF", vals);
  }
  return 0;
}
