// End-to-end simulator throughput: absolute wall-clock ops/sec of the event
// engine (calendar-driven run loop + the FTL fast-path bundle: deferred
// victim-index maintenance and the arena-backed flat NAND layout), compared
// against a recorded baseline so JITGC_MIN_SIM_SPEEDUP gates *regressions*
// rather than a tick-vs-event ratio (the legacy tick engine is retired; the
// event engine is the only run loop).
//
// Two cells: the canonical single-SSD configuration, and an 8-device
// striped array under staggered GC coordination (the array multiplies the
// per-tick FTL work eightfold, so it leans hardest on the fast paths).
//
// Emits one JSONL bench record per cell; when a baseline JSONL (a previous
// invocation's output, committed under bench/baselines/) is supplied, also a
// bench_summary per cell with the current/baseline throughput ratio. The
// record splits the cell's wall time at the workload's first next() call:
// `setup_s` is construction plus preconditioning, and `ns_per_op` is the
// measured run (report assembly included) per completed op, the boundary
// perfbench times at. `wall_s` and `ops_per_sec` still span the whole cell,
// which is what the baseline ratio compares.
// scripts/bench_smoke.sh validates the records and gates the array ratio
// against a budget floor.
//
//   sim_throughput [sim_seconds] [baseline.jsonl]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "array/array_simulator.h"
#include "common/ensure.h"
#include "sim/experiment.h"
#include "workload/specs.h"
#include "workload/synthetic.h"

namespace {

using namespace jitgc;

using Clock = std::chrono::steady_clock;

struct Measurement {
  std::uint64_t ops = 0;
  double wall_s = 0.0;
  double ops_per_sec = 0.0;
  double setup_s = 0.0;
  double ns_per_op = 0.0;
};

/// Forwards a generator and stamps its first next() call: the simulators
/// ask for the first op only once preconditioning is done.
class FirstNextStamp final : public wl::WorkloadGenerator {
 public:
  FirstNextStamp(wl::WorkloadGenerator& inner, std::optional<Clock::time_point>& stamp)
      : inner_(inner), stamp_(stamp) {}
  std::string name() const override { return inner_.name(); }
  std::optional<wl::AppOp> next() override {
    if (!stamp_) stamp_ = Clock::now();
    return inner_.next();
  }
  Lba footprint_pages() const override { return inner_.footprint_pages(); }
  Lba working_set_pages() const override { return inner_.working_set_pages(); }

 private:
  wl::WorkloadGenerator& inner_;
  std::optional<Clock::time_point>& stamp_;
};

/// Times one cell; `run` receives the first-next() stamp to wrap its
/// generator with.
template <typename Run>
Measurement timed(Run&& run) {
  std::optional<Clock::time_point> first_next;
  const auto start = Clock::now();
  const sim::SimReport report = run(first_next);
  const auto end = Clock::now();
  JITGC_ENSURE_MSG(first_next.has_value(), "the measured run never asked for an op");
  Measurement m;
  m.ops = report.ops_completed;
  m.wall_s = std::chrono::duration<double>(end - start).count();
  m.ops_per_sec = static_cast<double>(m.ops) / m.wall_s;
  m.setup_s = std::chrono::duration<double>(*first_next - start).count();
  m.ns_per_op = std::chrono::duration<double, std::nano>(end - *first_next).count() /
                static_cast<double>(m.ops);
  return m;
}

Measurement run_single(double sim_seconds) {
  return timed([&](std::optional<Clock::time_point>& first_next) {
    sim::SimConfig config = sim::default_sim_config(1);
    config.duration = seconds(sim_seconds);
    sim::Simulator simulator(config);
    wl::SyntheticWorkload gen(wl::ycsb_spec(), simulator.ssd().ftl().user_pages(), config.seed);
    FirstNextStamp stamped(gen, first_next);
    const auto policy = sim::make_policy(sim::PolicyKind::kJit, config);
    return simulator.run(stamped, *policy);
  });
}

Measurement run_array(double sim_seconds) {
  return timed([&](std::optional<Clock::time_point>& first_next) {
    const sim::SimConfig base = sim::default_sim_config(1);
    array::ArraySimConfig config;
    config.ssd = base.ssd;
    config.duration = seconds(sim_seconds);
    config.flush_period = base.cache.flush_period;
    config.seed = base.seed;
    config.step_threads = 1;  // measure the engine, not the GC fan-out pool
    config.array.devices = 8;
    config.array.gc_mode = array::ArrayGcMode::kStaggered;

    array::ArraySimulator simulator(config);
    // Open-loop arrival rate below the 8-device sustainable service rate
    // (same reasoning as array_gc_coordination's scaling, doubled for twice
    // the devices) so the run measures steady-state work, not backlog
    // collapse.
    wl::WorkloadSpec spec = wl::ycsb_spec();
    spec.ops_per_sec *= 0.30;
    wl::SyntheticWorkload gen(spec, simulator.ssd_array().user_pages(), config.seed);
    FirstNextStamp stamped(gen, first_next);
    return simulator.run(stamped);
  });
}

struct BaselineCell {
  double sim_seconds = 0.0;
  std::uint64_t ops = 0;
  double ops_per_sec = 0.0;
};

// Pulls one numeric field out of a flat JSONL bench record. The records are
// this bench's own output (no nesting, no escapes), so a substring scan is
// exact; a missing field returns false.
bool extract_number(const std::string& line, const char* field, double& out) {
  const std::string needle = std::string("\"") + field + "\":";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return false;
  out = std::strtod(line.c_str() + pos + needle.size(), nullptr);
  return true;
}

bool extract_string(const std::string& line, const char* field, std::string& out) {
  const std::string needle = std::string("\"") + field + "\":\"";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return false;
  const auto start = pos + needle.size();
  const auto end = line.find('"', start);
  if (end == std::string::npos) return false;
  out = line.substr(start, end - start);
  return true;
}

std::map<std::string, BaselineCell> load_baseline(const char* path) {
  std::ifstream in(path);
  JITGC_ENSURE_MSG(static_cast<bool>(in), "cannot open baseline JSONL");
  std::map<std::string, BaselineCell> cells;
  std::string line;
  while (std::getline(in, line)) {
    std::string type, name, config;
    if (!extract_string(line, "type", type) || type != "bench") continue;
    if (!extract_string(line, "name", name) || name != "sim_throughput") continue;
    if (!extract_string(line, "config", config)) continue;
    BaselineCell cell;
    double ops = 0.0;
    if (!extract_number(line, "sim_seconds", cell.sim_seconds) ||
        !extract_number(line, "ops", ops) ||
        !extract_number(line, "ops_per_sec", cell.ops_per_sec)) {
      continue;
    }
    cell.ops = static_cast<std::uint64_t>(ops);
    cells[config] = cell;
  }
  JITGC_ENSURE_MSG(!cells.empty(), "baseline JSONL has no sim_throughput bench records");
  return cells;
}

void report_cell(const char* config, Measurement (*run)(double), double sim_seconds,
                 const std::map<std::string, BaselineCell>& baseline) {
  const Measurement m = run(sim_seconds);
  std::printf(
      "{\"type\":\"bench\",\"name\":\"sim_throughput\",\"config\":\"%s\","
      "\"sim_seconds\":%g,\"ops\":%llu,\"wall_s\":%.3f,\"ops_per_sec\":%.1f,"
      "\"setup_s\":%.4f,\"ns_per_op\":%.1f}\n",
      config, sim_seconds, static_cast<unsigned long long>(m.ops), m.wall_s, m.ops_per_sec,
      m.setup_s, m.ns_per_op);
  const auto it = baseline.find(config);
  if (it != baseline.end()) {
    // Same simulated duration as the recording means the deterministic
    // contract pins the op count: a mismatch is a behavior change, and the
    // wall-clock ratio below would compare different work.
    if (it->second.sim_seconds == sim_seconds) {
      JITGC_ENSURE_MSG(it->second.ops == m.ops,
                       "op count diverged from the recorded baseline");
    }
    std::printf(
        "{\"type\":\"bench_summary\",\"name\":\"sim_throughput_ratio\",\"config\":\"%s\","
        "\"baseline_ops_per_sec\":%.1f,\"ratio\":%.2f}\n",
        config, it->second.ops_per_sec, m.ops_per_sec / it->second.ops_per_sec);
  }
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const double sim_seconds = argc > 1 ? std::atof(argv[1]) : 60.0;
  JITGC_ENSURE_MSG(sim_seconds > 0, "sim_seconds must be positive");
  std::map<std::string, BaselineCell> baseline;
  if (argc > 2) baseline = load_baseline(argv[2]);
  report_cell("single_ssd", run_single, sim_seconds, baseline);
  report_cell("array_8dev", run_array, sim_seconds, baseline);
  return 0;
}
