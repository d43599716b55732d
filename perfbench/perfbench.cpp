// perfbench: measured-run speed, cold set-up and the paper's simulated
// metrics of the jitgc simulator on four layer-targeted workloads.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// One process runs one workload. It repeats the same seeded simulation
// (construct, precondition, measured run) until the measured runs add up to
// --seconds of host wall time, and reports medians over the repetitions.
// Every repetition runs on one thread; the array steps on one thread too.
//
// The measured run starts at the first WorkloadGenerator::next() call after
// run() is entered and ends when run() returns; set-up is everything from
// simulator construction to that first call (no snapshot cache is attached,
// so this is the cold cost a jitgc_cli invocation pays). Both instants come
// from the adapters in adapters.h, which wrap only public interfaces.
//
// --trace 1 alternates bare repetitions with traced ones, whose adapters
// time every wrapped call and record every tick, and reports the per-layer
// metrics instead of the end-to-end ones.
//
// Output: one {"perfbench_build": ...} line (compiler, build type, nproc,
// seed), then one result line {"correct", "attempted", "failed", "metrics"}.
// A repetition fails when it throws, ends early, reports a tail at the
// TailTracker clamp, or simulates differently from the first repetition of
// the same seed. Builds without NDEBUG or with sanitizers are refused.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "adapters.h"
#include "array/array_simulator.h"
#include "common/rng.h"
#include "host/frontend/frontend.h"
#include "sim/experiment.h"
#include "sim/metrics_sink.h"
#include "workload/specs.h"
#include "workload/synthetic.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif

namespace {

using namespace jitgc;
using perfbench::Clock;
using perfbench::Probe;
using perfbench::ProbedGenerator;
using perfbench::ProbedPolicy;
using perfbench::ProbedSink;
using perfbench::TickSample;

using Metrics = std::map<std::string, double>;

/// Keys the user seed into the simulator's seed space (seed 0 included).
constexpr std::uint64_t kSeedBase = 0x9E7F0BE4C4ULL;
/// Bare/traced pairs a --trace 1 run makes before the time budget may stop it.
constexpr std::size_t kMinTracedPairs = 3;
/// Host wall cap for one invocation; the driver allows 180 s.
constexpr double kWallCapS = 120.0;
/// TailTracker::run_level() clamps at 8192 bins of 100 us: a p99 at the last
/// bin edge is a floor, not a measurement, and can never get worse.
constexpr double kTailClampUs = 8191.0 * 100.0 - 100.0;

enum class Shape { kSingle, kArray, kTenants };

struct Workload {
  const char* name;
  Shape shape;
  /// Simulated length of one repetition's measured run.
  double sim_seconds;
  /// Independent simulator seeds derived from --seed. Repetitions cycle
  /// through them; the simulated metrics are their mean. The ON/OFF burst
  /// model makes one seed's IOPS vary by about 15 % over 1800 simulated
  /// seconds, so one seed alone would make --seed, not the code, set the
  /// figure.
  std::size_t sub_seeds;
};

// Why each workload exists (see README.md for the full rationale):
//  ycsb_jit          paper's headline cell: page-cache writeback, CDH and
//                    buffered predictors with SIP deltas, SIP-filtered BGC.
//  tpcc_lazy         99.9 % direct writes under L-BGC: bypasses the page cache
//                    and the predictor; FTL host path plus foreground GC.
//  array8_staggered  8-device RAID-0, staggered GC windows, open loop at 0.3x
//                    the YCSB rate; striping, GcCoordinator, heavy set-up.
//  tenants_closed    YCSB-B victim vs write-burst aggressor through the
//                    HostFrontend under multi-stream JIT. Closed loop on
//                    purpose: tenant_isolation's open-loop shared pair hits the
//                    p99 clamp even at 0.3x load and its backlog (and RSS)
//                    keeps growing with run length.
const Workload kWorkloads[] = {
    {"ycsb_jit", Shape::kSingle, 600.0, 10},
    {"tpcc_lazy", Shape::kSingle, 1200.0, 8},
    {"array8_staggered", Shape::kArray, 1800.0, 12},
    {"tenants_closed", Shape::kTenants, 600.0, 10},
};

// -- Host speed --------------------------------------------------------------------

/// A fixed hash-map workload timed between repetitions. On a shared host the
/// simulator's speed drifts by +-25 % within seconds as neighbours contend for
/// the last-level cache and memory; this probe slows down with it
/// (correlation 0.85 per repetition on a 4-vCPU VM), while a pointer chase or
/// a multiply chain does not. Host times are reported divided by the probe's
/// slowdown against kReferenceProbeS, i.e. in nanoseconds of a host running
/// the probe at the reference speed. The probe is benchmark code: a change to
/// the simulator cannot move it.
class SpeedProbe {
 public:
  SpeedProbe() { run(kWarmupOps); }

  /// Probe time over the reference time (> 1: the host is slower).
  double slowdown() { return run(kOps) / kReferenceProbeS; }

 private:
  static constexpr int kOps = 400000;
  static constexpr int kWarmupOps = 1000000;
  static constexpr std::uint64_t kKeys = 400000;
  /// kOps on a quiet 4-vCPU Intel Xeon VM (GCC 12.2, -O3).
  static constexpr double kReferenceProbeS = 0.060;

  double run(int ops) {
    const Clock::time_point start = Clock::now();
    for (int k = 0; k < ops; ++k) {
      x_ ^= x_ << 13;
      x_ ^= x_ >> 7;
      x_ ^= x_ << 17;
      const auto it = table_.find(x_ % kKeys);
      if (it == table_.end()) {
        table_.emplace(x_ % kKeys, x_);
      } else if ((acc_ += it->second) & 1) {
        it->second ^= acc_;
      } else {
        table_.erase(it);
      }
    }
    return std::chrono::duration<double>(Clock::now() - start).count();
  }

  std::unordered_map<std::uint64_t, std::uint64_t> table_;
  std::uint64_t x_ = 0x2545F4914F6CDD1DULL;
  std::uint64_t acc_ = 0;
};

/// Per-layer metrics that are host times, scaled like ns_per_op.
const char* const kHostTimeLayers[] = {
    "workload.next_ns",        "core.on_interval_us",     "sim.engine_self_ns_per_op",
    "sim.interval_ms_first_q", "sim.interval_ms_last_q",
};

// -- Build guard ------------------------------------------------------------------

bool sanitized_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return true;
#endif
#endif
  return std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") != nullptr;
}

bool debug_build() {
#ifdef NDEBUG
  return false;
#else
  return true;
#endif
}

// -- One repetition -----------------------------------------------------------------

/// What one repetition observed on the host side.
struct Trace {
  Probe probe;
  sim::RecordingMetricsSink records;
  std::unique_ptr<ProbedSink> sink;
  Clock::time_point constructed_at;
  Clock::time_point run_at;
  Clock::time_point end_at;
  std::uint32_t devices = 1;
  double flush_period_s = 0.0;
};

template <typename Simulator>
void attach_sink(Simulator& simulator, Trace& t, ProbedSink::Counters counters) {
  if (!t.probe.timed) return;
  t.sink = std::make_unique<ProbedSink>(t.records, t.probe, std::move(counters));
  simulator.set_metrics_sink(t.sink.get());
}

template <typename Run>
sim::SimReport timed_run(Trace& t, Run&& run) {
  t.probe.arm();
  t.run_at = Clock::now();
  sim::SimReport report = run();
  t.end_at = Clock::now();
  return report;
}

std::pair<std::uint64_t, std::uint64_t> device_counters(const sim::Ssd& ssd) {
  return {ssd.ftl().nand().stats().page_programs, ssd.ftl().stats().host_pages_written};
}

sim::SimReport run_single(const Workload& w, std::uint64_t seed, Trace& t) {
  const bool tpcc = std::strcmp(w.name, "tpcc_lazy") == 0;
  sim::SimConfig config = sim::default_sim_config(seed);
  config.duration = seconds(w.sim_seconds);
  t.flush_period_s = to_seconds(config.cache.flush_period);

  t.constructed_at = Clock::now();
  sim::Simulator simulator(config);
  ProbedGenerator gen(std::make_unique<wl::SyntheticWorkload>(
                          tpcc ? wl::tpcc_spec() : wl::ycsb_spec(),
                          simulator.ssd().ftl().user_pages(), config.seed),
                      t.probe);
  const auto policy =
      sim::make_policy(tpcc ? sim::PolicyKind::kLazy : sim::PolicyKind::kJit, config);
  ProbedPolicy probed(*policy, t.probe);
  core::BgcPolicy& active = t.probe.timed ? probed : *policy;
  attach_sink(simulator, t, [&simulator] { return device_counters(simulator.ssd()); });
  return timed_run(t, [&] { return simulator.run(gen, active); });
}

sim::SimReport run_array(const Workload& w, std::uint64_t seed, Trace& t) {
  const sim::SimConfig base = sim::default_sim_config(seed);
  array::ArraySimConfig config;
  config.ssd = base.ssd;
  config.duration = seconds(w.sim_seconds);
  config.flush_period = base.cache.flush_period;
  config.seed = base.seed;
  config.step_threads = 1;
  config.array.devices = 8;
  config.array.gc_mode = array::ArrayGcMode::kStaggered;
  t.devices = config.array.devices;
  t.flush_period_s = to_seconds(config.flush_period);

  t.constructed_at = Clock::now();
  array::ArraySimulator simulator(config);
  // Below the 8-device sustainable rate, as in bench/sim_throughput, so the
  // run measures steady work rather than backlog collapse.
  wl::WorkloadSpec spec = wl::ycsb_spec();
  spec.ops_per_sec *= 0.30;
  ProbedGenerator gen(
      std::make_unique<wl::SyntheticWorkload>(spec, simulator.ssd_array().user_pages(),
                                              config.seed),
      t.probe);
  attach_sink(simulator, t, [&simulator] {
    std::pair<std::uint64_t, std::uint64_t> sum{0, 0};
    const array::SsdArray& devices = simulator.ssd_array();
    for (std::uint32_t d = 0; d < devices.total_device_count(); ++d) {
      const auto [programs, host_pages] = device_counters(devices.device(d));
      sum.first += programs;
      sum.second += host_pages;
    }
    return sum;
  });
  return timed_run(t, [&] { return simulator.run(gen); });
}

/// bench/tenant_isolation's bursty write aggressor: short ON bursts at a
/// high issue rate, half the writes direct.
wl::WorkloadSpec aggressor_spec() {
  wl::WorkloadSpec spec;
  spec.name = "wburst";
  spec.read_fraction = 0.05;
  spec.direct_write_fraction = 0.5;
  spec.ops_per_sec = 6000.0;
  spec.mean_on_period_s = 3.0;
  spec.duty_cycle = 0.45;
  spec.sequential_fraction = 0.3;
  return spec;
}

sim::SimReport run_tenants(const Workload& w, std::uint64_t seed, Trace& t) {
  sim::SimConfig config = sim::default_sim_config(seed);
  config.duration = seconds(w.sim_seconds);
  frontend::TenantSpec victim;
  victim.mix = "ycsb-b";
  victim.closed_loop = true;
  frontend::TenantSpec aggressor;
  aggressor.mix = "wburst";
  aggressor.closed_loop = true;
  config.frontend.tenants = {victim, aggressor};
  t.flush_period_s = to_seconds(config.cache.flush_period);

  t.constructed_at = Clock::now();
  sim::Simulator simulator(config);
  const frontend::GeneratorFactory factory =
      [](const frontend::TenantSpec& spec, std::uint32_t /*tenant*/, Lba partition_pages,
         std::uint64_t s) -> std::unique_ptr<wl::WorkloadGenerator> {
    return std::make_unique<wl::SyntheticWorkload>(
        spec.mix == "wburst" ? aggressor_spec() : wl::ycsb_b_spec(), partition_pages, s);
  };
  frontend::HostFrontend fe(config.frontend, simulator.ssd().ftl().user_pages(),
                            config.ssd.ftl.geometry.page_size, config.seed,
                            perfbench::probed_factory(factory, t.probe));
  const auto policy =
      sim::make_policy(sim::PolicyKind::kJit, config, 1.0, sim::PolicyOverrides{}, &fe);
  ProbedPolicy probed(*policy, t.probe);
  core::BgcPolicy& active = t.probe.timed ? probed : *policy;
  attach_sink(simulator, t, [&simulator] { return device_counters(simulator.ssd()); });
  return timed_run(t, [&] { return simulator.run(fe, active); });
}

/// The simulated statistics every repetition of one seed must reproduce.
struct SimStats {
  std::uint64_t ops = 0;
  std::uint64_t programs = 0;
  std::uint64_t erases = 0;
  std::uint64_t migrations = 0;
  double waf = 0.0;
  double p99_us = 0.0;
  bool operator==(const SimStats&) const = default;
};

double headline_p99(const Workload& w, const sim::SimReport& r) {
  // On tenants_closed the user-visible tail is the victim's.
  return w.shape == Shape::kTenants && !r.tenants.empty() ? r.tenants[0].p99_latency_us
                                                          : r.p99_latency_us;
}

struct Rep {
  std::size_t sub_seed = 0;
  bool traced = false;
  std::string failure;  ///< empty: the repetition passed every guard
  sim::SimReport report;
  SimStats stats;
  double construct_s = 0.0;
  double precondition_s = 0.0;
  double setup_s = 0.0;
  double measured_s = 0.0;
  double ns_per_op = 0.0;
  /// Mean SpeedProbe slowdown just before and just after the repetition.
  double slowdown = 1.0;
  Metrics layers;  ///< traced repetitions only
};

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// Per-layer metrics of one traced repetition. Metrics of layers the
/// workload does not exercise read 0.
Metrics layer_metrics(const Workload& w, const Trace& t, const sim::SimReport& r,
                      const Clock::time_point measured_start, double measured_s) {
  const double wall_ns = measured_s * 1e9;
  const double ops = static_cast<double>(r.ops_completed);
  const double kops = ops / 1000.0;
  const Probe& p = t.probe;
  Metrics m;
  m["workload.next_ns"] = ratio(static_cast<double>(p.next.ns), static_cast<double>(p.next.calls));
  m["workload.share"] = ratio(static_cast<double>(p.next.ns), wall_ns);
  m["core.on_interval_us"] =
      ratio(static_cast<double>(p.policy.ns) / 1000.0, static_cast<double>(p.policy.calls));
  m["core.share"] = ratio(static_cast<double>(p.policy.ns), wall_ns);
  m["sim.engine_self_ns_per_op"] =
      ratio(wall_ns - static_cast<double>(p.next.ns + p.policy.ns + p.sink.ns), ops);
  m["trace.sink_share"] = ratio(static_cast<double>(p.sink.ns), wall_ns);

  const bool predicts = r.predicted_intervals > 0;
  m["core.prediction_accuracy"] = predicts ? r.prediction_accuracy : 0.0;
  m["core.reclaim_requested_mib"] =
      static_cast<double>(r.reclaim_requested_bytes) / static_cast<double>(MiB);

  // Host traffic and device occupancy from the tick records.
  double flush = 0.0;
  double direct = 0.0;
  double idle_us = 0.0;
  double busy_us = 0.0;
  for (const auto& rec : t.records.intervals()) {
    flush += static_cast<double>(rec.flush_bytes);
    direct += static_cast<double>(rec.direct_bytes);
    idle_us += static_cast<double>(rec.idle_us);
  }
  // The array sits below the page cache: every host write is a device write.
  for (const auto& rec : t.records.array_intervals()) {
    direct += static_cast<double>(rec.write_bytes);
  }
  for (const auto& rec : t.records.device_intervals()) {
    busy_us += static_cast<double>(rec.busy_us);
  }
  const double ticks = static_cast<double>(t.sink->ticks().size());
  const double device_time_us = ticks * t.flush_period_s * 1e6 * t.devices;
  m["host.writeback_mib"] = flush / static_cast<double>(MiB);
  m["host.direct_mib"] = direct / static_cast<double>(MiB);
  m["sim.device_busy_share"] = w.shape == Shape::kArray
                                   ? ratio(busy_us, device_time_us)
                                   : (device_time_us > 0.0 ? 1.0 - idle_us / device_time_us : 0.0);

  m["ftl.fgc_cycles_per_kop"] = ratio(static_cast<double>(r.fgc_cycles), kops);
  m["ftl.fgc_time_share"] = ratio(r.fgc_time_s, r.duration_s * t.devices);
  m["ftl.victim_selections_per_kop"] = ratio(static_cast<double>(r.victim_selections), kops);
  m["ftl.sip_filtered_fraction"] = r.sip_filtered_fraction;
  m["ftl.pages_migrated_per_kop"] = ratio(static_cast<double>(r.pages_migrated), kops);
  m["nand.programs_per_kop"] = ratio(static_cast<double>(r.nand_programs), kops);
  m["nand.erases_per_kop"] = ratio(static_cast<double>(r.nand_erases), kops);

  double stalled = 0.0;
  double array_ops = 0.0;
  double gc_devices = 0.0;
  for (const auto& rec : t.records.array_intervals()) {
    stalled += static_cast<double>(rec.gc_stalled_ops);
    array_ops += static_cast<double>(rec.ops);
    gc_devices += static_cast<double>(rec.gc_devices);
  }
  m["array.gc_stalled_share"] = ratio(stalled, array_ops);
  m["array.gc_devices_per_tick"] =
      ratio(gc_devices, static_cast<double>(t.records.array_intervals().size()));

  m["host.frontend.victim_p99_us"] = r.tenants.size() > 0 ? r.tenants[0].p99_latency_us : 0.0;
  m["host.frontend.aggressor_p99_us"] = r.tenants.size() > 1 ? r.tenants[1].p99_latency_us : 0.0;

  // Steady-state evidence: host ms per simulated interval and interval WAF
  // over the first and last quarter of the ticks.
  const std::vector<TickSample>& ts = t.sink->ticks();
  const std::size_t n = ts.size();
  const std::size_t q = std::max<std::size_t>(1, n / 4);
  const auto quarter = [&](std::size_t from, std::size_t to, const char* ms_key,
                           const char* waf_key) {
    const TickSample* begin = from == 0 ? nullptr : &ts[from - 1];
    const TickSample& end = ts[to - 1];
    m[ms_key] = seconds_between(begin ? begin->at : measured_start, end.at) * 1e3 /
                static_cast<double>(to - from);
    // The first tick has no earlier counter sample, so the first quarter's
    // WAF starts at tick 1.
    const TickSample& base = begin ? *begin : ts[0];
    m[waf_key] = ratio(static_cast<double>(end.programs - base.programs),
                       static_cast<double>(end.host_pages - base.host_pages));
  };
  if (n >= 2) {
    quarter(0, q, "sim.interval_ms_first_q", "sim.interval_waf_first_q");
    quarter(n - q, n, "sim.interval_ms_last_q", "sim.interval_waf_last_q");
  }
  return m;
}

Rep run_rep(const Workload& w, std::uint64_t seed, std::size_t sub_seed, bool traced) {
  Rep rep;
  rep.sub_seed = sub_seed;
  rep.traced = traced;
  Trace t;
  t.probe.timed = traced;
  const std::uint64_t sim_seed = derive_seed(seed, sub_seed);
  try {
    switch (w.shape) {
      case Shape::kSingle: rep.report = run_single(w, sim_seed, t); break;
      case Shape::kArray: rep.report = run_array(w, sim_seed, t); break;
      case Shape::kTenants: rep.report = run_tenants(w, sim_seed, t); break;
    }
  } catch (const std::exception& e) {
    rep.failure = std::string("aborted: ") + e.what();
    return rep;
  }
  const sim::SimReport& r = rep.report;
  rep.stats = SimStats{r.ops_completed, r.nand_programs, r.nand_erases,
                       r.pages_migrated, r.waf, headline_p99(w, r)};
  if (!t.probe.measured_start || r.ops_completed == 0) {
    rep.failure = "the measured run issued no ops";
    return rep;
  }
  const Clock::time_point start = *t.probe.measured_start;
  rep.construct_s = seconds_between(t.constructed_at, t.run_at);
  rep.precondition_s = seconds_between(t.run_at, start);
  rep.setup_s = seconds_between(t.constructed_at, start);
  rep.measured_s = seconds_between(start, t.end_at);
  rep.ns_per_op = rep.measured_s * 1e9 / static_cast<double>(r.ops_completed);

  if (r.run_end_reason != "completed") {
    rep.failure = "run ended early: " + r.run_end_reason;
  } else {
    std::vector<double> tails = {r.p99_latency_us};
    for (const auto& tenant : r.tenants) tails.push_back(tenant.p99_latency_us);
    for (const double tail : tails) {
      if (tail >= kTailClampUs) rep.failure = "p99 at the tail-tracker clamp";
    }
  }
  if (traced) rep.layers = layer_metrics(w, t, r, start, rep.measured_s);
  return rep;
}

// -- Aggregation and output ---------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

template <typename Field>
double median_of(const std::vector<Rep>& reps, Field field) {
  std::vector<double> v;
  for (const Rep& rep : reps) {
    if (rep.failure.empty()) v.push_back(field(rep));
  }
  return median(v);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double current_rss_mib() {
  long size = 0;
  long pages = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &size, &pages) != 2) pages = 0;
    std::fclose(f);
  }
  return static_cast<double>(pages) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         static_cast<double>(MiB);
}

const char* unit_of(const std::string& name) {
  static const std::map<std::string, const char*> units = {
      {"ns_per_op", "ns"},
      {"setup_s", "s"},
      {"peak_rss_mib", "MiB"},
      {"sim_iops", "1/s"},
      {"sim_waf", "ratio"},
      {"sim_p99_us", "us"},
      {"completed_run_share", "share"},
      {"sim.construct_s", "s"},
      {"sim.precondition_s", "s"},
      {"workload.next_ns", "ns"},
      {"workload.share", "share"},
      {"core.on_interval_us", "us"},
      {"core.share", "share"},
      {"sim.engine_self_ns_per_op", "ns"},
      {"trace.sink_share", "share"},
      {"core.prediction_accuracy", "share"},
      {"core.reclaim_requested_mib", "MiB"},
      {"host.writeback_mib", "MiB"},
      {"host.direct_mib", "MiB"},
      {"sim.device_busy_share", "share"},
      {"ftl.fgc_cycles_per_kop", "count/kop"},
      {"ftl.fgc_time_share", "s/s"},
      {"ftl.victim_selections_per_kop", "count/kop"},
      {"ftl.sip_filtered_fraction", "share"},
      {"ftl.pages_migrated_per_kop", "count/kop"},
      {"nand.programs_per_kop", "count/kop"},
      {"nand.erases_per_kop", "count/kop"},
      {"array.gc_stalled_share", "share"},
      {"array.gc_devices_per_tick", "count"},
      {"host.frontend.victim_p99_us", "us"},
      {"host.frontend.aggressor_p99_us", "us"},
      {"sim.interval_ms_first_q", "ms"},
      {"sim.interval_ms_last_q", "ms"},
      {"sim.interval_waf_first_q", "ratio"},
      {"sim.interval_waf_last_q", "ratio"},
      {"trace_overhead", "ratio"},
      {"sim.wall_ns_per_op", "ns"},
      {"bench.host_slowdown", "ratio"},
  };
  const auto it = units.find(name);
  return it != units.end() ? it->second : "";
}

void print_metrics(const Metrics& metrics) {
  bool first = true;
  for (const auto& [name, value] : metrics) {
    std::printf("%s\"%s\": {\"value\": ", first ? "" : ", ", name.c_str());
    // JSON has no NaN or infinity; null makes the checker flag the metric.
    if (std::isfinite(value)) {
      std::printf("%.17g", value);
    } else {
      std::printf("null");
    }
    std::printf(", \"unit\": \"%s\"}", unit_of(name));
    first = false;
  }
}

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\nworkloads:",
               why);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) args.workload = &w;
      }
      if (args.workload == nullptr) usage(("unknown workload " + value).c_str());
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || value[0] == '-') {
        usage("--seed takes an unsigned integer");
      }
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0.0) || args.seconds > 60.0) {
        usage("--seconds takes a number in (0, 60]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload == nullptr || !have_seed || args.seconds <= 0.0) {
    usage("--workload, --seed and --seconds are required");
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (debug_build() || sanitized_build()) {
    std::fprintf(stderr,
                 "perfbench: refusing to time a %s build (build type %s); rebuild as Release "
                 "without sanitizers\n",
                 debug_build() ? "non-NDEBUG" : "sanitized", PERFBENCH_BUILD_TYPE);
    return 3;
  }
  const Workload& w = *args.workload;
  const std::uint64_t seed = derive_seed(kSeedBase, args.seed);

  // --trace 0 makes one pass over the sub-seeds plus one repeat, for the
  // determinism guard, then keeps cycling until --seconds of measured run.
  // --trace 1 runs each sub-seed bare and then traced, so both sides see the
  // same work and the same machine drift.
  std::vector<Rep> reps;
  double measured_s = 0.0;
  const Clock::time_point began = Clock::now();
  // The probe's table stays resident for the whole run; peak_rss_mib leaves
  // it out so the metric covers the simulator alone.
  const double rss_before_probe = current_rss_mib();
  SpeedProbe speed;
  const double probe_rss_mib = current_rss_mib() - rss_before_probe;
  double slowdown_before = speed.slowdown();
  for (std::size_t i = 0;; ++i) {
    const bool traced = args.trace && i % 2 == 1;
    const std::size_t sub_seed = (args.trace ? i / 2 : i) % w.sub_seeds;
    Rep rep = run_rep(w, seed, sub_seed, traced);
    const double slowdown_after = speed.slowdown();
    rep.slowdown = 0.5 * (slowdown_before + slowdown_after);
    slowdown_before = slowdown_after;
    for (const char* name : kHostTimeLayers) {
      if (const auto it = rep.layers.find(name); it != rep.layers.end()) it->second /= rep.slowdown;
    }
    measured_s += rep.measured_s;
    std::fprintf(stderr,
                 "perfbench: %s rep %zu (sub-seed %zu%s): setup %.4f s, %.1f ns/op, "
                 "slowdown %.3f, %llu ops%s%s\n",
                 w.name, i, sub_seed, traced ? ", traced" : "", rep.setup_s, rep.ns_per_op,
                 rep.slowdown, static_cast<unsigned long long>(rep.stats.ops),
                 rep.failure.empty() ? "" : ": ", rep.failure.c_str());
    reps.push_back(std::move(rep));
    const bool enough = args.trace ? traced && i + 1 >= 2 * kMinTracedPairs : i + 1 > w.sub_seeds;
    if (enough && measured_s >= args.seconds) break;
    if (seconds_between(began, Clock::now()) > kWallCapS) break;
  }

  // Determinism guard: every repetition of a sub-seed, traced or not, must
  // simulate exactly what its first repetition did.
  std::map<std::size_t, SimStats> first_of;
  std::size_t failed = 0;
  for (Rep& rep : reps) {
    const auto [it, inserted] = first_of.emplace(rep.sub_seed, rep.stats);
    if (rep.failure.empty() && !inserted && !(rep.stats == it->second)) {
      rep.failure = "simulated statistics differ between repetitions of one seed";
      std::fprintf(stderr, "perfbench: sub-seed %zu: %s\n", rep.sub_seed, rep.failure.c_str());
    }
    if (!rep.failure.empty()) ++failed;
  }
  const std::size_t attempted = reps.size();
  // A --trace 0 run cut short by the wall cap has not averaged every sub-seed.
  const bool full_pass = args.trace || attempted >= w.sub_seeds;
  if (!full_pass) std::fprintf(stderr, "perfbench: wall cap hit before every sub-seed ran\n");

  std::vector<Rep> bare;
  std::vector<Rep> traced;
  for (const Rep& rep : reps) (rep.traced ? traced : bare).push_back(rep);
  Metrics metrics;
  const auto scaled_ns = [](const Rep& r) { return r.ns_per_op / r.slowdown; };
  const double bare_ns = median_of(bare, scaled_ns);
  if (!args.trace) {
    metrics["ns_per_op"] = bare_ns;
    metrics["setup_s"] = median_of(bare, [](const Rep& r) { return r.setup_s / r.slowdown; });
    metrics["peak_rss_mib"] = peak_rss_mib() - probe_rss_mib;
    // The paper's metrics: mean over the sub-seeds' first repetitions.
    double iops = 0.0;
    double waf = 0.0;
    double p99 = 0.0;
    for (std::size_t k = 0; k < w.sub_seeds && k < bare.size(); ++k) {
      iops += bare[k].report.iops;
      waf += bare[k].stats.waf;
      p99 += bare[k].stats.p99_us;
    }
    const double n = static_cast<double>(std::min(w.sub_seeds, bare.size()));
    metrics["sim_iops"] = iops / n;
    metrics["sim_waf"] = waf / n;
    metrics["sim_p99_us"] = p99 / n;
    metrics["completed_run_share"] =
        static_cast<double>(attempted - failed) / static_cast<double>(attempted);
  } else {
    metrics["sim.construct_s"] =
        median_of(reps, [](const Rep& r) { return r.construct_s / r.slowdown; });
    metrics["sim.precondition_s"] =
        median_of(reps, [](const Rep& r) { return r.precondition_s / r.slowdown; });
    metrics["sim.wall_ns_per_op"] = median_of(bare, [](const Rep& r) { return r.ns_per_op; });
    metrics["bench.host_slowdown"] = median_of(reps, [](const Rep& r) { return r.slowdown; });
    std::map<std::string, std::vector<double>> layers;
    for (const Rep& rep : traced) {
      if (!rep.failure.empty()) continue;
      for (const auto& [name, value] : rep.layers) layers[name].push_back(value);
    }
    for (auto& [name, values] : layers) metrics[name] = median(std::move(values));
    metrics["trace_overhead"] = ratio(median_of(traced, scaled_ns), bare_ns);
  }

  std::printf(
      "{\"perfbench_build\": {\"compiler\": \"%s\", \"build_type\": \"%s\", \"nproc\": %ld, "
      "\"seed\": %llu, \"workload\": \"%s\", \"sim_seconds\": %g, \"sub_seeds\": %zu, "
      "\"reps\": %zu, \"traced_reps\": %zu}}\n",
      __VERSION__, PERFBENCH_BUILD_TYPE, sysconf(_SC_NPROCESSORS_ONLN),
      static_cast<unsigned long long>(args.seed), w.name, w.sim_seconds, w.sub_seeds, bare.size(),
      traced.size());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              failed == 0 && full_pass ? "true" : "false", attempted, failed);
  print_metrics(metrics);
  std::printf("}}\n");
  return 0;
}
