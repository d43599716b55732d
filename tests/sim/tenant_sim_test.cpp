// End-to-end multi-tenant front-end runs through the Simulator: per-tenant
// records and QoS grading, run-to-run determinism, legacy single-stream
// invariance, snapshot-fingerprint hygiene (tenant knobs must not split the
// warm-snapshot cache), and the tenant CLI validation surface.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "host/frontend/frontend.h"
#include "sim/cli_options.h"
#include "sim/experiment.h"
#include "sim/metrics_sink.h"
#include "sim/simulator.h"
#include "sim/snapshot.h"
#include "temp_path.h"
#include "workload/synthetic.h"

namespace jitgc::sim {
namespace {

std::optional<CliOptions> parse(std::initializer_list<const char*> args,
                                std::string* err = nullptr) {
  std::vector<std::string> v(args.begin(), args.end());
  std::string error;
  const auto opt = parse_cli(v, error);
  if (err) *err = error;
  return opt;
}

/// Two synthetic tenants (ycsb-a vs ycsb-b) under JIT-GC, short measured run.
CliOptions two_tenant_options(std::uint64_t seed, std::vector<std::string> weights) {
  CliOptions opt;
  opt.tenants = 2;
  opt.tenant_mix = {"ycsb-a", "ycsb-b"};
  opt.tenant_weight.clear();
  for (const auto& w : weights) opt.tenant_weight.push_back(std::stod(w));
  opt.tenant_qos_p99_ms = {50.0};
  opt.seed = seed;
  return opt;
}

struct TenantRunOutput {
  SimReport report;
  std::vector<IntervalRecord> intervals;
  std::vector<TenantIntervalRecord> tenant_intervals;
};

TenantRunOutput run_tenant_cell(const CliOptions& opt, SnapshotCache* snapshots = nullptr) {
  SimConfig config = default_sim_config(opt.seed);
  // Long enough that every tenant's ON/OFF burst process turns on at least
  // once for any seed (the OFF phases are multi-second and seed-dependent).
  config.duration = seconds(60);
  config.frontend = frontend_config_from_cli(opt);

  Simulator simulator(config);
  if (snapshots != nullptr) simulator.set_snapshot_cache(snapshots);
  auto fe = make_frontend_from_cli(opt, simulator.ssd().ftl().user_pages(),
                                   config.ssd.ftl.geometry.page_size);
  auto policy = make_policy(PolicyKind::kJit, config, 1.0, PolicyOverrides{}, fe.get());

  RecordingMetricsSink sink;
  simulator.set_metrics_sink(&sink);
  TenantRunOutput out;
  out.report = simulator.run(*fe, *policy);
  out.intervals = sink.intervals();
  out.tenant_intervals = sink.tenant_intervals();
  return out;
}

/// Everything a run emitted, as the JSONL the sinks would write — the
/// determinism contract is on serialized bytes, not on struct comparisons.
std::string serialize(const TenantRunOutput& out) {
  std::string s;
  for (const auto& record : out.intervals) {
    s += format_jsonl(0, 1, record);
    s += '\n';
  }
  for (const auto& record : out.tenant_intervals) {
    s += format_jsonl(0, 1, record);
    s += '\n';
  }
  s += format_jsonl(0, 1, out.report);
  s += '\n';
  return s;
}

/// Removes the cache-only run fields (`snapshot`, `precondition_wall_s`) so
/// cache-attached output compares against its own cold replay (the formatter
/// appends them last, immediately before the closing brace).
std::string strip_snapshot_fields(const std::string& jsonl) {
  std::string out;
  std::istringstream in(jsonl);
  std::string line;
  while (std::getline(in, line)) {
    const auto pos = line.find(",\"snapshot\":\"");
    if (pos != std::string::npos && !line.empty() && line.back() == '}') {
      line.erase(pos, line.size() - 1 - pos);
    }
    out += line;
    out += '\n';
  }
  return out;
}

TEST(TenantSim, TwoTenantRunEmitsPerTenantRecords) {
  const auto opt = two_tenant_options(/*seed=*/3, {"2", "1"});
  const TenantRunOutput out = run_tenant_cell(opt);

  // Run-level: one TenantSummary per tenant, echoing the spec.
  ASSERT_EQ(out.report.tenants.size(), 2u);
  EXPECT_EQ(out.report.tenants[0].mix, "ycsb-a");
  EXPECT_EQ(out.report.tenants[1].mix, "ycsb-b");
  EXPECT_DOUBLE_EQ(out.report.tenants[0].weight, 2.0);
  EXPECT_DOUBLE_EQ(out.report.tenants[1].weight, 1.0);
  std::uint64_t tenant_ops = 0;
  for (const auto& t : out.report.tenants) {
    EXPECT_GT(t.ops, 0u) << "tenant " << t.tenant << " never completed an op";
    EXPECT_GT(t.write_bytes + t.read_bytes, 0u);
    EXPECT_DOUBLE_EQ(t.qos_p99_ms, 50.0);
    EXPECT_EQ(t.qos_met, t.p99_latency_us <= t.qos_p99_ms * 1000.0);
    tenant_ops += t.ops;
  }
  EXPECT_EQ(tenant_ops, out.report.ops_completed);

  // Interval-level: one tenant record per tenant per flusher tick, in
  // tenant order behind its interval.
  ASSERT_FALSE(out.intervals.empty());
  ASSERT_EQ(out.tenant_intervals.size(), out.intervals.size() * 2);
  for (std::size_t i = 0; i < out.tenant_intervals.size(); ++i) {
    const auto& record = out.tenant_intervals[i];
    EXPECT_EQ(record.tenant, i % 2);
    EXPECT_EQ(record.interval, out.intervals[i / 2].interval);
  }

  // JIT-GC attributes demand per stream: the prediction fields must be
  // populated (>= 0) once the predictors warm up.
  bool attributed = false;
  for (const auto& record : out.tenant_intervals) {
    attributed = attributed || record.predicted_demand_bytes >= 0;
  }
  EXPECT_TRUE(attributed) << "no tenant interval carried a demand attribution";
}

/// A tenant run splits the page cache's dirty-interval histograms along the
/// front-end's tenant partitions, so the multi-stream policy reads one
/// histogram per tenant instead of scanning every dirty page; a run without
/// a front-end keeps one partition.
TEST(TenantSim, TenantRunPartitionsThePageCache) {
  const auto opt = two_tenant_options(/*seed=*/3, {"2", "1"});
  SimConfig config = default_sim_config(opt.seed);
  config.duration = seconds(10);
  config.frontend = frontend_config_from_cli(opt);
  Simulator simulator(config);
  EXPECT_EQ(simulator.page_cache().partitions().count, 1u);
  auto fe = make_frontend_from_cli(opt, simulator.ssd().ftl().user_pages(),
                                   config.ssd.ftl.geometry.page_size);
  auto policy = make_policy(PolicyKind::kJit, config, 1.0, PolicyOverrides{}, fe.get());
  (void)simulator.run(*fe, *policy);
  EXPECT_EQ(simulator.page_cache().partitions(), fe->partitions());
  EXPECT_EQ(simulator.page_cache().partitions().count, 2u);
}

TEST(TenantSim, TenantRunsAreDeterministic) {
  const auto opt = two_tenant_options(/*seed=*/7, {"3", "1"});
  const std::string first = serialize(run_tenant_cell(opt));
  const std::string second = serialize(run_tenant_cell(opt));
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("\"type\":\"tenant_interval\""), std::string::npos);
  EXPECT_NE(first.find("\"tenants\":["), std::string::npos);
}

TEST(TenantSim, LegacyRunCarriesNoTenantTrace) {
  // Without a front-end the report and the serialized records must not
  // mention tenants at all — that is the byte-identity contract's unit face.
  SimConfig config = default_sim_config(3);
  config.duration = seconds(30);
  Simulator simulator(config);
  wl::SyntheticWorkload workload(wl::WorkloadSpec{}, simulator.ssd().ftl().user_pages(), 3);
  auto policy = make_policy(PolicyKind::kJit, config);
  RecordingMetricsSink sink;
  simulator.set_metrics_sink(&sink);
  const SimReport report = simulator.run(workload, *policy);

  EXPECT_TRUE(report.tenants.empty());
  EXPECT_TRUE(sink.tenant_intervals().empty());
  EXPECT_EQ(format_jsonl(0, 3, report).find("tenant"), std::string::npos);
}

// -- Run-end reporting ---------------------------------------------------------

/// The CLI's two-tenant YCSB cell over `seconds` of measured run.
CliOptions two_ycsb_tenants(double seconds) {
  CliOptions opt;
  opt.tenants = 2;
  opt.tenant_mix = {"ycsb"};
  opt.seconds = seconds;
  return opt;
}

TEST(TenantSim, CompletedRunReportsTheFullDuration) {
  // 12 s is not a multiple of the 5 s tick: the last handled event lies just
  // before the cut-off while both tenants still have work pending, so the
  // run covered the whole duration — as a single-stream run reports it.
  const SimReport tenants = run_from_cli(two_ycsb_tenants(12.0));
  EXPECT_EQ(tenants.run_end_reason, "completed");
  EXPECT_EQ(tenants.elapsed_s, 12.0);

  CliOptions single;
  single.seconds = 12.0;
  EXPECT_EQ(run_from_cli(single).elapsed_s, 12.0);
}

TEST(TenantSim, PreconditionWearOutStillReportsTenants) {
  // An endurance rating of 2 P/E cycles cannot cover the fill: the device
  // dies before the measured run, and the record still lists every tenant.
  CliOptions opt = two_ycsb_tenants(10.0);
  opt.endurance_pe_cycles = 2;
  const SimReport r = run_from_cli(opt);
  EXPECT_EQ(r.run_end_reason, "device_worn_out");
  EXPECT_EQ(r.ops_completed, 0u);
  ASSERT_EQ(r.tenants.size(), 2u);
  EXPECT_EQ(r.tenants[1].tenant, 1u);
  EXPECT_NE(format_jsonl(0, 1, r).find("\"tenants\":["), std::string::npos);
}

// -- Satellite: snapshot-fingerprint hygiene ---------------------------------

TEST(TenantSim, FingerprintIgnoresTenantKnobs) {
  // Tenant topology cannot influence precondition evolution (the fill runs
  // before the front-end dispatches anything), so every tenant knob must be
  // excluded from the fingerprint — a multi-tenant QoS matrix shares one
  // warm snapshot per (seed, workload).
  SimConfig plain = default_sim_config(11);
  SimConfig tenants = plain;
  tenants.frontend.queue_depth = 8;
  tenants.frontend.quantum_bytes = 128 * KiB;
  tenants.frontend.tenants.resize(3);
  tenants.frontend.tenants[0].weight = 9.0;
  tenants.frontend.tenants[1].rate_bps = 1e6;
  tenants.frontend.tenants[2].qos_p99_ms = 5.0;
  tenants.frontend.tenants[2].closed_loop = true;

  const Lba fp = 4096, ws = 2048;
  EXPECT_EQ(precondition_fingerprint(plain, fp, ws), precondition_fingerprint(tenants, fp, ws));

  // ... while anything that does shape the fill still lands in a distinct
  // key: the run seed and the (mix-derived) footprint/working set.
  SimConfig other_seed = default_sim_config(12);
  EXPECT_NE(precondition_fingerprint(plain, fp, ws),
            precondition_fingerprint(other_seed, fp, ws));
  EXPECT_NE(precondition_fingerprint(plain, fp, ws),
            precondition_fingerprint(plain, fp / 2, ws / 2));
}

TEST(TenantSim, TenantMatricesShareOneWarmSnapshot) {
  // Behavioural face of the same satellite: two cells differing only in
  // weights/QoS hit the same cache entry, and the warm run's measured
  // output is byte-identical to its own cold replay.
  SnapshotCache cache;
  const auto cold_opt = two_tenant_options(/*seed=*/5, {"1", "1"});
  const std::string cold = serialize(run_tenant_cell(cold_opt, &cache));
  EXPECT_EQ(cache.stats().misses, 1u);

  auto warm_opt = two_tenant_options(/*seed=*/5, {"4", "1"});
  warm_opt.tenant_qos_p99_ms = {10.0, 80.0};
  (void)run_tenant_cell(warm_opt, &cache);
  EXPECT_EQ(cache.stats().memory_hits, 1u) << "tenant knobs split the snapshot key";

  const std::string replay = serialize(run_tenant_cell(cold_opt, &cache));
  EXPECT_EQ(strip_snapshot_fields(cold), strip_snapshot_fields(replay));
}

// -- Satellite: tenant CLI validation ----------------------------------------

TEST(TenantCli, BroadcastsSharedValuesAcrossTenants) {
  const auto opt = parse({"--tenants=3", "--tenant-mix=ycsb-a", "--tenant-weight=2",
                          "--tenant-rate=1000000", "--tenant-qos-p99=25",
                          "--tenant-arrival=closed", "--tenant-queue-depth=16"});
  ASSERT_TRUE(opt);
  const frontend::FrontendConfig config = frontend_config_from_cli(*opt);
  ASSERT_EQ(config.tenants.size(), 3u);
  EXPECT_EQ(config.queue_depth, 16u);
  for (const auto& spec : config.tenants) {
    EXPECT_EQ(spec.mix, "ycsb-a");
    EXPECT_DOUBLE_EQ(spec.weight, 2.0);
    EXPECT_DOUBLE_EQ(spec.rate_bps, 1e6);
    EXPECT_DOUBLE_EQ(spec.qos_p99_ms, 25.0);
    EXPECT_TRUE(spec.closed_loop);
  }
}

TEST(TenantCli, PerTenantListsCarryThrough) {
  const auto opt = parse({"--tenants=2", "--tenant-mix=ycsb-a,tpcc", "--tenant-weight=3,1"});
  ASSERT_TRUE(opt);
  const frontend::FrontendConfig config = frontend_config_from_cli(*opt);
  ASSERT_EQ(config.tenants.size(), 2u);
  EXPECT_EQ(config.tenants[0].mix, "ycsb-a");
  EXPECT_EQ(config.tenants[1].mix, "tpcc");
  EXPECT_DOUBLE_EQ(config.tenants[0].weight, 3.0);
  EXPECT_DOUBLE_EQ(config.tenants[1].weight, 1.0);
  EXPECT_FALSE(config.tenants[0].closed_loop);
}

TEST(TenantCli, RejectsMismatchedListLengths) {
  std::string err;
  EXPECT_FALSE(parse({"--tenants=3", "--tenant-weight=1,2"}, &err));
  EXPECT_NE(err.find("--tenant-weight"), std::string::npos);
  EXPECT_NE(err.find("one shared value or one per tenant"), std::string::npos);
}

TEST(TenantCli, RejectsNonFiniteAndNonPositiveWeights) {
  // NaN-safe validation must name the offending flag (the `!(finite && > 0)`
  // idiom — a plain `<= 0` comparison lets NaN through).
  for (const char* bad : {"--tenant-weight=0", "--tenant-weight=-1", "--tenant-weight=nan",
                          "--tenant-weight=inf"}) {
    std::string err;
    EXPECT_FALSE(parse({"--tenants=2", bad}, &err)) << bad;
    EXPECT_NE(err.find("--tenant-weight needs finite weights > 0"), std::string::npos) << bad;
  }
}

TEST(TenantCli, RejectsNonFiniteRatesAndTargets) {
  std::string err;
  EXPECT_FALSE(parse({"--tenants=2", "--tenant-rate=-1"}, &err));
  EXPECT_NE(err.find("--tenant-rate needs finite rates"), std::string::npos);
  EXPECT_FALSE(parse({"--tenants=2", "--tenant-rate=nan"}, &err));
  EXPECT_NE(err.find("--tenant-rate"), std::string::npos);
  EXPECT_FALSE(parse({"--tenants=2", "--tenant-qos-p99=nan"}, &err));
  EXPECT_NE(err.find("--tenant-qos-p99"), std::string::npos);
}

TEST(TenantCli, RejectsTenantFlagsWithoutTenants) {
  std::string err;
  EXPECT_FALSE(parse({"--tenant-mix=ycsb"}, &err));
  EXPECT_NE(err.find("--tenant-mix requires --tenants"), std::string::npos);
  EXPECT_FALSE(parse({"--trace-volume-map=0,1"}, &err));
  EXPECT_NE(err.find("requires --tenants"), std::string::npos);
}

TEST(TenantCli, RejectsBadArrivalModel) {
  std::string err;
  EXPECT_FALSE(parse({"--tenants=2", "--tenant-arrival=poisson"}, &err));
  EXPECT_NE(err.find("open|closed"), std::string::npos);
}

TEST(TenantCli, TraceModeRequiresAFullVolumeMap) {
  std::string err;
  EXPECT_FALSE(parse({"--tenants=2", "--trace=foo.csv"}, &err));
  EXPECT_NE(err.find("requires --trace-volume-map"), std::string::npos);
  EXPECT_FALSE(parse({"--tenants=2", "--trace=foo.csv", "--trace-volume-map=0"}, &err));
  EXPECT_NE(err.find("give exactly one per tenant"), std::string::npos);
  EXPECT_FALSE(parse({"--tenants=2", "--trace-volume-map=0,1"}, &err));
  EXPECT_NE(err.find("--trace-volume-map requires --trace"), std::string::npos);
}

// -- Satellite: multi-volume trace mapping ------------------------------------

TEST(TenantCli, TraceVolumeMapFeedsEachTenantItsVolume) {
  // A two-volume MSR trace: three requests on volume 0, one on volume 7.
  // With --trace-volume-map=0,7 each tenant replays exactly its volume's
  // substream through its own queue.
  const std::string path = testing_util::unique_temp_path("volumes.csv");
  {
    std::ofstream trace(path);
    trace << "1000,host,0,Write,4096,4096,90\n"
          << "2000,host,7,Read,8192,8192,80\n"
          << "3000,host,0,Write,16384,4096,70\n"
          << "4000,host,0,Read,0,4096,60\n";
  }

  CliOptions opt;
  opt.tenants = 2;
  opt.trace_path = path;
  opt.trace_volume_map = {0, 7};
  const auto fe = make_frontend_from_cli(opt, /*user_pages=*/1024, /*page_size=*/4 * KiB);
  EXPECT_EQ(fe->name(), "mt2[vol0+vol7]");

  fe->admit_arrivals(seconds(100));
  std::vector<std::uint64_t> dispatched(2, 0);
  while (const auto d = fe->pop_dispatch(seconds(100))) {
    ASSERT_LT(d->tenant, 2u);
    ++dispatched[d->tenant];
    // Each op must stay inside its owner's LBA partition.
    EXPECT_EQ(fe->tenant_of_lba(d->op.lba), d->tenant);
  }
  EXPECT_EQ(dispatched[0], 3u);
  EXPECT_EQ(dispatched[1], 1u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace jitgc::sim
