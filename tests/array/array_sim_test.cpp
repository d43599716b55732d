#include "array/array_simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "array/array_cli.h"
#include "array/redundancy.h"
#include "sim/cli_options.h"
#include "sim/metrics_sink.h"
#include "workload/specs.h"
#include "workload/synthetic.h"
#include "workload/trace.h"

namespace jitgc::array {
namespace {

sim::SsdConfig small_device() {
  sim::SsdConfig cfg;
  cfg.ftl.geometry = nand::Geometry{.channels = 2,
                                    .dies_per_channel = 2,
                                    .planes_per_die = 1,
                                    .blocks_per_plane = 24,
                                    .pages_per_block = 16,
                                    .page_size = 4 * KiB};
  cfg.ftl.op_ratio = 0.25;
  cfg.ftl.timing = nand::timing_20nm_mlc();
  return cfg;
}

wl::WorkloadSpec steady_spec() {
  wl::WorkloadSpec spec;
  spec.name = "steady";
  spec.read_fraction = 0.3;
  spec.min_pages = 1;
  spec.max_pages = 4;
  // Gentle enough that a device's OP reserve covers an interval of demand
  // (the tiny test devices have ~1.2 MB of OP): GC engages opportunistically
  // but never through the urgency escape.
  spec.ops_per_sec = 80.0;
  spec.duty_cycle = 1.0;
  spec.working_set_fraction = 0.3;
  spec.footprint_fraction = 0.6;
  return spec;
}

ArraySimConfig small_array(ArrayGcMode mode, std::size_t threads) {
  ArraySimConfig config;
  config.ssd = small_device();
  config.array.devices = 4;
  config.array.stripe_chunk_pages = 4;
  config.array.gc_mode = mode;
  config.array.max_concurrent_gc = 1;
  config.duration = seconds(30);
  config.flush_period = seconds(5);
  config.seed = 7;
  config.step_threads = threads;
  return config;
}

/// One full run's JSONL stream — the byte-level fingerprint the determinism
/// tests compare.
std::string run_jsonl(const ArraySimConfig& config) {
  ArraySimulator simulator(config);
  wl::SyntheticWorkload gen(steady_spec(), simulator.ssd_array().user_pages(), config.seed);
  std::ostringstream out;
  sim::JsonlMetricsSink sink(out, /*run_index=*/0, config.seed);
  simulator.set_metrics_sink(&sink);
  simulator.run(gen);
  return out.str();
}

TEST(ArraySimulator, MirrorTrimIssuedWhileBusyCompletesAtBusyHorizon) {
  // A trim costs no NAND time, but it queues behind both copies' devices:
  // issued 1 us into a long write, it completes when that write does.
  ArraySimConfig config = small_array(ArrayGcMode::kNaive, 1);
  config.array.devices = 2;
  config.array.redundancy = RedundancyScheme::kMirror;
  config.precondition = false;
  config.duration = seconds(1);
  ArraySimulator simulator(config);

  std::vector<wl::TraceRecord> records;
  records.push_back({0, wl::OpType::kWrite, 0, 4 * 4096});
  records.push_back({1, wl::OpType::kTrim, 0, 4096});
  wl::TraceReplayOptions opts;
  opts.user_pages = simulator.ssd_array().user_pages();
  wl::TraceWorkload gen("trim-queue", records, opts);

  const sim::SimReport r = simulator.run(gen);
  ASSERT_EQ(r.ops_completed, 2u);
  const double write_latency = r.max_latency_us;
  ASSERT_GT(write_latency, 1.0);
  const double trim_latency = 2.0 * r.mean_latency_us - write_latency;
  EXPECT_EQ(trim_latency, write_latency - 1.0);
  for (std::uint32_t d = 0; d < 2; ++d) {
    EXPECT_FALSE(simulator.ssd_array().device(d).ftl().is_mapped(0)) << "device " << d;
    EXPECT_TRUE(simulator.ssd_array().device(d).ftl().is_mapped(1)) << "device " << d;
  }
}

TEST(ArraySimulator, CompletesOpsAndReports) {
  ArraySimulator simulator(small_array(ArrayGcMode::kStaggered, 1));
  wl::SyntheticWorkload gen(steady_spec(), simulator.ssd_array().user_pages(), 7);
  const sim::SimReport r = simulator.run(gen);
  EXPECT_EQ(r.policy, "ARRAY-STAGGERED");
  EXPECT_GT(r.ops_completed, 0u);
  EXPECT_GT(r.mean_latency_us, 0.0);
  EXPECT_GE(r.p99_latency_us, r.mean_latency_us);
  EXPECT_FALSE(r.device_worn_out);
  EXPECT_EQ(r.run_end_reason, "completed");
  EXPECT_GE(r.waf, 1.0);
}

TEST(ArraySimulator, EmitsOneDeviceRecordPerDevicePerTick) {
  const ArraySimConfig config = small_array(ArrayGcMode::kNaive, 1);
  ArraySimulator simulator(config);
  wl::SyntheticWorkload gen(steady_spec(), simulator.ssd_array().user_pages(), config.seed);
  sim::RecordingMetricsSink sink;
  simulator.set_metrics_sink(&sink);
  simulator.run(gen);

  const std::size_t ticks = 30 / 5;  // duration / flush_period
  EXPECT_EQ(sink.array_intervals().size(), ticks);
  EXPECT_EQ(sink.device_intervals().size(), ticks * 4);
  ASSERT_TRUE(sink.has_report());
  // Device records for tick t precede the array record for tick t, and
  // devices appear in index order (the serial merge's contract).
  for (std::size_t t = 0; t < ticks; ++t) {
    EXPECT_EQ(sink.array_intervals()[t].interval, t + 1);
    for (std::uint32_t d = 0; d < 4; ++d) {
      const auto& rec = sink.device_intervals()[t * 4 + d];
      EXPECT_EQ(rec.interval, t + 1);
      EXPECT_EQ(rec.device, d);
    }
  }
}

TEST(ArraySimulator, IntervalOpsSumToReportOps) {
  const ArraySimConfig config = small_array(ArrayGcMode::kStaggered, 1);
  ArraySimulator simulator(config);
  wl::SyntheticWorkload gen(steady_spec(), simulator.ssd_array().user_pages(), config.seed);
  sim::RecordingMetricsSink sink;
  simulator.set_metrics_sink(&sink);
  const sim::SimReport r = simulator.run(gen);

  std::uint64_t ops = 0;
  for (const auto& rec : sink.array_intervals()) ops += rec.ops;
  EXPECT_EQ(ops, r.ops_completed);
}

TEST(ArraySimulator, IntervalFreeBytesTotalSumsSlotDevices) {
  // The array-level C_free aggregates are the per-device polls of the same
  // tick: total is their sum, min their minimum.
  const ArraySimConfig config = small_array(ArrayGcMode::kStaggered, 1);
  ArraySimulator simulator(config);
  wl::SyntheticWorkload gen(steady_spec(), simulator.ssd_array().user_pages(), config.seed);
  sim::RecordingMetricsSink sink;
  simulator.set_metrics_sink(&sink);
  simulator.run(gen);

  ASSERT_EQ(sink.device_intervals().size(), sink.array_intervals().size() * 4);
  for (std::size_t t = 0; t < sink.array_intervals().size(); ++t) {
    Bytes total = 0;
    Bytes min = sink.device_intervals()[t * 4].free_bytes;
    for (std::size_t d = 0; d < 4; ++d) {
      const Bytes free = sink.device_intervals()[t * 4 + d].free_bytes;
      total += free;
      min = std::min(min, free);
    }
    EXPECT_GT(total, 0u);
    EXPECT_EQ(sink.array_intervals()[t].free_bytes_total, total) << "interval " << t + 1;
    EXPECT_EQ(sink.array_intervals()[t].free_bytes_min, min) << "interval " << t + 1;
  }
}

TEST(ArraySimulator, ByteIdenticalAcrossThreadCounts) {
  const std::string serial = run_jsonl(small_array(ArrayGcMode::kStaggered, 1));
  const std::string parallel2 = run_jsonl(small_array(ArrayGcMode::kStaggered, 2));
  const std::string parallel4 = run_jsonl(small_array(ArrayGcMode::kStaggered, 4));
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel2);
  EXPECT_EQ(serial, parallel4);
}

TEST(ArraySimulator, ByteIdenticalAcrossReruns) {
  const std::string first = run_jsonl(small_array(ArrayGcMode::kMaxK, 2));
  const std::string second = run_jsonl(small_array(ArrayGcMode::kMaxK, 2));
  EXPECT_EQ(first, second);
}

TEST(ArraySimulator, SeedChangesTheRun) {
  ArraySimConfig a = small_array(ArrayGcMode::kStaggered, 1);
  ArraySimConfig b = a;
  b.seed = 8;
  EXPECT_NE(run_jsonl(a), run_jsonl(b));
}

/// The CLI's four-device array under two YCSB tenants.
sim::CliOptions tenant_array_options(double seconds) {
  sim::CliOptions opt;
  opt.array_devices = 4;
  opt.tenants = 2;
  opt.tenant_mix = {"ycsb"};
  opt.seconds = seconds;
  opt.jobs = 1;
  return opt;
}

TEST(ArraySimulator, CompletedTenantRunReportsTheFullDuration) {
  // 12 s is not a multiple of the 5 s tick: the last handled event lies just
  // before the cut-off while the tenants still have work pending.
  const sim::SimReport r = run_array_from_cli(tenant_array_options(12.0));
  EXPECT_EQ(r.run_end_reason, "completed");
  EXPECT_EQ(r.elapsed_s, 12.0);
}

TEST(ArraySimulator, PreconditionWearOutStillReportsTenants) {
  sim::CliOptions opt = tenant_array_options(10.0);
  opt.endurance_pe_cycles = 2;
  const sim::SimReport r = run_array_from_cli(opt);
  EXPECT_EQ(r.run_end_reason, "device_worn_out");
  EXPECT_EQ(r.ops_completed, 0u);
  EXPECT_EQ(r.tenants.size(), 2u);
}

TEST(ArraySimulator, PreconditionRestoresFreeCapacity) {
  // After aging, every device must start the measured run with its OP
  // reserve rebuilt — otherwise tick 1 opens with an urgent-GC storm.
  const ArraySimConfig config = small_array(ArrayGcMode::kStaggered, 1);
  ArraySimulator simulator(config);
  wl::SyntheticWorkload gen(steady_spec(), simulator.ssd_array().user_pages(), config.seed);
  sim::RecordingMetricsSink sink;
  simulator.set_metrics_sink(&sink);
  simulator.run(gen);
  ASSERT_FALSE(sink.device_intervals().empty());
  for (std::uint32_t d = 0; d < 4; ++d) {
    EXPECT_FALSE(sink.device_intervals()[d].gc_urgent) << "device " << d;
  }
}

}  // namespace
}  // namespace jitgc::array
