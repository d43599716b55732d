// Integration tests: full closed-loop runs of workload -> page cache -> SSD
// under each BGC policy, on a small device so every test stays fast.
#include "sim/simulator.h"

#include <gtest/gtest.h>

#include "sim/experiment.h"
#include "sim/metrics_sink.h"
#include "workload/file_workload.h"
#include "workload/specs.h"
#include "workload/trace.h"

namespace jitgc::sim {
namespace {

SimConfig test_config(std::uint64_t seed = 1) {
  SimConfig sim = default_sim_config(seed);
  // Shrink to 128 MiB physical for test speed.
  sim.ssd.ftl.geometry.channels = 2;
  sim.ssd.ftl.geometry.dies_per_channel = 2;
  sim.ssd.ftl.geometry.planes_per_die = 1;
  sim.ssd.ftl.geometry.blocks_per_plane = 64;
  sim.ssd.ftl.geometry.pages_per_block = 128;
  sim.cache.capacity = 64 * MiB;
  sim.duration = seconds(60);
  return sim;
}

wl::WorkloadSpec test_workload() {
  wl::WorkloadSpec spec = wl::ycsb_spec();
  spec.ops_per_sec = 300.0;  // scaled to the smaller device
  return spec;
}

TEST(Simulator, RunProducesSaneReport) {
  const SimReport r = run_cell(test_config(), test_workload(), PolicyKind::kLazy);
  EXPECT_EQ(r.workload, "YCSB");
  EXPECT_EQ(r.policy, "L-BGC");
  EXPECT_DOUBLE_EQ(r.duration_s, 60.0);
  EXPECT_GT(r.ops_completed, 1000u);
  EXPECT_GT(r.iops, 0.0);
  EXPECT_GE(r.waf, 1.0);
  EXPECT_LT(r.waf, 10.0);
  EXPECT_GT(r.device_pages_written, 0u);
  EXPECT_GT(r.app_buffered_write_bytes, 0u);
  EXPECT_GT(r.app_direct_write_bytes, 0u);
}

TEST(Simulator, DeterministicForSameSeed) {
  const SimReport a = run_cell(test_config(5), test_workload(), PolicyKind::kJit);
  const SimReport b = run_cell(test_config(5), test_workload(), PolicyKind::kJit);
  EXPECT_EQ(a.ops_completed, b.ops_completed);
  EXPECT_EQ(a.nand_programs, b.nand_programs);
  EXPECT_EQ(a.nand_erases, b.nand_erases);
  EXPECT_DOUBLE_EQ(a.waf, b.waf);
  EXPECT_DOUBLE_EQ(a.prediction_accuracy, b.prediction_accuracy);
}

TEST(Simulator, DifferentSeedsDiverge) {
  const SimReport a = run_cell(test_config(5), test_workload(), PolicyKind::kLazy);
  const SimReport b = run_cell(test_config(6), test_workload(), PolicyKind::kLazy);
  EXPECT_NE(a.nand_programs, b.nand_programs);
}

TEST(Simulator, AggressiveRunsMoreBgcThanLazy) {
  const SimReport lazy = run_cell(test_config(), test_workload(), PolicyKind::kLazy);
  const SimReport agg = run_cell(test_config(), test_workload(), PolicyKind::kAggressive);
  EXPECT_GT(agg.bgc_cycles, lazy.bgc_cycles);
  EXPECT_GT(agg.reclaim_requested_bytes, lazy.reclaim_requested_bytes);
}

TEST(Simulator, JitTracksPredictionAccuracy) {
  // 60 s run = 12 ticks; horizon predictions score Nwb + 1 = 7 ticks later,
  // so 5 samples complete.
  const SimReport r = run_cell(test_config(), test_workload(), PolicyKind::kJit);
  EXPECT_GE(r.predicted_intervals, 3u);
  EXPECT_GT(r.prediction_accuracy, 0.0);
  EXPECT_LE(r.prediction_accuracy, 1.0);
}

TEST(Simulator, FixedPoliciesDoNotPredict) {
  const SimReport r = run_cell(test_config(), test_workload(), PolicyKind::kLazy);
  EXPECT_EQ(r.predicted_intervals, 0u);
  EXPECT_DOUBLE_EQ(r.prediction_accuracy, 1.0);
}

TEST(Simulator, JitUsesSipFiltering) {
  const SimReport r = run_cell(test_config(), test_workload(), PolicyKind::kJit);
  EXPECT_GT(r.victim_selections, 0u);
  EXPECT_GE(r.sip_filtered_fraction, 0.0);
  EXPECT_LE(r.sip_filtered_fraction, 1.0);
}

TEST(Simulator, NonJitPoliciesNeverSipFilter) {
  for (const PolicyKind kind : {PolicyKind::kLazy, PolicyKind::kAggressive,
                                PolicyKind::kAdaptive}) {
    const SimReport r = run_cell(test_config(), test_workload(), kind);
    EXPECT_EQ(r.sip_filtered_selections, 0u) << policy_kind_name(kind);
  }
}

TEST(Simulator, DirectWriteMixMatchesTable1Spec) {
  wl::WorkloadSpec spec = wl::tiobench_spec();
  spec.ops_per_sec = 300.0;
  const SimReport r = run_cell(test_config(), spec, PolicyKind::kLazy);
  EXPECT_NEAR(r.direct_write_fraction(), spec.direct_write_fraction, 0.06);
}

TEST(Simulator, PreconditioningAgesDevice) {
  SimConfig sim = test_config();
  Simulator simulator(sim);
  wl::SyntheticWorkload gen(test_workload(), simulator.ssd().ftl().user_pages(), 1);
  auto policy = make_policy(PolicyKind::kLazy, sim);
  simulator.run(gen, *policy);
  // The fill + scramble phases must have written at least the footprint.
  EXPECT_GE(simulator.ssd().ftl().stats().host_pages_written, gen.footprint_pages());
  EXPECT_GT(simulator.ssd().ftl().nand().stats().block_erases, 0u);
}

TEST(Simulator, LatencyPercentilesOrdered) {
  const SimReport r = run_cell(test_config(), test_workload(), PolicyKind::kAdaptive);
  EXPECT_LE(r.mean_latency_us, r.max_latency_us);
  EXPECT_LE(r.p99_latency_us, r.max_latency_us);
  EXPECT_GE(r.p99_latency_us, 0.0);
}

TEST(Simulator, RejectsMismatchedPageSizes) {
  SimConfig sim = test_config();
  sim.cache.page_size = 8 * KiB;
  EXPECT_THROW(Simulator{sim}, std::logic_error);
}

TEST(Simulator, HeadlineShapeRegression) {
  // Regression guard on the paper's headline shape at the full experiment
  // scale (one seed, loose bounds): JIT-GC takes fewer foreground-GC stalls
  // than L-BGC while staying below A-BGC's write amplification.
  const SimConfig sim = default_sim_config(1);
  wl::WorkloadSpec spec = wl::ycsb_spec();

  const SimReport lazy = run_cell(sim, spec, PolicyKind::kLazy);
  const SimReport agg = run_cell(sim, spec, PolicyKind::kAggressive);
  const SimReport jit = run_cell(sim, spec, PolicyKind::kJit);

  EXPECT_LT(jit.fgc_cycles, lazy.fgc_cycles);
  EXPECT_LT(jit.waf, agg.waf);
  EXPECT_LT(lazy.waf, agg.waf);
  EXPECT_LT(lazy.iops, agg.iops);
  // JIT lands between the two baselines on IOPS (inclusive bounds: it may
  // match either end).
  EXPECT_GE(jit.iops, lazy.iops * 0.98);
}

TEST(Simulator, BgcRateLimitBoundsBackgroundWork) {
  // Same cell with and without a tight BGC rate cap: the capped run must do
  // visibly less background collection.
  SimConfig free_run = test_config(4);
  SimConfig capped = test_config(4);
  capped.bgc_rate_limit_bps = 256 * 1024;  // 256 KiB/s of reclaim

  const SimReport a = run_cell(free_run, test_workload(), PolicyKind::kAggressive);
  const SimReport b = run_cell(capped, test_workload(), PolicyKind::kAggressive);
  EXPECT_LT(b.bgc_cycles, a.bgc_cycles);
  EXPECT_GT(a.bgc_cycles, 0u);
}

TEST(Simulator, BgcTokenBucketGrantsNoFreeFirstBurst) {
  // Regression: the bucket used to refill against the device's next_free
  // time starting from zero, which handed the first BGC opportunity a full
  // burst of unearned credit (and starved long-idle devices, whose next_free
  // stops advancing). Credit must now accrue from the simulation clock and
  // start at zero, so no interval can reclaim more than one bucket of
  // earned credit plus a single GC step's overshoot.
  SimConfig sim = test_config(7);
  sim.bgc_rate_limit_bps = 256 * 1024;  // 256 KiB/s
  Simulator simulator(sim);
  wl::SyntheticWorkload gen(test_workload(), simulator.ssd().ftl().user_pages(), 7);
  auto policy = make_policy(PolicyKind::kAggressive, sim);
  RecordingMetricsSink sink;
  simulator.set_metrics_sink(&sink);
  simulator.run(gen, *policy);

  const auto& intervals = sink.intervals();
  ASSERT_GE(intervals.size(), 4u);
  const double rate = sim.bgc_rate_limit_bps;
  const double period_s = to_seconds(sim.cache.flush_period);
  const auto& geo = sim.ssd.ftl.geometry;
  const Bytes block_bytes = static_cast<Bytes>(geo.pages_per_block) * geo.page_size;
  // Bucket cap = one interval of credit; a GC step checks the bucket before
  // collecting a block, so it can overshoot by at most one block.
  const auto per_interval_bound = static_cast<Bytes>(rate * period_s) + block_bytes;

  Bytes total = 0;
  Bytes second_half = 0;
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    EXPECT_LE(intervals[i].bgc_reclaimed_bytes, per_interval_bound)
        << "interval " << intervals[i].interval;
    total += intervals[i].bgc_reclaimed_bytes;
    if (i >= intervals.size() / 2) second_half += intervals[i].bgc_reclaimed_bytes;
  }
  // Cumulative reclaim is bounded by credit earned over the whole run.
  EXPECT_LE(total, static_cast<Bytes>(rate * to_seconds(sim.duration)) +
                       per_interval_bound);
  // The limiter throttles; it must not starve an ongoing run.
  EXPECT_GT(second_half, 0u);
}

TEST(Simulator, MetricsSinkSeesEveryIntervalAndTheFinalReport) {
  SimConfig sim = test_config(3);
  Simulator simulator(sim);
  wl::SyntheticWorkload gen(test_workload(), simulator.ssd().ftl().user_pages(), 3);
  auto policy = make_policy(PolicyKind::kJit, sim);
  RecordingMetricsSink sink;
  simulator.set_metrics_sink(&sink);
  const SimReport r = simulator.run(gen, *policy);

  // 60 s at p = 5 s: 12 flusher ticks, one record each.
  ASSERT_EQ(sink.intervals().size(), 12u);
  ASSERT_TRUE(sink.has_report());
  EXPECT_EQ(sink.report().ops_completed, r.ops_completed);

  Bytes flush_total = 0;
  std::uint64_t ops_total = 0;
  for (std::size_t i = 0; i < sink.intervals().size(); ++i) {
    const auto& rec = sink.intervals()[i];
    EXPECT_EQ(rec.interval, i + 1);
    EXPECT_DOUBLE_EQ(rec.time_s, 5.0 * static_cast<double>(i + 1));
    EXPECT_LE(rec.p50_latency_us, rec.p99_latency_us);
    EXPECT_LE(rec.p99_latency_us, rec.max_latency_us);
    EXPECT_LE(rec.idle_us, sim.cache.flush_period);
    flush_total += rec.flush_bytes;
    ops_total += rec.ops;
  }
  EXPECT_GT(flush_total, 0u);
  // Ops attributed to intervals can miss only the tail after the last tick.
  EXPECT_LE(ops_total, r.ops_completed);
  EXPECT_GT(ops_total, 0u);
}

TEST(Simulator, MultiQueueModeRunsAndPreservesThroughputScale) {
  SimConfig single = test_config(9);
  SimConfig multi = test_config(9);
  multi.ssd.service_queues = 0;  // one queue per plane, raw NAND times

  const SimReport a = run_cell(single, test_workload(), PolicyKind::kJit);
  const SimReport b = run_cell(multi, test_workload(), PolicyKind::kJit);

  // Same offered load, same device bandwidth: achieved throughput within a
  // modest factor (queueing discipline shifts latencies, not capacity).
  EXPECT_GT(b.ops_completed, a.ops_completed / 2);
  EXPECT_LT(b.ops_completed, a.ops_completed * 2);
  EXPECT_GE(b.waf, 1.0);
  // In multi-queue mode a single page op occupies one queue at full raw
  // cost, so individual op latencies are larger.
  EXPECT_GT(b.mean_latency_us, a.mean_latency_us * 0.9);
}

TEST(Simulator, PerTypeLatencyPercentiles) {
  const SimReport r = run_cell(test_config(), test_workload(), PolicyKind::kLazy);
  EXPECT_GT(r.read_p99_latency_us, 0.0);
  EXPECT_GT(r.direct_write_p99_latency_us, 0.0);
  // A direct write programs pages; a read only senses them.
  EXPECT_GE(r.direct_write_p99_latency_us, r.read_p99_latency_us);
  EXPECT_LE(r.read_p99_latency_us, r.max_latency_us);
}

TEST(Simulator, EnduranceRunReportsLifetime) {
  SimConfig sim = test_config();
  sim.ssd.ftl.enforce_endurance = true;
  sim.ssd.ftl.timing.endurance_pe_cycles = 6;  // aggressively accelerated
  sim.duration = seconds(100'000);             // effectively "until death"

  wl::WorkloadSpec spec = test_workload();
  const SimReport r = run_cell(sim, spec, PolicyKind::kLazy);
  EXPECT_TRUE(r.device_worn_out);
  EXPECT_GT(r.retired_blocks, 0u);
  EXPECT_GT(r.tbw_bytes(), 0u);
  EXPECT_GT(r.elapsed_s, 0.0);
  EXPECT_LT(r.elapsed_s, 100'000.0);
}

TEST(Simulator, NoEnduranceRunNeverWearsOut) {
  const SimReport r = run_cell(test_config(), test_workload(), PolicyKind::kLazy);
  EXPECT_FALSE(r.device_worn_out);
  EXPECT_DOUBLE_EQ(r.elapsed_s, 60.0);
  EXPECT_EQ(r.retired_blocks, 0u);
}

TEST(Simulator, DirtyThrottlingPacesTheWriter) {
  // A cache barely bigger than one burst: sustained buffered writes must hit
  // the dirty hard limit and stall behind synchronous writeback, so buffered
  // write latencies become nonzero and writeback volume tracks the inflow.
  SimConfig sim = test_config();
  sim.cache.capacity = 4 * MiB;  // 1024 pages
  sim.cache.tau_flush_fraction = 0.9;
  sim.duration = seconds(60);
  Simulator simulator(sim);

  wl::WorkloadSpec spec = wl::ycsb_spec();
  spec.read_fraction = 0.0;
  spec.direct_write_fraction = 0.0;  // all buffered
  spec.duty_cycle = 1.0;             // sustained
  spec.ops_per_sec = 2000.0;
  wl::SyntheticWorkload gen(spec, simulator.ssd().ftl().user_pages(), 1);

  auto policy = make_policy(PolicyKind::kLazy, sim);
  const SimReport r = simulator.run(gen, *policy);
  // Inflow (~2000 * 2.5 pages/s) far exceeds device bandwidth: the writer
  // must have been throttled, which shows up as nonzero buffered latency.
  EXPECT_GT(r.max_latency_us, 1000.0);
  EXPECT_GT(r.device_pages_written, 10'000u);
  // The cache can never exceed its capacity.
  EXPECT_LE(simulator.page_cache().dirty_bytes(), sim.cache.capacity);
}

/// Closed-loop stream of multi-page buffered writes with no think time over
/// the whole user space. Each next() call comes right after the previous op
/// was served: it reads that op's issue instant back from the page cache
/// (the instant its pages were dirtied) and notes when the device goes quiet.
/// With no think time an op's completion is its successor's issue instant,
/// so a throttled write must not complete before its forced writebacks.
class ThrottledWriteProbe final : public wl::WorkloadGenerator {
 public:
  ThrottledWriteProbe(const Simulator& sim, std::uint32_t pages)
      : sim_(sim), pages_(pages), user_pages_(sim.ssd().ftl().user_pages()) {}

  std::string name() const override { return "throttled-write-probe"; }
  Lba footprint_pages() const override { return user_pages_; }
  Lba working_set_pages() const override { return user_pages_; }

  std::optional<wl::AppOp> next() override {
    if (served_ > 0) {
      const TimeUs issue = issue_of(lba_);
      if (served_ > 1 && prev_throttled_) {
        ++checked_;
        if (issue < prev_quiet_at_) ++violations_;
      }
      prev_quiet_at_ = sim_.service_model().all_free();
      prev_throttled_ = sim_.page_cache().pages_flushed() > flushed_before_;
    }
    flushed_before_ = sim_.page_cache().pages_flushed();
    ++served_;
    lba_ = (lba_ + 7 * pages_) % (user_pages_ - pages_);
    return wl::AppOp{.think_us = 0, .type = wl::OpType::kWrite, .lba = lba_, .pages = pages_};
  }

  std::uint64_t checked() const { return checked_; }
  std::uint64_t violations() const { return violations_; }

 private:
  TimeUs issue_of(Lba lba) const {
    TimeUs issue = -1;
    sim_.page_cache().for_each_dirty([&](const host::DirtyPage& page) {
      if (page.lba == lba) issue = page.last_update;
    });
    if (issue < 0) ADD_FAILURE() << "LBA " << lba << " of the op just served is not dirty";
    return issue < 0 ? 0 : issue;
  }

  const Simulator& sim_;
  std::uint32_t pages_;
  Lba user_pages_;
  Lba lba_ = 0;
  std::uint64_t served_ = 0;
  std::uint64_t flushed_before_ = 0;
  bool prev_throttled_ = false;
  TimeUs prev_quiet_at_ = 0;
  std::uint64_t checked_ = 0;
  std::uint64_t violations_ = 0;
};

/// Requests no background GC, so only the writer's own writebacks reach the
/// device.
class NoBgcPolicy final : public core::BgcPolicy {
 public:
  std::string name() const override { return "none"; }
  core::PolicyDecision on_interval(const core::PolicyContext&) override { return {}; }
};

TEST(Simulator, ThrottledWriteWaitsForSlowestWritebackOnManyQueues) {
  // One queue per plane: forced writebacks of one throttled write spread
  // over the queues, and a foreground-GC stall on one of them can outlast
  // writebacks dispatched after it. A full device keeps such stalls coming.
  SimConfig sim = test_config();
  sim.ssd.service_queues = 0;
  sim.cache.capacity = 64 * KiB;  // 16 pages: every write past the first few throttles
  sim.cache.tau_flush_fraction = 1.0;
  sim.cache.tau_expire = seconds(1000);  // the flusher never writes back
  sim.duration = seconds(60);
  Simulator simulator(sim);
  ASSERT_GT(simulator.service_model().queues(), 1u);

  ThrottledWriteProbe probe(simulator, 4);
  NoBgcPolicy policy;
  const SimReport r = simulator.run(probe, policy);
  EXPECT_GT(r.fgc_cycles, 0u);
  EXPECT_GT(probe.checked(), 500u);
  EXPECT_EQ(probe.violations(), 0u) << "of " << probe.checked() << " throttled writes";
}

TEST(Simulator, WritebackIsDevicePaced) {
  // One giant buffered dump, then silence: each tick may flush only what the
  // device can absorb, so the dirty set drains over multiple ticks instead
  // of instantly.
  SimConfig sim = test_config();
  sim.precondition = false;
  sim.duration = seconds(40);
  Simulator simulator(sim);

  std::vector<wl::TraceRecord> records;
  for (int i = 0; i < 8000; ++i) {  // 32 MiB dumped at t~0
    records.push_back({i, wl::OpType::kWrite, static_cast<Bytes>(i) * 4096, 4096});
  }
  wl::TraceReplayOptions opts;
  opts.user_pages = simulator.ssd().ftl().user_pages();
  opts.buffered_fraction = 1.0;
  wl::TraceWorkload gen("dump", records, opts);

  auto policy = make_policy(PolicyKind::kLazy, sim);
  simulator.run(gen, *policy);
  // 8000 pages at ~335 us effective is ~2.7 s of device time: they cannot
  // all have flushed at the first tick, but must be gone by t = 40 s
  // (tau_flush pressure + expiry + pacing).
  EXPECT_LT(simulator.page_cache().dirty_pages(), 8000u);
}

TEST(Simulator, FileWorkloadTrimsReachTheFtl) {
  SimConfig sim = test_config();
  sim.duration = seconds(120);
  Simulator simulator(sim);
  wl::FileWorkloadSpec spec = wl::mail_server_spec();
  spec.ops_per_sec = 400.0;
  wl::FileWorkload gen(spec, simulator.ssd().ftl().user_pages(), 3);
  auto policy = make_policy(PolicyKind::kJit, sim);
  const SimReport r = simulator.run(gen, *policy);

  EXPECT_GT(r.ops_completed, 1000u);
  EXPECT_GT(simulator.ssd().ftl().stats().trims, 100u);
  EXPECT_GT(gen.file_system().stats().files_deleted, 10u);
  gen.file_system().check_invariants();
}

TEST(Simulator, TrimOpDropsDirtyCacheCopies) {
  SimConfig sim = test_config();
  sim.precondition = false;
  Simulator simulator(sim);

  // A buffered write followed by a TRIM of the same pages: nothing must be
  // flushed for them later (deleted data stays dead).
  std::vector<wl::TraceRecord> records;
  records.push_back({0, wl::OpType::kWrite, 0, 16 * 4096});
  wl::TraceReplayOptions opts;
  opts.user_pages = simulator.ssd().ftl().user_pages();
  opts.buffered_fraction = 1.0;  // everything through the cache
  wl::TraceWorkload gen("trim-test", records, opts);

  auto policy = make_policy(PolicyKind::kLazy, sim);
  simulator.run(gen, *policy);
  // The single buffered op flushed at most its own pages (plus nothing from
  // resurrected trims — exercised more thoroughly at the unit level).
  EXPECT_LE(simulator.ssd().ftl().stats().host_pages_written, 16u);
}

TEST(Simulator, TrimIssuedWhileBusyCompletesAtBusyHorizon) {
  // A trim costs no NAND time, but it still queues on the device: issued
  // 1 us into a long direct write, it completes when that write does.
  SimConfig sim = test_config();
  sim.precondition = false;
  sim.open_loop_arrivals = true;
  sim.duration = seconds(1);
  Simulator simulator(sim);

  std::vector<wl::TraceRecord> records;
  records.push_back({0, wl::OpType::kWrite, 0, 64 * 4096});
  records.push_back({1, wl::OpType::kTrim, 0, 4096});
  wl::TraceReplayOptions opts;
  opts.user_pages = simulator.ssd().ftl().user_pages();
  wl::TraceWorkload gen("trim-queue", records, opts);

  auto policy = make_policy(PolicyKind::kLazy, sim);
  const SimReport r = simulator.run(gen, *policy);
  ASSERT_EQ(r.ops_completed, 2u);
  const double write_latency = r.max_latency_us;
  ASSERT_GT(write_latency, 1.0);
  const double trim_latency = 2.0 * r.mean_latency_us - write_latency;
  EXPECT_EQ(trim_latency, write_latency - 1.0);
  EXPECT_FALSE(simulator.ssd().ftl().is_mapped(0));
  EXPECT_TRUE(simulator.ssd().ftl().is_mapped(1));
}

TEST(Simulator, FiniteWorkloadDrainsCleanly) {
  SimConfig sim = test_config();
  sim.precondition = false;
  Simulator simulator(sim);

  std::vector<wl::TraceRecord> records;
  for (int i = 0; i < 500; ++i) {
    records.push_back({i * 10'000, wl::OpType::kWrite, static_cast<Bytes>(i % 100) * 4096, 4096});
  }
  wl::TraceReplayOptions opts;
  opts.user_pages = simulator.ssd().ftl().user_pages();
  wl::TraceWorkload gen("msr-synth", records, opts);

  auto policy = make_policy(PolicyKind::kJit, sim);
  const SimReport r = simulator.run(gen, *policy);
  EXPECT_EQ(r.ops_completed, 500u);
  EXPECT_EQ(gen.records_replayed(), 500u);
}

}  // namespace
}  // namespace jitgc::sim
