// Warm-state snapshot equivalence: restoring a cached post-precondition
// device state (sim/snapshot.h) must reproduce cold-replay JSONL
// byte-for-byte on every golden configuration — sweeps (the fig2/fig7 cells'
// machinery), fault injection, open-loop arrivals, and the redundant array's
// kill/outage/rebuild lifecycle — at any thread count. Same golden-cell
// matrix the retired tick-vs-event equivalence suite used to pin the event
// engine; cache-attached runs additionally carry the snapshot /
// precondition_wall_s run fields (wall-clock, inherently nondeterministic),
// which every comparison strips first.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>

#include "array/array_simulator.h"
#include "array/redundancy.h"
#include "sim/metrics_sink.h"
#include "sim/simulator.h"
#include "sim/snapshot.h"
#include "sim/sweep.h"
#include "temp_path.h"
#include "workload/specs.h"
#include "workload/synthetic.h"

namespace jitgc {
namespace {

namespace fs = std::filesystem;

// Removes the cache-only run fields (`snapshot`, `precondition_wall_s`) so
// cache-attached output can be compared against cache-less output. The
// formatter appends them last, immediately before the closing brace.
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

}  // namespace
}  // namespace jitgc

namespace jitgc::sim {
namespace {

SimConfig small_config() {
  SimConfig sim = default_sim_config();
  sim.ssd.ftl.geometry.channels = 2;
  sim.ssd.ftl.geometry.dies_per_channel = 2;
  sim.ssd.ftl.geometry.planes_per_die = 1;
  sim.ssd.ftl.geometry.blocks_per_plane = 64;
  sim.ssd.ftl.geometry.pages_per_block = 128;
  sim.cache.capacity = 64 * MiB;
  sim.duration = seconds(20);
  return sim;
}

std::vector<SweepCell> small_matrix() {
  wl::WorkloadSpec spec = wl::ycsb_spec();
  spec.ops_per_sec = 300.0;
  spec.duty_cycle = 1.0;
  SweepCell lazy;
  lazy.workload = spec;
  lazy.policy = PolicyKind::kLazy;
  SweepCell jit;
  jit.workload = spec;
  jit.policy = PolicyKind::kJit;
  return {lazy, jit};
}

std::string sweep_output(const SimConfig& base, std::size_t threads,
                         const std::string& snapshot_dir = {}) {
  SweepOptions options;
  options.base = base;
  options.base_seed = 42;
  options.seeds = 2;
  options.threads = threads;
  options.emit_intervals = true;
  options.snapshot_cache_dir = snapshot_dir;
  std::ostringstream out;
  run_sweep_to(out, options, small_matrix());
  return out.str();
}

class SnapshotEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing_util::unique_temp_path("snap");
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(SnapshotEquivalenceTest, SweepJsonlIdenticalColdVsWarmAcrossThreadCounts) {
  const std::string cold = sweep_output(small_config(), 1);
  // Determinism of the reference itself: output must not depend on workers.
  EXPECT_EQ(cold, sweep_output(small_config(), 4));

  // First cache-attached invocation: every run misses, preconditions cold,
  // and publishes its snapshot — measured output unchanged.
  const std::string filling = sweep_output(small_config(), 2, dir_.string());
  EXPECT_NE(filling.find("\"snapshot\":\"cold\""), std::string::npos);
  EXPECT_EQ(strip_snapshot_fields(filling), cold);

  // Second invocation: every run restores from disk, byte-identical output
  // at yet another thread count.
  const std::string warm = sweep_output(small_config(), 4, dir_.string());
  EXPECT_NE(warm.find("\"snapshot\":\"warm_disk\""), std::string::npos);
  EXPECT_EQ(warm.find("\"snapshot\":\"cold\""), std::string::npos);
  EXPECT_EQ(strip_snapshot_fields(warm), cold);
}

TEST_F(SnapshotEquivalenceTest, FaultStreamIdenticalColdVsWarm) {
  SimConfig config = small_config();
  config.ssd.ftl.fault.program_fail_prob = 1e-4;
  config.ssd.ftl.fault.erase_fail_prob = 1e-3;
  config.ssd.ftl.spare_blocks = 8;

  const std::string cold = sweep_output(config, 2);
  // The fault machinery must actually have fired or the comparison proves
  // nothing about the restored fault-RNG stream positions.
  EXPECT_NE(cold.find("\"type\":\"fault\""), std::string::npos);

  (void)sweep_output(config, 2, dir_.string());
  const std::string warm = sweep_output(config, 2, dir_.string());
  EXPECT_NE(warm.find("\"snapshot\":\"warm_disk\""), std::string::npos);
  EXPECT_EQ(strip_snapshot_fields(warm), cold);
}

std::string single_run_jsonl(bool open_loop, SnapshotCache* snapshots = nullptr) {
  SimConfig config = small_config();
  config.open_loop_arrivals = open_loop;
  Simulator simulator(config);
  if (snapshots != nullptr) simulator.set_snapshot_cache(snapshots);
  wl::WorkloadSpec spec = wl::ycsb_spec();
  spec.ops_per_sec = 300.0;
  wl::SyntheticWorkload gen(spec, simulator.ssd().ftl().user_pages(), config.seed);
  const auto policy = make_policy(PolicyKind::kJit, config);
  std::ostringstream out;
  JsonlMetricsSink sink(out, /*run_index=*/0, config.seed);
  simulator.set_metrics_sink(&sink);
  simulator.run(gen, *policy);
  return out.str();
}

TEST(SnapshotEquivalence, OpenLoopArrivalsIdenticalColdVsWarmClone) {
  const std::string cold = single_run_jsonl(/*open_loop=*/true);
  SnapshotCache cache;
  (void)single_run_jsonl(/*open_loop=*/true, &cache);  // fills the memory tier
  const std::string warm = single_run_jsonl(/*open_loop=*/true, &cache);
  EXPECT_NE(warm.find("\"snapshot\":\"warm_clone\""), std::string::npos);
  EXPECT_EQ(strip_snapshot_fields(warm), cold);
  // And the models must genuinely differ, or open-loop coverage is fake.
  EXPECT_NE(cold, single_run_jsonl(/*open_loop=*/false));
}

}  // namespace
}  // namespace jitgc::sim

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
  spec.ops_per_sec = 80.0;
  spec.duty_cycle = 1.0;
  spec.working_set_fraction = 0.3;
  spec.footprint_fraction = 0.6;
  return spec;
}

ArraySimConfig small_array(std::size_t threads) {
  ArraySimConfig config;
  config.ssd = small_device();
  config.array.devices = 4;
  config.array.stripe_chunk_pages = 4;
  config.array.gc_mode = ArrayGcMode::kStaggered;
  config.array.max_concurrent_gc = 1;
  config.duration = seconds(30);
  config.flush_period = seconds(5);
  config.seed = 7;
  config.step_threads = threads;
  return config;
}

std::string array_run_jsonl(const ArraySimConfig& config,
                            sim::SnapshotCache* snapshots = nullptr) {
  ArraySimulator simulator(config);
  if (snapshots != nullptr) simulator.set_snapshot_cache(snapshots);
  wl::SyntheticWorkload gen(steady_spec(), simulator.ssd_array().user_pages(), config.seed);
  std::ostringstream out;
  sim::JsonlMetricsSink sink(out, /*run_index=*/0, config.seed);
  simulator.set_metrics_sink(&sink);
  simulator.run(gen);
  return out.str();
}

TEST(SnapshotEquivalence, ArrayJsonlIdenticalColdVsWarmAcrossThreadCounts) {
  const std::string cold = array_run_jsonl(small_array(1));
  EXPECT_EQ(cold, array_run_jsonl(small_array(4)));

  sim::SnapshotCache cache;
  (void)array_run_jsonl(small_array(1), &cache);
  const std::string warm1 = array_run_jsonl(small_array(1), &cache);
  const std::string warm4 = array_run_jsonl(small_array(4), &cache);
  EXPECT_NE(warm1.find("\"snapshot\":\"warm_clone\""), std::string::npos);
  EXPECT_EQ(strip_snapshot_fields(warm1), cold);
  EXPECT_EQ(strip_snapshot_fields(warm4), cold);
}

TEST(SnapshotEquivalence, RebuildAndOutageLifecycleIdenticalColdVsWarm) {
  // The hardest cell: parity redundancy, a scripted kill promoting a spare,
  // and a transient outage suspending the rebuilding slot mid-flight. A
  // restored array must narrate the whole state machine identically —
  // including the hot spare, which is never serialized but rebuilt
  // factory-fresh.
  const auto lifecycle = [](sim::SnapshotCache* snapshots) {
    ArraySimConfig config = small_array(1);
    config.array.redundancy = RedundancyScheme::kParity;
    config.array.spare_devices = 1;
    config.array.rebuild_rate_floor = 0.02;
    config.duration = seconds(40);
    config.kill_slot = 1;
    config.kill_at = seconds(10);
    config.outage_slot = 1;
    config.outage_at = seconds(15);
    config.outage_restore_at = seconds(25);
    return array_run_jsonl(config, snapshots);
  };
  const std::string cold = lifecycle(nullptr);
  // The cell must have exercised the suspend/resume machinery.
  EXPECT_NE(cold.find("\"state\":\"suspended\""), std::string::npos);
  EXPECT_NE(cold.find("\"state\":\"resumed\""), std::string::npos);

  sim::SnapshotCache cache;
  (void)lifecycle(&cache);
  const std::string warm = lifecycle(&cache);
  EXPECT_NE(warm.find("\"snapshot\":\"warm_clone\""), std::string::npos);
  EXPECT_EQ(jitgc::strip_snapshot_fields(warm), cold);
}

}  // namespace
}  // namespace jitgc::array
