// Scripted sudden power-off against one array slot: redundant layouts walk
// the suspend → recover → resync lifecycle through the RebuildManager; RAID-0
// recovers in place with the scan charged to the device's service queue.
// Either way the run completes and no acknowledged mapping is lost.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "array/array_simulator.h"
#include "array/redundancy.h"
#include "sim/metrics_sink.h"
#include "workload/specs.h"
#include "workload/synthetic.h"

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

ArraySimConfig spo_array(RedundancyScheme scheme, std::int32_t spo_slot, double spo_at_s) {
  ArraySimConfig config;
  config.ssd = small_device();
  config.array.devices = 4;
  config.array.stripe_chunk_pages = 4;
  config.array.gc_mode = ArrayGcMode::kStaggered;
  config.array.max_concurrent_gc = 1;
  config.array.redundancy = scheme;
  config.array.spare_devices = 0;
  config.array.rebuild_rate_floor = 0.02;
  config.duration = seconds(40);
  config.flush_period = seconds(5);
  config.seed = 7;
  config.step_threads = 1;
  config.spo_slot = spo_slot;
  config.spo_at = seconds(spo_at_s);
  return config;
}

sim::SimReport run_with_sink(const ArraySimConfig& config, sim::RecordingMetricsSink& sink) {
  ArraySimulator simulator(config);
  wl::SyntheticWorkload gen(steady_spec(), simulator.ssd_array().user_pages(), config.seed);
  simulator.set_metrics_sink(&sink);
  return simulator.run(gen);
}

std::string run_jsonl(const ArraySimConfig& config) {
  ArraySimulator simulator(config);
  wl::SyntheticWorkload gen(steady_spec(), simulator.ssd_array().user_pages(), config.seed);
  std::ostringstream out;
  sim::JsonlMetricsSink sink(out, /*run_index=*/0, config.seed);
  simulator.set_metrics_sink(&sink);
  simulator.run(gen);
  return out.str();
}

TEST(ArraySpo, MirrorSlotWalksSuspendRecoverResumeLifecycle) {
  sim::RecordingMetricsSink sink;
  const sim::SimReport r =
      run_with_sink(spo_array(RedundancyScheme::kMirror, /*spo_slot=*/1, 10.0), sink);

  EXPECT_EQ(r.run_end_reason, "completed");
  EXPECT_EQ(r.spo_events, 1u);
  EXPECT_GT(r.recovery_scanned_pages, 0u);
  EXPECT_GT(r.recovery_time_s, 0.0);
  EXPECT_EQ(r.recovery_lost_mappings, 0u);

  // Lifecycle: suspended at the cut, resumed (with a stain resync) at the
  // next tick once recovery replayed the map.
  ASSERT_GE(sink.array_states().size(), 2u);
  EXPECT_EQ(sink.array_states()[0].state, "suspended");
  EXPECT_EQ(sink.array_states()[0].slot, 1u);
  EXPECT_EQ(sink.array_states()[0].reason, "injected_spo");
  EXPECT_EQ(sink.array_states()[1].state, "resumed");
  EXPECT_EQ(sink.array_states()[1].slot, 1u);

  // The recovery record carries the device tag and a clean verdict.
  ASSERT_EQ(sink.recoveries().size(), 1u);
  const sim::RecoveryRecord& rec = sink.recoveries()[0];
  EXPECT_EQ(rec.device, 1);
  EXPECT_DOUBLE_EQ(rec.time_s, 10.0);
  EXPECT_GT(rec.scanned_pages, 0u);
  EXPECT_EQ(rec.lost_mappings, 0u);
}

TEST(ArraySpo, ParitySlotRecoversAndRunCompletes) {
  sim::RecordingMetricsSink sink;
  const sim::SimReport r =
      run_with_sink(spo_array(RedundancyScheme::kParity, /*spo_slot=*/2, 15.0), sink);

  EXPECT_EQ(r.run_end_reason, "completed");
  EXPECT_FALSE(r.device_worn_out);
  EXPECT_EQ(r.spo_events, 1u);
  EXPECT_EQ(r.recovery_lost_mappings, 0u);
  ASSERT_GE(sink.array_states().size(), 2u);
  EXPECT_EQ(sink.array_states()[0].state, "suspended");
  EXPECT_EQ(sink.array_states()[0].reason, "injected_spo");
  EXPECT_EQ(sink.array_states()[1].state, "resumed");
  ASSERT_EQ(sink.recoveries().size(), 1u);
  EXPECT_EQ(sink.recoveries()[0].device, 2);
}

TEST(ArraySpo, Raid0RecoversInPlaceWithoutStateMachine) {
  // No redundancy: nothing to suspend into — recovery happens in place, the
  // scan occupies the device's queue, and the run keeps going.
  sim::RecordingMetricsSink sink;
  const sim::SimReport r =
      run_with_sink(spo_array(RedundancyScheme::kNone, /*spo_slot=*/0, 10.0), sink);

  EXPECT_EQ(r.run_end_reason, "completed");
  EXPECT_EQ(r.spo_events, 1u);
  EXPECT_EQ(r.recovery_lost_mappings, 0u);
  EXPECT_TRUE(sink.array_states().empty());  // no redundancy: no state records
  ASSERT_EQ(sink.recoveries().size(), 1u);
  EXPECT_EQ(sink.recoveries()[0].device, 0);
}

TEST(ArraySpo, JsonlCarriesRecoveryRecordAndStaysByteStableAcrossThreads) {
  ArraySimConfig one = spo_array(RedundancyScheme::kMirror, /*spo_slot=*/1, 10.0);
  ArraySimConfig four = one;
  one.step_threads = 1;
  four.step_threads = 4;
  const std::string serial = run_jsonl(one);
  const std::string parallel = run_jsonl(four);
  EXPECT_NE(serial.find("\"type\":\"recovery\""), std::string::npos);
  EXPECT_NE(serial.find("\"device\":1"), std::string::npos);
  EXPECT_NE(serial.find("\"spo_events\":1"), std::string::npos);
  EXPECT_EQ(serial, parallel);
}

TEST(ArraySpo, SpoMidRebuildParksAndResumesReconstruction) {
  // Kill slot 1 at t=15 — off its rotation turn, so the spare-driven
  // reconstruction starts at the floor rate and spans several ticks — then
  // cut power to the same slot at t=20: the SPO lands on the replacement
  // device mid-rebuild. The parked job must resume after recovery and still
  // drive reconstruction to completion.
  ArraySimConfig config = spo_array(RedundancyScheme::kParity, /*spo_slot=*/1, 20.0);
  config.array.spare_devices = 1;
  config.kill_slot = 1;
  config.kill_at = seconds(15.0);
  sim::RecordingMetricsSink sink;
  const sim::SimReport r = run_with_sink(config, sink);

  EXPECT_EQ(r.run_end_reason, "completed");
  EXPECT_EQ(r.spo_events, 1u);
  EXPECT_EQ(r.recovery_lost_mappings, 0u);
  EXPECT_EQ(r.rebuilds_completed, 1u);

  std::vector<std::string> states;
  for (const auto& s : sink.array_states()) states.push_back(s.state);
  const std::vector<std::string> want = {"degraded", "rebuilding", "suspended", "resumed",
                                         "restored"};
  EXPECT_EQ(states, want);
  ASSERT_EQ(sink.recoveries().size(), 1u);
  EXPECT_EQ(sink.recoveries()[0].device, 4);  // the promoted spare took the cut
}

TEST(ArraySpo, SpoOnKilledSlotIsAGuardedNoOp) {
  // The scripted kill retires slot 1 at t=10; the SPO targets the same slot
  // at t=20, when it is no longer healthy. The injector must skip it —
  // never a crash — and the run still ends by the kill's rules.
  ArraySimConfig config = spo_array(RedundancyScheme::kMirror, /*spo_slot=*/1, 20.0);
  config.kill_slot = 1;
  config.kill_at = seconds(10.0);
  sim::RecordingMetricsSink sink;
  const sim::SimReport r = run_with_sink(config, sink);

  EXPECT_EQ(r.run_end_reason, "completed");  // mirror partner carries the slot
  EXPECT_EQ(r.spo_events, 0u);
  EXPECT_TRUE(sink.recoveries().empty());
}

TEST(ArraySpo, SpoSlotOutOfRangeIsRejectedAtConstruction) {
  ArraySimConfig config = spo_array(RedundancyScheme::kMirror, /*spo_slot=*/9, 10.0);
  EXPECT_THROW(ArraySimulator{config}, std::exception);
}

}  // namespace
}  // namespace jitgc::array
