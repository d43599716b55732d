// End-to-end fault injection through the simulator and sweep engine: the
// same (base_seed, fault config) must produce identical JSONL fault events
// at any thread count, runs must end with a structured reason instead of an
// exception, and fault-free configurations must not change a byte of output.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "sim/metrics_sink.h"
#include "sim/sweep.h"
#include "workload/specs.h"

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

SimConfig faulty_config() {
  SimConfig sim = small_config();
  // Rates sized so preconditioning (~10^5 programs on this device) grows a
  // handful of bad blocks. The spare pool must fit inside the 7 % OP space
  // net of the GC headroom, which caps it at ~14 blocks on this geometry.
  sim.ssd.ftl.fault.program_fail_prob = 1e-4;
  sim.ssd.ftl.fault.erase_fail_prob = 1e-3;
  sim.ssd.ftl.spare_blocks = 8;
  return sim;
}

std::vector<SweepCell> small_matrix() {
  wl::WorkloadSpec spec = wl::ycsb_spec();
  spec.ops_per_sec = 300.0;
  spec.duty_cycle = 1.0;  // always-on, as in sweep_test.cpp
  SweepCell lazy;
  lazy.workload = spec;
  lazy.policy = PolicyKind::kLazy;
  SweepCell jit;
  jit.workload = spec;
  jit.policy = PolicyKind::kJit;
  return {lazy, jit};
}

std::string sweep_output(const SimConfig& base, std::size_t threads) {
  SweepOptions options;
  options.base = base;
  options.base_seed = 42;
  options.seeds = 2;
  options.threads = threads;
  options.emit_intervals = true;
  std::ostringstream out;
  run_sweep_to(out, options, small_matrix());
  return out.str();
}

TEST(FaultDeterminism, FaultEventsIdenticalAcrossThreadCounts) {
  const std::string one = sweep_output(faulty_config(), 1);
  const std::string four = sweep_output(faulty_config(), 4);
  const std::string eight = sweep_output(faulty_config(), 8);
  EXPECT_EQ(one, four);
  EXPECT_EQ(one, eight);
  // The fault stream must actually have fired, or the test is vacuous.
  EXPECT_NE(one.find("\"type\":\"fault\""), std::string::npos);
  EXPECT_NE(one.find("\"kind\":\"program_fail\""), std::string::npos);
}

TEST(FaultDeterminism, FaultFreeConfigEmitsLegacySchemaOnly) {
  const std::string out = sweep_output(small_config(), 2);
  // Not a trace of the fault subsystem in fault-free output: no fault
  // records, no degradation fields on the run records.
  EXPECT_EQ(out.find("\"type\":\"fault\""), std::string::npos);
  EXPECT_EQ(out.find("run_end_reason"), std::string::npos);
  EXPECT_EQ(out.find("program_failures"), std::string::npos);
  EXPECT_EQ(out.find("grown_bad_blocks"), std::string::npos);
}

TEST(FaultDeterminism, RunRecordCarriesFaultCounters) {
  SweepOptions options;
  options.base = faulty_config();
  options.base_seed = 7;
  options.threads = 2;
  const auto results = run_sweep(options, small_matrix());
  ASSERT_EQ(results.size(), 2u);
  std::uint64_t failures = 0;
  for (const auto& r : results) failures += r.report.program_failures + r.report.erase_failures;
  EXPECT_GT(failures, 0u);
  bool saw_counter_field = false;
  for (const auto& r : results) {
    saw_counter_field |= r.serialized.find("\"program_failures\":") != std::string::npos ||
                         r.serialized.find("\"erase_failures\":") != std::string::npos;
  }
  EXPECT_TRUE(saw_counter_field);
}

TEST(FaultDeterminism, WornOutDeviceEndsRunWithStructuredReason) {
  SimConfig sim = small_config();
  sim.ssd.ftl.enforce_endurance = true;
  sim.ssd.ftl.timing.endurance_pe_cycles = 6;  // aggressively accelerated
  sim.duration = seconds(100'000);             // effectively "until death"

  wl::WorkloadSpec spec = wl::ycsb_spec();
  spec.ops_per_sec = 300.0;
  spec.duty_cycle = 1.0;
  // No exception escapes: the run ends early with a structured reason.
  const SimReport r = run_cell(sim, spec, PolicyKind::kLazy);
  EXPECT_TRUE(r.device_worn_out);
  EXPECT_EQ(r.run_end_reason, "device_worn_out");
  EXPECT_LT(r.elapsed_s, 100'000.0);

  // And the serialized run record carries the reason.
  const std::string line = format_jsonl(0, 1, r);
  EXPECT_NE(line.find("\"run_end_reason\":\"device_worn_out\""), std::string::npos);
}

TEST(FaultDeterminism, CompletedRunReportsCompleted) {
  const SimReport r = run_cell(small_config(), small_matrix()[0].workload, PolicyKind::kLazy);
  EXPECT_EQ(r.run_end_reason, "completed");
  EXPECT_EQ(format_jsonl(0, 1, r).find("run_end_reason"), std::string::npos);
}

}  // namespace
}  // namespace jitgc::sim
