// Sudden-power-off injection at the simulator level: the kSpo event, the
// host-level integrity oracle (shadow of acknowledged writes verified on
// every post-crash read), recovery metrics plumbing, the checkpoint's scan
// bound end to end, and the snapshot-fingerprint contract for the SPO knobs.
#include <gtest/gtest.h>

#include <sstream>

#include "sim/experiment.h"
#include "sim/metrics_sink.h"
#include "sim/simulator.h"
#include "sim/snapshot.h"
#include "workload/specs.h"
#include "workload/synthetic.h"

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
  sim.duration = seconds(40);
  return sim;
}

wl::WorkloadSpec test_workload() {
  wl::WorkloadSpec spec = wl::ycsb_spec();
  spec.ops_per_sec = 300.0;
  return spec;
}

TEST(SpoRecovery, MidRunCrashKeepsEveryAcknowledgedWrite) {
  SimConfig cfg = test_config();
  cfg.spo_at_s = 15.0;
  const SimReport r = run_cell(cfg, test_workload(), PolicyKind::kJit);
  EXPECT_EQ(r.spo_events, 1u);
  EXPECT_GT(r.recovery_scanned_pages, 0u);
  EXPECT_GT(r.recovery_time_s, 0.0);
  EXPECT_EQ(r.recovery_lost_mappings, 0u);
  // The oracle swept the whole shadow after recovery and re-checked every
  // later device read: zero stale reads is the integrity contract.
  EXPECT_GT(r.integrity_reads_verified, 0u);
  EXPECT_EQ(r.integrity_stale_reads, 0u);
  EXPECT_EQ(r.run_end_reason, "completed");
}

TEST(SpoRecovery, RepeatedCrashesAllRecover) {
  SimConfig cfg = test_config();
  cfg.spo_at_s = 8.0;
  cfg.spo_every_s = 10.0;  // cuts at 8, 18, 28, 38
  const SimReport r = run_cell(cfg, test_workload(), PolicyKind::kJit);
  EXPECT_EQ(r.spo_events, 4u);
  EXPECT_EQ(r.integrity_stale_reads, 0u);
  EXPECT_EQ(r.recovery_lost_mappings, 0u);
}

TEST(SpoRecovery, CrashWithFaultInjectionAndEveryPolicyStaysClean) {
  // Fault-model interaction at the sim level (the exhaustive 5-policy × 2
  // matrix lives in tests/ftl/recovery_test.cpp; this covers the full stack
  // with grown-bad blocks and retirements in the mix).
  for (const bool faults : {false, true}) {
    SimConfig cfg = test_config(3);
    cfg.spo_at_s = 12.0;
    cfg.spo_every_s = 14.0;
    if (faults) {
      // Mild enough that preconditioning the small device retires a couple
      // of blocks without draining the spare pool before the cuts land.
      cfg.ssd.ftl.fault.program_fail_prob = 0.0001;
      cfg.ssd.ftl.fault.erase_fail_prob = 0.00005;
      cfg.ssd.ftl.spare_blocks = 8;
    }
    const SimReport r = run_cell(cfg, test_workload(), PolicyKind::kJit);
    EXPECT_GE(r.spo_events, 2u) << "faults=" << faults;
    EXPECT_EQ(r.integrity_stale_reads, 0u) << "faults=" << faults;
    EXPECT_EQ(r.recovery_lost_mappings, 0u) << "faults=" << faults;
  }
}

TEST(SpoRecovery, DeterministicForSameSeed) {
  SimConfig cfg = test_config(5);
  cfg.spo_at_s = 13.0;
  cfg.ssd.ftl.checkpoint_interval_erases = 16;
  const SimReport a = run_cell(cfg, test_workload(), PolicyKind::kJit);
  const SimReport b = run_cell(cfg, test_workload(), PolicyKind::kJit);
  EXPECT_EQ(a.spo_events, b.spo_events);
  EXPECT_EQ(a.recovery_scanned_pages, b.recovery_scanned_pages);
  EXPECT_DOUBLE_EQ(a.recovery_time_s, b.recovery_time_s);
  EXPECT_EQ(a.integrity_reads_verified, b.integrity_reads_verified);
  EXPECT_EQ(a.ops_completed, b.ops_completed);
  EXPECT_EQ(a.nand_programs, b.nand_programs);
}

TEST(SpoRecovery, CheckpointedRecoveryScansStrictlyFewerPages) {
  SimConfig full = test_config(7);
  full.spo_at_s = 15.0;
  SimConfig ck = full;
  ck.ssd.ftl.checkpoint_interval_erases = 8;
  const SimReport r_full = run_cell(full, test_workload(), PolicyKind::kJit);
  const SimReport r_ck = run_cell(ck, test_workload(), PolicyKind::kJit);
  ASSERT_EQ(r_full.spo_events, 1u);
  ASSERT_EQ(r_ck.spo_events, 1u);
  EXPECT_LT(r_ck.recovery_scanned_pages, r_full.recovery_scanned_pages);
  EXPECT_LT(r_ck.recovery_time_s, r_full.recovery_time_s);
  EXPECT_EQ(r_ck.integrity_stale_reads, 0u);
  EXPECT_EQ(r_full.integrity_stale_reads, 0u);
}

TEST(SpoRecovery, CrashDuringPreconditioningRecoversSilently) {
  // A cut mid-fill exercises recovery on a half-aged device. It is device
  // state only — no measured-run metrics — so the report carries no SPO
  // events, and the measured phase (with its own oracle armed) stays clean.
  SimConfig cfg = test_config();
  cfg.spo_precondition_after_writes = 20000;
  const SimReport r = run_cell(cfg, test_workload(), PolicyKind::kJit);
  EXPECT_EQ(r.spo_events, 0u);
  EXPECT_EQ(r.integrity_stale_reads, 0u);
  EXPECT_EQ(r.run_end_reason, "completed");
}

TEST(SpoRecovery, RecoveryRecordsReachTheMetricsSink) {
  SimConfig cfg = test_config();
  cfg.spo_at_s = 15.0;
  cfg.ssd.ftl.checkpoint_interval_erases = 8;
  Simulator simulator(cfg);
  wl::SyntheticWorkload gen(test_workload(), simulator.ssd().ftl().user_pages(), cfg.seed);
  const auto policy = make_policy(PolicyKind::kJit, cfg);
  RecordingMetricsSink sink;
  simulator.set_metrics_sink(&sink);
  simulator.run(gen, *policy);

  ASSERT_EQ(sink.recoveries().size(), 1u);
  const RecoveryRecord& rec = sink.recoveries()[0];
  EXPECT_EQ(rec.index, 1u);
  EXPECT_DOUBLE_EQ(rec.time_s, 15.0);
  EXPECT_EQ(rec.device, -1);  // single-SSD record carries no device tag
  EXPECT_TRUE(rec.used_checkpoint);
  EXPECT_GT(rec.scanned_pages, 0u);
  EXPECT_LT(rec.scanned_blocks, rec.total_blocks);
  EXPECT_EQ(rec.lost_mappings, 0u);
  EXPECT_GT(rec.recovery_time_s, 0.0);
}

TEST(SpoRecovery, RunRecordOmitsSpoFieldsUnlessACrashFired) {
  // Legacy byte-stability: without SPO the JSONL run record must not grow
  // new fields; with SPO it must carry the recovery block.
  const auto run_jsonl = [](double spo_at) {
    SimConfig cfg = test_config();
    cfg.spo_at_s = spo_at;
    Simulator simulator(cfg);
    wl::SyntheticWorkload gen(test_workload(), simulator.ssd().ftl().user_pages(), cfg.seed);
    const auto policy = make_policy(PolicyKind::kJit, cfg);
    std::ostringstream out;
    JsonlMetricsSink sink(out, /*run_index=*/0, cfg.seed);
    simulator.set_metrics_sink(&sink);
    simulator.run(gen, *policy);
    return out.str();
  };
  const std::string without = run_jsonl(-1.0);
  const std::string with = run_jsonl(15.0);
  EXPECT_EQ(without.find("spo_events"), std::string::npos);
  EXPECT_EQ(without.find("\"type\":\"recovery\""), std::string::npos);
  EXPECT_NE(with.find("\"spo_events\":1"), std::string::npos);
  EXPECT_NE(with.find("\"type\":\"recovery\""), std::string::npos);
  EXPECT_NE(with.find("\"integrity_stale_reads\":0"), std::string::npos);
}

// -- Snapshot fingerprint contract --------------------------------------------

TEST(SpoRecovery, MeasuredRunSpoDoesNotChangeThePreconditionFingerprint) {
  // --spo-at / --spo-every cannot touch post-precondition state: an SPO
  // sweep must share one warm snapshot across all its cells.
  SimConfig base = test_config();
  SimConfig spo = base;
  spo.spo_at_s = 15.0;
  spo.spo_every_s = 5.0;
  EXPECT_EQ(precondition_fingerprint(base, 1000, 500), precondition_fingerprint(spo, 1000, 500));
}

TEST(SpoRecovery, PreconditionSpoAndCheckpointIntervalJoinTheFingerprint) {
  SimConfig base = test_config();
  SimConfig pre_spo = base;
  pre_spo.spo_precondition_after_writes = 1000;
  EXPECT_NE(precondition_fingerprint(base, 1000, 500),
            precondition_fingerprint(pre_spo, 1000, 500));

  SimConfig ck = base;
  ck.ssd.ftl.checkpoint_interval_erases = 32;
  EXPECT_NE(precondition_fingerprint(base, 1000, 500), precondition_fingerprint(ck, 1000, 500));
}

}  // namespace
}  // namespace jitgc::sim
