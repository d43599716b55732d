// Crash-safe sweeps: checkpointed runs resume byte-identically, manifests
// refuse to splice different sweeps together, and a failing run surfaces its
// full identity.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/rng.h"
#include "sim/sweep.h"
#include "temp_path.h"
#include "workload/specs.h"

namespace jitgc::sim {
namespace {

namespace fs = std::filesystem;

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

SweepOptions base_options(const std::string& checkpoint_dir = {}) {
  SweepOptions options;
  options.base = small_config();
  options.base_seed = 42;
  options.seeds = 2;
  options.threads = 2;
  options.emit_intervals = true;
  options.checkpoint_dir = checkpoint_dir;
  return options;
}

std::string sweep_bytes(const SweepOptions& options) {
  std::ostringstream out;
  run_sweep_to(out, options, small_matrix());
  return out.str();
}

class SweepResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing_util::unique_temp_path("ckpt");
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(SweepResumeTest, InterruptedSweepResumesByteIdentically) {
  // Uninterrupted reference, no checkpointing involved.
  const std::string reference = sweep_bytes(base_options());

  // A checkpointed sweep leaves a manifest and one file per run.
  const std::string checkpointed = sweep_bytes(base_options(dir_.string()));
  EXPECT_EQ(checkpointed, reference);
  ASSERT_TRUE(fs::exists(dir_ / "manifest.txt"));
  ASSERT_TRUE(fs::exists(dir_ / "run_000000"));
  ASSERT_TRUE(fs::exists(dir_ / "run_000003"));

  // Simulate a kill after two of four runs: remove the other two run files.
  fs::remove(dir_ / "run_000001");
  fs::remove(dir_ / "run_000002");

  SweepOptions resume = base_options(dir_.string());
  resume.resume = true;
  std::ostringstream out;
  run_sweep_to(out, resume, small_matrix());
  EXPECT_EQ(out.str(), reference);

  // And the resumed results flag which runs were loaded from disk.
  fs::remove(dir_ / "run_000002");
  const auto results = run_sweep(resume, small_matrix());
  ASSERT_EQ(results.size(), 4u);
  EXPECT_TRUE(results[0].resumed);
  EXPECT_TRUE(results[1].resumed);
  EXPECT_FALSE(results[2].resumed);
  EXPECT_TRUE(results[3].resumed);
}

TEST_F(SweepResumeTest, ResumeRefusesForeignManifest) {
  (void)sweep_bytes(base_options(dir_.string()));

  SweepOptions different = base_options(dir_.string());
  different.base_seed = 43;  // a different sweep entirely
  different.resume = true;
  EXPECT_THROW(sweep_bytes(different), std::runtime_error);
}

TEST_F(SweepResumeTest, ResumeWithoutManifestFailsCleanly) {
  fs::create_directories(dir_);
  SweepOptions resume = base_options(dir_.string());
  resume.resume = true;
  EXPECT_THROW(sweep_bytes(resume), std::runtime_error);
}

TEST_F(SweepResumeTest, FreshSweepOverStaleDirectoryDropsOldRuns) {
  (void)sweep_bytes(base_options(dir_.string()));

  // New sweep, same directory, different configuration: the stale run files
  // must be cleared so a later resume of the *new* sweep can't splice them.
  SweepOptions fresh = base_options(dir_.string());
  fresh.base_seed = 99;
  fresh.seeds = 1;
  const std::string fresh_bytes = sweep_bytes(fresh);
  EXPECT_FALSE(fs::exists(dir_ / "run_000002"));  // only 2 runs now

  SweepOptions resume = fresh;
  resume.resume = true;
  EXPECT_EQ(sweep_bytes(resume), fresh_bytes);
}

TEST_F(SweepResumeTest, AttemptSeedsPreserveTheRunSeedContract) {
  EXPECT_EQ(sweep_attempt_seed(42, 3, 0), sweep_run_seed(42, 3));
  EXPECT_NE(sweep_attempt_seed(42, 3, 1), sweep_run_seed(42, 3));
  EXPECT_NE(sweep_attempt_seed(42, 3, 1), sweep_attempt_seed(42, 3, 2));
  EXPECT_EQ(sweep_attempt_seed(42, 3, 1), derive_seed(derive_seed(42, 3), 1));
}

TEST(SweepFailure, FailedRunReportsFullIdentity) {
  SweepOptions options;
  options.base = small_config();
  // An impossible device: the spare pool swallows nearly every block, so the
  // FTL constructor rejects the configuration on every attempt.
  options.base.ssd.ftl.spare_blocks = 250;
  options.base_seed = 42;
  options.run_retries = 2;
  try {
    run_sweep(options, small_matrix());
    FAIL() << "expected the sweep to fail";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("sweep run "), std::string::npos) << what;
    EXPECT_NE(what.find("seed "), std::string::npos) << what;
    EXPECT_NE(what.find("workload YCSB"), std::string::npos) << what;
    EXPECT_NE(what.find("policy "), std::string::npos) << what;
    EXPECT_NE(what.find("3 attempt(s)"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace jitgc::sim
