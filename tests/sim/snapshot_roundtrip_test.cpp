// Snapshot save -> restore -> run round-trip property test, plus cache-file
// robustness: a stale, truncated, or corrupt snapshot must fall back to cold
// preconditioning with identical output — never crash, never silently
// corrupt a run.
//
// The round-trip property (satellite of the warm-state snapshot subsystem):
// for every victim policy, with the fault model on and off, and for the
// mirror and parity array layouts, a run restored from a snapshot emits
// byte-identical JSONL to a cold replay (after stripping the cache-only
// `snapshot` / `precondition_wall_s` fields, which carry wall-clock).
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "array/array_simulator.h"
#include "array/redundancy.h"
#include "sim/experiment.h"
#include "sim/metrics_sink.h"
#include "sim/simulator.h"
#include "sim/snapshot.h"
#include "temp_path.h"
#include "workload/specs.h"
#include "workload/synthetic.h"

namespace jitgc::sim {
namespace {

namespace fs = std::filesystem;

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

SimConfig tiny_config(ftl::VictimPolicyKind victim, bool fault) {
  SimConfig sim = default_sim_config();
  sim.ssd.ftl.geometry.channels = 2;
  sim.ssd.ftl.geometry.dies_per_channel = 2;
  sim.ssd.ftl.geometry.planes_per_die = 1;
  sim.ssd.ftl.geometry.blocks_per_plane = 48;
  sim.ssd.ftl.geometry.pages_per_block = 64;
  sim.ssd.ftl.victim_policy = victim;
  sim.cache.capacity = 32 * MiB;
  sim.duration = seconds(10);
  if (fault) {
    sim.ssd.ftl.fault.program_fail_prob = 1e-4;
    sim.ssd.ftl.fault.erase_fail_prob = 1e-3;
    sim.ssd.ftl.spare_blocks = 8;
  }
  return sim;
}

std::string run_jsonl(const SimConfig& config, SnapshotCache* snapshots) {
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

TEST(SnapshotRoundTrip, EveryVictimPolicyWithFaultOnAndOff) {
  const std::vector<ftl::VictimPolicyKind> victims = {
      ftl::VictimPolicyKind::kGreedy, ftl::VictimPolicyKind::kCostBenefit,
      ftl::VictimPolicyKind::kFifo, ftl::VictimPolicyKind::kRandom,
      ftl::VictimPolicyKind::kSampledGreedy};
  for (const auto victim : victims) {
    for (const bool fault : {false, true}) {
      SCOPED_TRACE("victim=" + std::to_string(static_cast<int>(victim)) +
                   " fault=" + std::to_string(fault));
      const SimConfig config = tiny_config(victim, fault);
      const std::string cold = run_jsonl(config, nullptr);

      SnapshotCache cache;
      const std::string filling = run_jsonl(config, &cache);
      EXPECT_NE(filling.find("\"snapshot\":\"cold\""), std::string::npos);
      EXPECT_EQ(strip_snapshot_fields(filling), cold);

      const std::string warm = run_jsonl(config, &cache);
      EXPECT_NE(warm.find("\"snapshot\":\"warm_clone\""), std::string::npos);
      EXPECT_EQ(strip_snapshot_fields(warm), cold);
    }
  }
}

// Different victim policies steer on-demand GC during the fill, so their
// snapshots must not collide in the cache.
TEST(SnapshotRoundTrip, VictimPoliciesGetDistinctFingerprints) {
  SnapshotCache cache;
  (void)run_jsonl(tiny_config(ftl::VictimPolicyKind::kGreedy, false), &cache);
  const std::string other =
      run_jsonl(tiny_config(ftl::VictimPolicyKind::kCostBenefit, false), &cache);
  EXPECT_NE(other.find("\"snapshot\":\"cold\""), std::string::npos);
  EXPECT_EQ(other.find("\"snapshot\":\"warm_clone\""), std::string::npos);
}

// -- Cache-file robustness: stale / truncated / corrupt files ------------------

class SnapshotRobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing_util::unique_temp_path("snap");
    fs::remove_all(dir_);
    config_ = tiny_config(ftl::VictimPolicyKind::kGreedy, false);
    cold_ = run_jsonl(config_, nullptr);
    // Fill the disk tier once; every case doctors this file and retries with
    // a fresh cache instance (fresh memory tier) so the load path runs.
    SnapshotCache filler(dir_.string());
    (void)run_jsonl(config_, &filler);
    snap_ = snap_file();
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path snap_file() const {
    for (const auto& entry : fs::directory_iterator(dir_)) {
      if (entry.path().extension() == ".snap") return entry.path();
    }
    ADD_FAILURE() << "no .snap file in " << dir_;
    return {};
  }

  // The doctored file must be rejected with a cold fallback whose measured
  // output still matches the cold replay exactly.
  void expect_cold_fallback() {
    SnapshotCache cache(dir_.string());
    const std::string out = run_jsonl(config_, &cache);
    EXPECT_NE(out.find("\"snapshot\":\"cold\""), std::string::npos);
    EXPECT_EQ(strip_snapshot_fields(out), cold_);
    EXPECT_EQ(cache.stats().rejected, 1u);
  }

  std::string read_snap() const {
    std::ifstream in(snap_, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }

  void write_snap(const std::string& bytes) const {
    std::ofstream out(snap_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  fs::path dir_;
  fs::path snap_;
  SimConfig config_;
  std::string cold_;
};

TEST_F(SnapshotRobustnessTest, IntactFileRestoresWarmFromDisk) {
  SnapshotCache cache(dir_.string());
  const std::string out = run_jsonl(config_, &cache);
  EXPECT_NE(out.find("\"snapshot\":\"warm_disk\""), std::string::npos);
  EXPECT_EQ(strip_snapshot_fields(out), cold_);
  EXPECT_EQ(cache.stats().disk_hits, 1u);
}

TEST_F(SnapshotRobustnessTest, TruncatedFileFallsBackCold) {
  const std::string bytes = read_snap();
  write_snap(bytes.substr(0, bytes.size() / 2));
  expect_cold_fallback();
}

TEST_F(SnapshotRobustnessTest, BadMagicFallsBackCold) {
  std::string bytes = read_snap();
  bytes[0] ^= 0x5a;
  write_snap(bytes);
  expect_cold_fallback();
}

TEST_F(SnapshotRobustnessTest, FormatVersionMismatchFallsBackCold) {
  // The u32 format version sits immediately after the 8-byte magic.
  std::string bytes = read_snap();
  bytes[8] ^= 0x01;
  write_snap(bytes);
  expect_cold_fallback();
}

TEST_F(SnapshotRobustnessTest, PreviousFormatVersionFallsBackColdWithNamedWarning) {
  // Each older layout must be refused by version, before the payload is ever
  // parsed: a v3 file still carries the mapping-cache blob in its FTL
  // payload, a v4 file the BGC cycle-time EWMA in its Ssd payload. The cold
  // fallback re-stores a current file, so every round starts from one.
  for (std::uint32_t version = 3; version < kSnapshotFormatVersion; ++version) {
    SCOPED_TRACE("format version " + std::to_string(version));
    std::string bytes = read_snap();
    ASSERT_EQ(static_cast<unsigned char>(bytes[8]), kSnapshotFormatVersion);
    bytes.replace(8, 4, std::string{static_cast<char>(version), '\0', '\0', '\0'});
    write_snap(bytes);
    testing::internal::CaptureStderr();
    expect_cold_fallback();
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("snapshot format version mismatch"), std::string::npos) << err;
    EXPECT_NE(err.find("falling back to cold preconditioning"), std::string::npos) << err;
  }
}

TEST_F(SnapshotRobustnessTest, PayloadCorruptionFallsBackCold) {
  std::string bytes = read_snap();
  bytes[bytes.size() - 1] ^= 0x01;  // inside the serialized payload
  write_snap(bytes);
  expect_cold_fallback();
}

TEST_F(SnapshotRobustnessTest, FingerprintMismatchFallsBackCold) {
  // A foreign-but-wellformed snapshot parked under this fingerprint's file
  // name (hash-colliding or hand-copied cache entry): the embedded
  // fingerprint echo must veto it.
  SimConfig other = config_;
  other.seed = config_.seed + 1;
  const fs::path other_dir = dir_.string() + "_other";
  fs::remove_all(other_dir);
  {
    SnapshotCache filler(other_dir.string());
    (void)run_jsonl(other, &filler);
  }
  for (const auto& entry : fs::directory_iterator(other_dir)) {
    if (entry.path().extension() == ".snap") {
      fs::copy_file(entry.path(), snap_, fs::copy_options::overwrite_existing);
    }
  }
  fs::remove_all(other_dir);
  expect_cold_fallback();
}

TEST_F(SnapshotRobustnessTest, EmptyFileFallsBackCold) {
  write_snap({});
  expect_cold_fallback();
}

// -- Disk-tier LRU eviction and advisory locking (--snapshot-cache-limit) -----

std::vector<fs::path> snap_files(const fs::path& dir) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".snap") files.push_back(entry.path());
  }
  return files;
}

TEST(SnapshotEviction, DiskLimitEvictsOldestStoreAndTakesTheDirectoryLock) {
  const fs::path dir = testing_util::unique_temp_path("snap");
  fs::remove_all(dir);
  SnapshotCache cache(dir.string());
  cache.set_disk_limit(2);
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SimConfig config = tiny_config(ftl::VictimPolicyKind::kGreedy, false);
    config.seed = seed;
    (void)run_jsonl(config, &cache);
  }
  EXPECT_EQ(snap_files(dir).size(), 2u);
  EXPECT_EQ(cache.stats().evicted, 1u);
  // Publication and eviction serialise on the advisory directory lock file.
  EXPECT_TRUE(fs::exists(dir / ".lock"));
  fs::remove_all(dir);
}

TEST(SnapshotEviction, DiskHitRefreshesMtimeSoRecentlyUsedSnapshotsSurvive) {
  const fs::path dir = testing_util::unique_temp_path("snap");
  fs::remove_all(dir);
  SimConfig hot = tiny_config(ftl::VictimPolicyKind::kGreedy, false);
  SimConfig stale = hot;
  stale.seed = hot.seed + 1;
  {
    SnapshotCache filler(dir.string());
    (void)run_jsonl(hot, &filler);
    (void)run_jsonl(stale, &filler);
  }
  // Backdate both files so the disk hit's mtime refresh decides the LRU
  // order, independent of filesystem timestamp granularity.
  const auto past = fs::file_time_type::clock::now() - std::chrono::hours(1);
  for (const auto& file : snap_files(dir)) fs::last_write_time(file, past);

  SnapshotCache cache(dir.string());  // fresh memory tier: loads hit the disk
  cache.set_disk_limit(2);
  const std::string warm = run_jsonl(hot, &cache);
  EXPECT_NE(warm.find("\"snapshot\":\"warm_disk\""), std::string::npos);

  SimConfig third = hot;
  third.seed = hot.seed + 2;
  (void)run_jsonl(third, &cache);  // the store pushes the directory past the cap
  EXPECT_EQ(cache.stats().evicted, 1u);
  EXPECT_EQ(snap_files(dir).size(), 2u);

  // The snapshot touched by the disk hit survived; the untouched one was the
  // LRU victim.
  SnapshotCache probe(dir.string());
  const std::string kept = run_jsonl(hot, &probe);
  EXPECT_NE(kept.find("\"snapshot\":\"warm_disk\""), std::string::npos);
  const std::string gone = run_jsonl(stale, &probe);
  EXPECT_NE(gone.find("\"snapshot\":\"cold\""), std::string::npos);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace jitgc::sim

namespace jitgc::array {
namespace {

std::string strip_snapshot_fields(const std::string& jsonl) {
  return sim::strip_snapshot_fields(jsonl);
}

ArraySimConfig redundant_array(RedundancyScheme scheme) {
  ArraySimConfig config;
  config.ssd.ftl.geometry = nand::Geometry{.channels = 2,
                                           .dies_per_channel = 2,
                                           .planes_per_die = 1,
                                           .blocks_per_plane = 24,
                                           .pages_per_block = 16,
                                           .page_size = 4 * KiB};
  config.ssd.ftl.op_ratio = 0.25;
  config.ssd.ftl.timing = nand::timing_20nm_mlc();
  config.array.devices = 4;
  config.array.stripe_chunk_pages = 4;
  config.array.gc_mode = ArrayGcMode::kStaggered;
  config.array.max_concurrent_gc = 1;
  config.array.redundancy = scheme;
  config.array.spare_devices = 1;
  config.duration = seconds(20);
  config.flush_period = seconds(5);
  config.seed = 7;
  config.step_threads = 1;
  return config;
}

std::string array_jsonl(const ArraySimConfig& config, sim::SnapshotCache* snapshots) {
  ArraySimulator simulator(config);
  if (snapshots != nullptr) simulator.set_snapshot_cache(snapshots);
  wl::WorkloadSpec spec;
  spec.name = "steady";
  spec.read_fraction = 0.3;
  spec.min_pages = 1;
  spec.max_pages = 4;
  spec.ops_per_sec = 80.0;
  spec.duty_cycle = 1.0;
  spec.working_set_fraction = 0.3;
  spec.footprint_fraction = 0.6;
  wl::SyntheticWorkload gen(spec, simulator.ssd_array().user_pages(), config.seed);
  std::ostringstream out;
  sim::JsonlMetricsSink sink(out, /*run_index=*/0, config.seed);
  simulator.set_metrics_sink(&sink);
  simulator.run(gen);
  return out.str();
}

TEST(SnapshotRoundTrip, MirrorAndParityLayouts) {
  for (const auto scheme : {RedundancyScheme::kMirror, RedundancyScheme::kParity}) {
    SCOPED_TRACE("scheme=" + std::to_string(static_cast<int>(scheme)));
    const ArraySimConfig config = redundant_array(scheme);
    const std::string cold = array_jsonl(config, nullptr);

    sim::SnapshotCache cache;
    const std::string filling = array_jsonl(config, &cache);
    EXPECT_EQ(strip_snapshot_fields(filling), cold);
    const std::string warm = array_jsonl(config, &cache);
    EXPECT_NE(warm.find("\"snapshot\":\"warm_clone\""), std::string::npos);
    EXPECT_EQ(strip_snapshot_fields(warm), cold);
  }
}

// Mirror and parity shape the preconditioned stripes differently, so the two
// layouts must key distinct snapshots.
TEST(SnapshotRoundTrip, ArrayLayoutsGetDistinctFingerprints) {
  sim::SnapshotCache cache;
  (void)array_jsonl(redundant_array(RedundancyScheme::kMirror), &cache);
  const std::string parity = array_jsonl(redundant_array(RedundancyScheme::kParity), &cache);
  EXPECT_NE(parity.find("\"snapshot\":\"cold\""), std::string::npos);
  EXPECT_EQ(parity.find("\"snapshot\":\"warm_clone\""), std::string::npos);
}

}  // namespace
}  // namespace jitgc::array
