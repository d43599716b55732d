// Redundancy layout math, spare promotion, and the degraded → rebuilding →
// restored lifecycle (array/redundancy.h, array/rebuild_manager.h), plus the
// legacy RAID-0 contract: without redundancy a retirement ends the array.
#include "array/rebuild_manager.h"

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>

#include "array/array_simulator.h"
#include "array/redundancy.h"
#include "sim/metrics_sink.h"
#include "workload/specs.h"
#include "workload/synthetic.h"

namespace jitgc::array {
namespace {

// -- Layout math --------------------------------------------------------------

TEST(RedundancyLayout, MirrorStripesOverPairsAndWritesBothMembers) {
  // 4 slots = 2 mirrored columns; chunk 4, 32 pages/device.
  const RedundancyLayout layout(RedundancyScheme::kMirror, 4, 4, 32);
  EXPECT_EQ(layout.user_pages(), 32u * 2);  // half the raw capacity
  // Chunk 0 -> column 0 (slots 0/1), chunk 1 -> column 1 (slots 2/3),
  // chunk 2 wraps to column 0 at the next device row.
  EXPECT_EQ(layout.map_data(0).slot, 0u);
  EXPECT_EQ(layout.map_data(0).lba, 0u);
  EXPECT_EQ(layout.map_data(4).slot, 2u);
  EXPECT_EQ(layout.map_data(4).lba, 0u);
  EXPECT_EQ(layout.map_data(8).slot, 0u);
  EXPECT_EQ(layout.map_data(8).lba, 4u);
  EXPECT_EQ(layout.mirror_partner(0), 1u);
  EXPECT_EQ(layout.mirror_partner(1), 0u);
  EXPECT_EQ(layout.mirror_partner(3), 2u);
  EXPECT_EQ(layout.reconstruction_sources(0, 0), std::vector<std::uint32_t>{1});
}

TEST(RedundancyLayout, ParityRotatesAndSkipsTheParitySlot) {
  // 4 slots = 3 data columns + rotating parity; chunk 4, 32 pages/device.
  const RedundancyLayout layout(RedundancyScheme::kParity, 4, 4, 32);
  EXPECT_EQ(layout.user_pages(), 32u * 3);  // one device's worth is parity
  // Row 0: parity on slot 0, data chunks on slots 1, 2, 3.
  EXPECT_EQ(layout.parity_slot(0), 0u);
  EXPECT_EQ(layout.map_data(0).slot, 1u);
  EXPECT_EQ(layout.map_data(4).slot, 2u);
  EXPECT_EQ(layout.map_data(8).slot, 3u);
  // Row 1: parity moves to slot 1; data occupies 0, 2, 3 in order.
  EXPECT_EQ(layout.parity_slot(1), 1u);
  EXPECT_EQ(layout.map_data(12).slot, 0u);
  EXPECT_EQ(layout.map_data(12).lba, 4u);
  EXPECT_EQ(layout.map_data(16).slot, 2u);
  EXPECT_EQ(layout.map_data(20).slot, 3u);
  // Every survivor contributes to a parity reconstruction.
  EXPECT_EQ(layout.reconstruction_sources(2, 0), (std::vector<std::uint32_t>{0, 1, 3}));
}

TEST(RedundancyLayout, FillSharesAccountForRedundancyOverhead) {
  const Lba chunk = 4;
  // Mirror: both pair members carry the column's share, so the slot shares
  // sum to twice the logical prefix.
  const RedundancyLayout mirror(RedundancyScheme::kMirror, 4, chunk, 32);
  for (const Lba prefix : {1u, 4u, 7u, 32u, 64u}) {
    Lba total = 0;
    for (std::uint32_t s = 0; s < 4; ++s) total += mirror.fill_pages_on_slot(prefix, s);
    EXPECT_EQ(total, 2 * prefix) << "prefix " << prefix;
    EXPECT_EQ(mirror.fill_pages_on_slot(prefix, 0), mirror.fill_pages_on_slot(prefix, 1));
  }
  // Parity: each full row adds one parity chunk; the partial row's parity
  // covers the union of its written offsets (= the first chunk's fill).
  const RedundancyLayout parity(RedundancyScheme::kParity, 4, chunk, 32);
  Lba full_row_total = 0;
  for (std::uint32_t s = 0; s < 4; ++s) {
    full_row_total += parity.fill_pages_on_slot(12, s);  // exactly one row
  }
  EXPECT_EQ(full_row_total, 12u + chunk);  // data + one parity chunk
  // Two pages into row 0: data slot 1 holds 2 pages, parity slot 0 mirrors
  // the union (2 pages), slots 2 and 3 are untouched.
  EXPECT_EQ(parity.fill_pages_on_slot(2, 1), 2u);
  EXPECT_EQ(parity.fill_pages_on_slot(2, 0), 2u);
  EXPECT_EQ(parity.fill_pages_on_slot(2, 2), 0u);
  EXPECT_EQ(parity.fill_pages_on_slot(2, 3), 0u);
}

TEST(RedundancyLayout, NoneFillMatchesTheChunkedStripeFormula) {
  // Reference: the RAID-0 preconditioner's own formula before it was folded
  // into the layout. Whole chunks deal round-robin over the n devices; the
  // partial chunk lands on the device after the last whole one.
  const auto reference = [](Lba prefix, std::uint32_t d, std::uint32_t n, Lba chunk) {
    const Lba full_chunks = prefix / chunk;
    Lba pages = (full_chunks / n) * chunk;
    const auto extra = static_cast<std::uint32_t>(full_chunks % n);
    if (d < extra) pages += chunk;
    if (d == extra) pages += prefix % chunk;
    return pages;
  };
  const Lba chunk = 8;
  const Lba device_pages = 64;
  for (const std::uint32_t n : {4u, 8u}) {
    const RedundancyLayout none(RedundancyScheme::kNone, n, chunk, device_pages);
    const Lba row = chunk * n;
    ASSERT_EQ(none.user_pages(), device_pages * n);
    for (const Lba prefix : {Lba{0}, Lba{1}, chunk - 1, chunk, chunk + 1, row - 1, row, row + 1,
                             none.user_pages()}) {
      Lba total = 0;
      for (std::uint32_t d = 0; d < n; ++d) {
        EXPECT_EQ(none.fill_pages_on_slot(prefix, d), reference(prefix, d, n, chunk))
            << "n " << n << " prefix " << prefix << " device " << d;
        total += none.fill_pages_on_slot(prefix, d);
      }
      EXPECT_EQ(total, prefix) << "n " << n << " prefix " << prefix;
    }
  }
}

// -- Simulator fixtures -------------------------------------------------------

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

ArraySimConfig redundant_array(RedundancyScheme scheme, std::uint32_t spares,
                               std::int32_t kill_slot, double kill_at_s) {
  ArraySimConfig config;
  config.ssd = small_device();
  config.array.devices = 4;
  config.array.stripe_chunk_pages = 4;
  config.array.gc_mode = ArrayGcMode::kStaggered;
  config.array.max_concurrent_gc = 1;
  config.array.redundancy = scheme;
  config.array.spare_devices = spares;
  // Tiny test devices rebuild in well under one full-duty window; a low
  // floor plus the staggered rotation stretches reconstruction over several
  // ticks so the rebuilding state is observable.
  config.array.rebuild_rate_floor = 0.02;
  config.duration = seconds(40);
  config.flush_period = seconds(5);
  config.seed = 7;
  config.step_threads = 1;
  config.kill_slot = kill_slot;
  config.kill_at = seconds(kill_at_s);
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

// -- Legacy RAID-0 contract ---------------------------------------------------

TEST(Rebuild, Raid0DeviceLossEndsTheRunAsWornOut) {
  // Without redundancy the first retirement ends the array — the behavior
  // the array had before schemes existed, now pinned against the scripted
  // kill path.
  sim::RecordingMetricsSink sink;
  const sim::SimReport r =
      run_with_sink(redundant_array(RedundancyScheme::kNone, 0, /*kill_slot=*/1, 10.0), sink);
  EXPECT_TRUE(r.device_worn_out);
  EXPECT_EQ(r.run_end_reason, "device_worn_out");
  EXPECT_LT(r.elapsed_s, 40.0);
  EXPECT_TRUE(sink.array_states().empty());  // no redundancy: no state machine
  EXPECT_EQ(r.device_failures, 0u);          // rebuild block absent for RAID-0
}

// -- Degraded / rebuilding / restored lifecycle -------------------------------

TEST(Rebuild, ParityKillPromotesSpareAndRestores) {
  // Kill at 15 s = tick index 2, off slot 1's rotation turn: reconstruction
  // starts at the floor rate and spans multiple ticks before its full-duty
  // turn comes around.
  sim::RecordingMetricsSink sink;
  const sim::SimReport r =
      run_with_sink(redundant_array(RedundancyScheme::kParity, 1, /*kill_slot=*/1, 15.0), sink);

  EXPECT_EQ(r.run_end_reason, "completed");
  EXPECT_FALSE(r.device_worn_out);
  EXPECT_EQ(r.policy, "ARRAY-PARITY-STAGGERED");
  EXPECT_EQ(r.device_failures, 1u);
  EXPECT_EQ(r.rebuilds_completed, 1u);
  EXPECT_GT(r.rebuild_read_bytes, 0u);
  EXPECT_GT(r.rebuild_write_bytes, 0u);
  EXPECT_GT(r.degraded_time_s, 0.0);
  EXPECT_GE(r.degraded_time_s, r.rebuild_time_s);

  // State records: degraded (the kill), rebuilding (spare 4 promoted),
  // restored (reconstruction done) — in that order.
  ASSERT_EQ(sink.array_states().size(), 3u);
  EXPECT_EQ(sink.array_states()[0].state, "degraded");
  EXPECT_EQ(sink.array_states()[0].slot, 1u);
  EXPECT_EQ(sink.array_states()[0].device, 1u);
  EXPECT_EQ(sink.array_states()[0].reason, "injected_kill");
  EXPECT_EQ(sink.array_states()[1].state, "rebuilding");
  EXPECT_EQ(sink.array_states()[1].device, 4u);  // first (only) spare
  EXPECT_EQ(sink.array_states()[1].reason, "spare_promoted");
  EXPECT_EQ(sink.array_states()[2].state, "restored");
  EXPECT_EQ(sink.array_states()[2].slot, 1u);
  EXPECT_EQ(sink.array_states()[2].reason, "rebuild_complete");

  // Progress is monotone and ends complete.
  ASSERT_FALSE(sink.rebuild_progress().empty());
  Lba prev = 0;
  for (const auto& p : sink.rebuild_progress()) {
    EXPECT_GE(p.rows_done, prev);
    EXPECT_LE(p.rows_done, p.rows_total);
    prev = p.rows_done;
  }
  EXPECT_EQ(sink.rebuild_progress().back().rows_done,
            sink.rebuild_progress().back().rows_total);

  // The interval state annotation tracks the lifecycle.
  bool saw_rebuilding = false;
  bool healthy_after_rebuild = false;
  for (const auto& rec : sink.array_intervals()) {
    if (rec.state == "rebuilding") saw_rebuilding = true;
    if (saw_rebuilding && rec.state == "healthy") healthy_after_rebuild = true;
  }
  EXPECT_TRUE(saw_rebuilding);
  EXPECT_TRUE(healthy_after_rebuild);
}

TEST(Rebuild, MirrorWithoutSpareStaysDegradedButCompletes) {
  sim::RecordingMetricsSink sink;
  const sim::SimReport r =
      run_with_sink(redundant_array(RedundancyScheme::kMirror, 0, /*kill_slot=*/2, 10.0), sink);

  // The partner carries slot 2's reads and writes for the rest of the run.
  EXPECT_EQ(r.run_end_reason, "completed");
  EXPECT_EQ(r.device_failures, 1u);
  EXPECT_EQ(r.rebuilds_completed, 0u);
  EXPECT_EQ(r.rebuild_write_bytes, 0u);
  EXPECT_GT(r.degraded_time_s, 25.0);  // exposed from the kill to the end
  EXPECT_DOUBLE_EQ(r.rebuild_time_s, 0.0);
  EXPECT_GT(r.degraded_write_p99_latency_us, 0.0);
  ASSERT_EQ(sink.array_states().size(), 1u);
  EXPECT_EQ(sink.array_states()[0].state, "degraded");
  EXPECT_TRUE(sink.rebuild_progress().empty());
  for (const auto& rec : sink.array_intervals()) {
    if (rec.interval >= 3) {
      EXPECT_EQ(rec.state, "degraded");
    }
  }
}

TEST(Rebuild, SecondOverlappingFailureIsDataLoss) {
  // Drive the manager directly: parity survives one loss, not two.
  ArrayConfig cfg;
  cfg.devices = 4;
  cfg.stripe_chunk_pages = 4;
  cfg.redundancy = RedundancyScheme::kParity;
  cfg.spare_devices = 0;
  SsdArray array(small_device(), cfg, /*seed=*/7);
  RebuildManager mgr(array);

  const RebuildManager::FailureOutcome out = mgr.on_slot_failure(1);
  EXPECT_FALSE(out.rebuild_started);  // no spare pool
  EXPECT_EQ(mgr.slot_state(1), SlotState::kDegraded);
  EXPECT_TRUE(mgr.any_exposed());
  EXPECT_THROW(mgr.on_slot_failure(3), ArrayDataLoss);
}

TEST(Rebuild, MirrorToleratesLossInDistinctPairs) {
  ArrayConfig cfg;
  cfg.devices = 4;
  cfg.stripe_chunk_pages = 4;
  cfg.redundancy = RedundancyScheme::kMirror;
  cfg.spare_devices = 0;
  SsdArray array(small_device(), cfg, /*seed=*/7);
  RebuildManager mgr(array);

  mgr.on_slot_failure(0);
  // Slot 3's partner (slot 2) is intact: a second loss in the other pair is
  // survivable. Losing slot 0's partner is not.
  EXPECT_NO_THROW(mgr.on_slot_failure(3));
  EXPECT_THROW(mgr.on_slot_failure(1), ArrayDataLoss);
}

TEST(Rebuild, SpareConsumptionOrderIsDeterministic) {
  ArrayConfig cfg;
  cfg.devices = 4;
  cfg.stripe_chunk_pages = 4;
  cfg.redundancy = RedundancyScheme::kParity;
  cfg.spare_devices = 2;
  SsdArray array(small_device(), cfg, /*seed=*/7);
  EXPECT_EQ(array.total_device_count(), 6u);
  EXPECT_EQ(array.spares_available(), 2u);
  RebuildManager mgr(array);

  const auto first = mgr.on_slot_failure(2);
  EXPECT_TRUE(first.rebuild_started);
  EXPECT_EQ(first.replacement_device, 4u);  // lowest spare index first
  EXPECT_EQ(array.slot_device(2), 4u);
  EXPECT_EQ(array.spares_available(), 1u);
}

// -- Determinism during a rebuild ---------------------------------------------

TEST(Rebuild, JsonlByteIdenticalAcrossThreadCountsDuringRebuild) {
  ArraySimConfig one = redundant_array(RedundancyScheme::kParity, 1, /*kill_slot=*/1, 10.0);
  ArraySimConfig four = one;
  one.step_threads = 1;
  four.step_threads = 4;
  const std::string serial = run_jsonl(one);
  const std::string parallel = run_jsonl(four);
  EXPECT_FALSE(serial.empty());
  EXPECT_NE(serial.find("\"type\":\"rebuild_progress\""), std::string::npos);
  EXPECT_NE(serial.find("\"type\":\"array_state\""), std::string::npos);
  EXPECT_EQ(serial, parallel);
}

TEST(Rebuild, DeviceRecordsCarryRebuildTrafficOnlyWhileRebuilding) {
  sim::RecordingMetricsSink sink;
  run_with_sink(redundant_array(RedundancyScheme::kParity, 1, /*kill_slot=*/1, 10.0), sink);
  Bytes survivor_reads = 0;
  Bytes replacement_writes = 0;
  for (const auto& rec : sink.device_intervals()) {
    survivor_reads += rec.rebuild_read_bytes;
    replacement_writes += rec.rebuild_write_bytes;
    if (rec.interval <= 1) {
      // The kill lands on the tick closing interval 2, so interval 1 is
      // strictly pre-failure.
      EXPECT_EQ(rec.rebuild_read_bytes + rec.rebuild_write_bytes, 0u);
    }
  }
  EXPECT_GT(survivor_reads, 0u);
  EXPECT_GT(replacement_writes, 0u);
  ASSERT_TRUE(sink.has_report());
  EXPECT_EQ(survivor_reads, sink.report().rebuild_read_bytes);
  EXPECT_EQ(replacement_writes, sink.report().rebuild_write_bytes);
}

// -- Host accounting across a mid-op retirement -------------------------------

/// Passes `inner`'s ops through and sums the write bytes of every op the run
/// served: the run loop asks for the next op only once the previous one is
/// done.
class ServedWriteBytes : public wl::WorkloadGenerator {
 public:
  ServedWriteBytes(wl::WorkloadGenerator& inner, Bytes page_size)
      : inner_(inner), page_size_(page_size) {}
  std::string name() const override { return inner_.name(); }
  std::optional<wl::AppOp> next() override {
    if (pending_ && pending_->type == wl::OpType::kWrite) served_ += pending_->bytes(page_size_);
    pending_ = inner_.next();
    return pending_;
  }
  Lba footprint_pages() const override { return inner_.footprint_pages(); }
  Lba working_set_pages() const override { return inner_.working_set_pages(); }
  Bytes served() const { return served_; }

 private:
  wl::WorkloadGenerator& inner_;
  Bytes page_size_;
  std::optional<wl::AppOp> pending_;
  Bytes served_ = 0;
};

TEST(Rebuild, RetriedOpCountsItsHostBytesOnce) {
  // At a 7-cycle endurance rating one parity device wears out under a host
  // write: the op is retried against the promoted spare, and the run
  // completes. The retry re-charges device time and device write bytes, but
  // the host wrote each page once.
  ArraySimConfig config = redundant_array(RedundancyScheme::kParity, 2, /*kill_slot=*/-1, 0.0);
  config.ssd.ftl.enforce_endurance = true;
  config.ssd.ftl.timing.endurance_pe_cycles = 7;
  config.duration = seconds(60);
  ArraySimulator simulator(config);
  wl::SyntheticWorkload gen(steady_spec(), simulator.ssd_array().user_pages(), config.seed);
  ServedWriteBytes served(gen, simulator.ssd_array().page_size());
  sim::RecordingMetricsSink sink;
  simulator.set_metrics_sink(&sink);
  const sim::SimReport r = simulator.run(served);

  ASSERT_EQ(r.run_end_reason, "completed");
  ASSERT_EQ(r.device_failures, 1u);
  EXPECT_EQ(sink.array_states().front().reason, "device_worn_out");
  EXPECT_EQ(r.tbw_bytes(), served.served());
  Bytes interval_writes = 0;
  for (const auto& rec : sink.array_intervals()) interval_writes += rec.write_bytes;
  EXPECT_EQ(interval_writes, served.served());
}

}  // namespace
}  // namespace jitgc::array
