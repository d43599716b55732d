// Discrete-event simulation of a striped SSD array under coordinated JIT-GC.
//
// The measured run is the shared calendar loop (sim/run_loop.h) over the
// single workload stream or the multi-tenant front-end; this class supplies
// its hooks (tick = the coordinator tick below, serve = one stripe op; no
// background work between events, power cuts are scripted at ticks).
// Preconditioning, snapshots, baselines, fault and recovery records, tenant
// records and run-level tails live in the shared sim::RunHarness.
//
// Event model (deliberately different from sim/Simulator in two ways):
//
//  * Arrivals are OPEN-LOOP. The array front-end serves many concurrent
//    clients, so the next request does not wait for the previous one: each
//    op's think time is an inter-arrival gap, arrivals queue on their
//    devices, and latency = completion - arrival. This is what makes GC
//    coordination visible — a synchronized GC window builds a real backlog
//    that takes time to drain, while a well-paced one does not. (The
//    closed-loop single-SSD model with one outstanding op can never show
//    that difference: at most one op waits per window.)
//  * The array sits below the host page cache: every write is a device
//    write (the workload stream is the post-cache, device-level stream).
//
// Per tick (every flush_period):
//  1. Poll each slot device's C_free through the extended interface,
//     charging the per-command overhead to that device's queue; update the
//     slot's demand EWMA from the interval's host writes.
//  2. GcCoordinator::decide() picks grants (naive / staggered / max-k).
//  3. Granted devices collect in parallel on a common::ThreadPool — FTL
//     states are disjoint, each task touches only its own device, and
//     results merge in slot-index order after the barrier, so output is
//     byte-identical at any thread count (the sweep engine's discipline).
//  4. If a rebuild is active (redundancy.h / rebuild_manager.h), the
//     coordinator issues its `rebuild` grant (decide_rebuild) and the
//     manager reconstructs rows within that budget — serially, on the main
//     thread, after the GC barrier, so rebuild progress is deterministic.
//  5. Each device's GC and rebuild bursts become busy windows inside the
//     coming interval: coordinated grants are spread evenly (the array
//     scheduler paces everything it grants; urgency only raises the time
//     budget), naive grants run as one contiguous session from the tick (a
//     local policy has no pacing contract). An op arriving inside a window
//     waits for the window's end.
//
// A stripe op completes at the max of its per-device completions; one
// collecting device therefore stalls every request that touches it, which
// is the array-level tail the metrics records capture.
//
// Every layout, RAID-0 included (the `none` scheme), routes each page of an
// op through the RedundancyLayout and the RebuildManager's slot states: a
// RAID-0 write is one write to the page's slot, mirror writes land on both
// pair members, parity writes pay the RAID-5 read-modify-write (read old
// data + old parity in parallel, then write both), and reads of a lost or
// still-rebuilding chunk reconstruct from survivors. Device retirement
// (ftl::DeviceWornOut, or the scripted kill_slot injection) flows through
// handle_slot_failure: RAID-0 keeps its device_worn_out ending (so its
// slots never leave healthy), redundant arrays go degraded, promote a spare
// and rebuild, and end with "array_data_loss" only when a failure lands on
// an already-exposed stripe. RAID-0 output differs from the redundant
// layouts only by that ending, in-place power-cut recovery, the absent
// array_interval.state, and its ARRAY-<MODE> policy name.
#pragma once

#include <cstdint>
#include <vector>

#include "array/gc_coordinator.h"
#include "array/rebuild_manager.h"
#include "array/ssd_array.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "host/frontend/tenant_config.h"
#include "sim/metrics.h"
#include "sim/run_harness.h"
#include "sim/run_loop.h"
#include "sim/snapshot.h"
#include "sim/ssd.h"
#include "workload/workload.h"

namespace jitgc::sim {
class MetricsSink;
}

namespace jitgc::array {

struct ArraySimConfig {
  sim::SsdConfig ssd;  ///< per-device configuration (every device identical)
  ArrayConfig array;
  /// Measured run length (after preconditioning).
  TimeUs duration = seconds(300);
  /// Coordinator tick period (the flusher cadence of the single-SSD model).
  TimeUs flush_period = seconds(5);
  /// Age every device before measuring (fill footprint, scramble working
  /// set), exactly like the single-SSD simulator but per device, in parallel.
  bool precondition = true;
  std::uint64_t seed = 1;
  /// Threads for the per-tick GC fan-out and preconditioning (0 = hardware).
  std::size_t step_threads = 0;
  /// Scripted fault injection: retire the device occupying this slot at the
  /// first tick at or after `kill_at` (-1: disabled). Deterministic by
  /// construction — tests and the rebuild bench use it to place a failure
  /// exactly, independent of the stochastic fault model.
  std::int32_t kill_slot = -1;
  TimeUs kill_at = 0;
  /// Scripted transient outage (redundant layouts only): the device in this
  /// slot goes offline — contents preserved — at the first tick at or after
  /// `outage_at` and comes back at the first tick at or after
  /// `outage_restore_at` (-1: disabled). Unlike kill_slot the device is not
  /// retired: while suspended it takes no I/O (reads reconstruct from
  /// survivors, writes to its rows are recorded as stains), and on restore
  /// the rebuild manager resyncs only what it missed. This is the regression
  /// harness for rebuild-resume-after-second-transient-failure.
  std::int32_t outage_slot = -1;
  TimeUs outage_at = 0;
  TimeUs outage_restore_at = 0;
  /// Scripted sudden power-off: the device in this slot loses all volatile
  /// state at the first tick at or after `spo_at` (-1: disabled) and
  /// recovers its map by OOB scan (ftl/recovery.h). Redundant layouts take
  /// the slot through the suspend -> resume lifecycle — the scan happens
  /// offline and writes the slot missed resync as rebuild stains at the
  /// next tick; RAID-0 recovers in place with the scan occupying the
  /// device's queue.
  std::int32_t spo_slot = -1;
  TimeUs spo_at = 0;
  /// Multi-tenant front-end (host/frontend). Empty tenant list (the default)
  /// keeps the legacy single-stream open-loop arrivals and byte-identical
  /// output; non-empty requires run()'s workload to be a HostFrontend.
  frontend::FrontendConfig frontend;
};

class ArraySimulator {
 public:
  explicit ArraySimulator(const ArraySimConfig& config);

  /// Runs `workload` over the array; one ArraySimulator = one run.
  sim::SimReport run(wl::WorkloadGenerator& workload);

  /// Attaches a metrics sink (not owned; may be null). Emits one
  /// DeviceIntervalRecord per slot plus one ArrayIntervalRecord per tick,
  /// fault records tagged with their device, rebuild_progress / array_state
  /// records when redundancy is active, and the final report.
  void set_metrics_sink(sim::MetricsSink* sink) { harness_.set_metrics_sink(sink); }

  /// Attaches a warm-state snapshot cache (not owned; may be null). One
  /// array snapshot concatenates the per-slot device states (hot spares stay
  /// factory-fresh and are rebuilt, not serialized); a hit skips the whole
  /// parallel preconditioning fan-out with byte-identical measured output.
  /// Set before run().
  void set_snapshot_cache(sim::SnapshotCache* cache) { harness_.set_snapshot_cache(cache); }

  const SsdArray& ssd_array() const { return array_; }

 private:
  template <typename Host>
  friend void sim::run_measured(Host& host, const sim::MeasuredRun& run, TimeUs& elapsed);

  // -- Measured-run hooks (sim/run_loop.h) --------------------------------------
  /// No device work runs between events: GC and rebuild happen in the busy
  /// windows each tick schedules.
  void advance(TimeUs /*now*/) {}
  /// The coordinator tick (steps 0-7 in the header comment).
  void tick(TimeUs now);
  /// Array power cuts are scripted at ticks (apply_scripted_spo); the
  /// calendar never arms kSpo for the array.
  void spo(TimeUs /*now*/) {}
  /// Serves one stripe op at `issue` and records its latency from `arrival`.
  TimeUs serve(const wl::AppOp& op, TimeUs issue, TimeUs arrival);

  /// A scheduled GC/rebuild busy window [start, end) on one device's timeline.
  struct GcWindow {
    TimeUs start = 0;
    TimeUs end = 0;
  };

  /// Host-visible queue state of one *physical* device (the array's
  /// per-device ServiceModel: a single busy_until plus the window calendar).
  struct DeviceState {
    TimeUs busy_until = 0;
    std::vector<GcWindow> windows;
    std::size_t window_cursor = 0;
    // Interval accumulators (reset each tick).
    Bytes interval_write_bytes = 0;
    TimeUs interval_busy_us = 0;
    std::uint64_t interval_fgc_base = 0;
  };

  /// What one device's parallel GC task produced.
  struct GcPhaseResult {
    std::vector<TimeUs> bursts;  ///< individual GC step service times
    Bytes reclaimed_bytes = 0;
    TimeUs gc_time_us = 0;
    bool worn_out = false;  ///< the device died collecting (handled post-barrier)
  };

  /// Ages every slot device cold, in parallel: sim::age_device() on the
  /// slot's share of the footprint and working set with a per-slot seed,
  /// then a background-GC rest back to the OP reserve.
  void precondition(Lba footprint, Lba ws);
  /// Everything that determines the post-precondition array state (the
  /// per-device fingerprint fields plus the stripe/redundancy shape).
  std::string array_precondition_fingerprint(Lba footprint, Lba ws) const;
  /// Scripted transient-outage script: suspend / restore transitions due at
  /// `now` (phase 0 of tick, next to the scripted kill).
  void apply_scripted_outage(TimeUs now);
  /// Scripted sudden power-off: device-level OOB-scan recovery at the SPO
  /// tick (suspending the slot when the layout is redundant), resume with
  /// stain resync at the following tick.
  void apply_scripted_spo(TimeUs now);
  /// Brings a suspended slot back (RebuildManager::resume_slot) and emits
  /// the "resumed" state record with the outcome as its reason.
  void resume_slot(std::uint32_t slot, TimeUs now);
  /// Serves `cost` on physical device `dev` no earlier than `earliest`,
  /// waiting out any GC window the start falls into; returns the completion
  /// time and sets `stalled` if a window delayed the op.
  TimeUs dispatch(std::uint32_t dev, TimeUs earliest, TimeUs cost, bool& stalled);
  /// One slot's GC work for a tick (runs on the pool; touches only its own
  /// device).
  GcPhaseResult collect_slot(std::uint32_t slot, const GcGrant& grant);
  /// Drains every device's degradation events through the harness.
  void drain_fault_events(double time_s);
  /// Serves every page of `op`, retrying the whole op after a mid-op
  /// retirement; counts the op's host bytes once per page.
  TimeUs execute_op(const wl::AppOp& op, TimeUs issue, bool& stalled);
  /// One logical page through the layout, one attempt; returns its
  /// completion and throws SlotFailureSignal when a device dies under it.
  TimeUs execute_page(wl::OpType type, Lba lba, TimeUs issue, bool& stalled);
  /// Routes a retirement through the rebuild manager (RAID-0: rethrows the
  /// legacy DeviceWornOut) and emits the state records.
  void handle_slot_failure(std::uint32_t slot, TimeUs at, const char* reason);
  void emit_state_record(TimeUs at, const char* state, std::uint32_t slot,
                         std::uint32_t device, const char* reason);

  ArraySimConfig config_;
  SsdArray array_;
  sim::RunHarness harness_;
  GcCoordinator coordinator_;
  ThreadPool pool_;
  /// Not RAID-0. Read only where RAID-0 output differs by contract.
  bool redundant_ = false;
  RebuildManager rebuild_mgr_;  ///< every slot stays healthy under RAID-0
  std::vector<DeviceState> states_;       ///< per physical device
  std::vector<double> slot_demand_ewma_;  ///< per slot: EWMA of host-write bytes/interval
  bool kill_done_ = false;
  bool outage_done_ = false;
  bool outage_restored_ = false;
  bool spo_done_ = false;
  bool spo_resumed_ = false;

  // -- Run-level metrics (the shared tails live in harness_) -------------------
  /// Write tail over exposed (degraded/rebuilding) intervals only.
  TailTracker degraded_write_latencies_ = TailTracker::run_level();
  Bytes app_write_bytes_ = 0;
  Bytes reclaim_requested_ = 0;
  double degraded_time_s_ = 0.0;  ///< accumulated at flush_period granularity
  double rebuild_time_s_ = 0.0;

  // -- Interval metrics --------------------------------------------------------
  std::uint64_t interval_index_ = 0;
  /// 1-based interval currently in progress (state records are stamped with
  /// it: ticks close interval `tick+1`, ops between ticks belong to the next).
  std::uint64_t current_interval_ = 1;
  /// Write-only interval tail (the all-op tail lives in harness_).
  TailTracker interval_write_latencies_;
  std::uint64_t interval_stalled_ops_ = 0;
  Bytes interval_write_bytes_ = 0;
  Bytes interval_read_bytes_ = 0;
};

}  // namespace jitgc::array
