// The top-level discrete-event simulation: closed-loop application ->
// page cache -> SSD, with a BGC policy deciding at every flusher tick.
//
// Event model
//   * The measured run is the shared calendar loop (sim/run_loop.h). Its
//     arrival source is the single workload stream or, in multi-tenant mode,
//     the frontend::HostFrontend; this class supplies the four hooks
//     (advance = background GC in idle gaps, tick, spo, serve).
//   * In the default closed loop each op's issue time is the previous op's
//     completion plus a think time (so foreground-GC stalls depress achieved
//     IOPS, exactly the effect the paper measures).
//   * The flusher thread ticks every p seconds; evicted dirty pages become
//     device writes, then the active BGC policy is consulted.
//   * The device is a ServiceModel: one queue over parallelism-scaled times
//     by default, or one queue per plane over raw NAND times
//     (SsdConfig::service_queues = 0). Background GC runs in the gaps
//     between device work, up to the target the policy set this interval;
//     a step that overruns into an arrival delays it (imperfect preemption,
//     bounded by one block's cleaning time).
//   * Preconditioning, snapshots, baselines, fault and recovery records,
//     tenant records and run-level tails live in the shared RunHarness
//     (sim/run_harness.h); a single SSD is its one-device case.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "core/accuracy.h"
#include "core/bgc_policy.h"
#include "host/frontend/tenant_config.h"
#include "host/page_cache.h"
#include "sim/metrics.h"
#include "sim/run_harness.h"
#include "sim/run_loop.h"
#include "sim/service_model.h"
#include "sim/snapshot.h"
#include "sim/ssd.h"
#include "workload/workload.h"

namespace jitgc::sim {

class MetricsSink;

/// Idle-detection threshold: opportunistic BGC starts only after the
/// device has been quiet this long (controllers defer cleaning rather than
/// risk stalling imminent host I/O). Think-time gaps inside a burst stay
/// below this, so reserves drain during bursts and replenish in real idle
/// periods — the dynamic the paper's reserved-capacity tradeoff rests on.
/// Urgent (JIT D_reclaim) GC ignores it.
inline constexpr TimeUs kBgcIdleDetect = milliseconds(100);

struct SimConfig {
  SsdConfig ssd;
  host::PageCacheConfig cache;
  /// Measured run length (after preconditioning).
  TimeUs duration = seconds(300);
  /// QoS cap on opportunistic background GC, bytes of net reclaim per
  /// second (0 = unlimited). Real firmware rate-limits BGC to bound its
  /// interference with host latency; the cap does not apply to urgent
  /// (D_reclaim) or foreground GC.
  double bgc_rate_limit_bps = 0.0;
  /// Fill the workload's footprint and scramble the working set first, then
  /// reset all metrics, so runs start from a realistic aged device.
  bool precondition = true;
  std::uint64_t seed = 1;
  /// Sudden power-off injection (sim/engine.h kSpo events): cut power this
  /// many seconds into the measured run (< 0 = never). The device loses all
  /// volatile state and recovers by OOB scan (ftl/recovery.h); the host
  /// page cache loses its dirty pages (never acknowledged at device level).
  double spo_at_s = -1.0;
  /// Repeat the power cut every this many seconds after the first (< 0 or
  /// 0 = single cut). Requires spo_at_s >= 0.
  double spo_every_s = -1.0;
  /// Inject one SPO during preconditioning, after this many precondition
  /// writes (0 = never): proves recovery mid-fill and keeps warm snapshots
  /// honest (the knob is part of the precondition fingerprint when set).
  std::uint64_t spo_precondition_after_writes = 0;
  /// Arrival model. false (default): closed loop — the next op issues at the
  /// previous op's completion plus its think time (one outstanding op, the
  /// paper's single-SSD model). true: open loop — think times are
  /// inter-arrival gaps on the absolute clock, arrivals queue on the device,
  /// and latency = completion - arrival (the array front-end's model, ported
  /// here so single-SSD cells can show backlog-drain tails too).
  bool open_loop_arrivals = false;
  /// Multi-tenant NVMe-style front-end (host/frontend). Empty tenant list
  /// (the default) = disabled: the single workload stream drives the run and
  /// all output stays byte-identical. When enabled, run() must be handed a
  /// frontend::HostFrontend as its workload; the run loop then drives the
  /// per-tenant queues through the DWRR scheduler (kTenantArrival /
  /// kOpComplete / kFrontendDispatch events) and `open_loop_arrivals` is
  /// ignored (each tenant carries its own arrival model).
  frontend::FrontendConfig frontend;
};

class Simulator {
 public:
  explicit Simulator(const SimConfig& config);

  /// Runs `workload` under `policy` and returns the measured report.
  /// The simulator owns device and cache; one Simulator = one run.
  SimReport run(wl::WorkloadGenerator& workload, core::BgcPolicy& policy);

  /// Attaches a per-interval metrics sink (not owned; may be null). The
  /// simulator emits one IntervalRecord per flusher tick and the final
  /// SimReport through it. Set before run().
  void set_metrics_sink(MetricsSink* sink) { harness_.set_metrics_sink(sink); }

  /// Attaches a warm-state snapshot cache (not owned; may be null). With a
  /// cache attached, run() consults it before preconditioning: a hit
  /// restores the post-precondition device state (byte-identical measured
  /// output, a fraction of the wall-clock), a miss preconditions cold and
  /// publishes the result for later runs. The run record then carries
  /// `snapshot` and `precondition_wall_s`. Set before run().
  void set_snapshot_cache(SnapshotCache* cache) { harness_.set_snapshot_cache(cache); }

  const Ssd& ssd() const { return ssd_; }
  const host::PageCache& page_cache() const { return cache_; }
  /// The device's service queues (read-only; e.g. when the device goes quiet).
  const ServiceModel& service_model() const { return service_; }

 private:
  template <typename Host>
  friend void run_measured(Host& host, const MeasuredRun& run, TimeUs& elapsed);

  // -- Measured-run hooks (sim/run_loop.h) --------------------------------------
  void advance(TimeUs now) { run_bgc_until(now); }
  /// The flusher tick: closes the interval's books, flushes, consults the
  /// policy, and emits the interval record.
  void tick(TimeUs now);
  /// One injected power cut at `now`: drops the page cache, power-cycles the
  /// device through OOB-scan recovery, charges the scan time, verifies the
  /// full shadow against the rebuilt map, and emits a RecoveryRecord.
  void spo(TimeUs now);
  TimeUs serve(const wl::AppOp& op, TimeUs issue, TimeUs arrival) {
    const TimeUs completion = execute_op(op, issue);
    const auto latency = static_cast<double>(completion - arrival);
    harness_.record_latency(latency, op.type == wl::OpType::kRead,
                            op.type == wl::OpType::kWrite && op.direct);
    return completion;
  }

  /// Ages the device cold: age_device() with the run's scramble seed and the
  /// spo_precondition_after_writes power cut.
  void precondition(Lba footprint, Lba ws);
  void run_bgc_until(TimeUs now);
  /// Executes one app op at `issue`; returns its completion time.
  TimeUs execute_op(const wl::AppOp& op, TimeUs issue);
  TimeUs device_write(Lba lba, std::uint32_t pages, TimeUs earliest_start);

  // -- Sudden power-off injection (ftl/recovery.h) -----------------------------
  /// True when any SPO knob is armed: the shadow oracle then tracks every
  /// acknowledged device write and verifies every post-crash device read.
  bool spo_configured() const {
    return config_.spo_at_s >= 0.0 || config_.spo_precondition_after_writes > 0;
  }
  /// (Re)derives the shadow of acknowledged writes from the device — run at
  /// the start of the measured phase, covering warm-snapshot restores too.
  void seed_shadow_from_device();
  /// Verifies one device read against the shadow (no-op for LBAs the host
  /// never acknowledged a write for — trimmed or never written).
  void oracle_check_read(Lba lba);

  SimConfig config_;
  Ssd ssd_;
  host::PageCache cache_;
  /// The policy of the run in progress (not owned).
  core::BgcPolicy* policy_ = nullptr;
  RunHarness harness_;

  // -- Device queue state ------------------------------------------------------
  /// One or more service queues (see sim/service_model.h). Single-queue by
  /// default; `next_free()` plays the role of the classic busy_until.
  ServiceModel service_;

  // -- BGC state ----------------------------------------------------------------
  /// Absolute free-space goal (bytes of free_bytes_for_writes) the policy
  /// asked background GC to establish; 0 = idle. Page-granular GC steps run
  /// in idle gaps until the device reports at least this much free space.
  Bytes bgc_target_bytes_ = 0;
  TimeUs bgc_allowed_from_ = 0;
  /// End of the most recent BGC step; a step that continues a GC streak
  /// does not pay the idle-detection delay again.
  TimeUs bgc_last_step_end_ = -1;
  /// Token bucket for the BGC rate limit (bytes of reclaim credit). The
  /// bucket starts empty and earns credit with elapsed *simulation* time
  /// from the first BGC opportunity of the measured run — never a free
  /// first burst, and refills keep flowing while the device idles.
  double bgc_tokens_ = 0.0;
  TimeUs bgc_tokens_refilled_at_ = 0;
  bool bgc_tokens_clock_started_ = false;

  // -- Interval accounting --------------------------------------------------------
  Bytes interval_flush_bytes_ = 0;
  Bytes interval_direct_bytes_ = 0;
  /// Device service time consumed this interval (host I/O + GC + commands);
  /// the complement is the measured idle time fed to policies.
  TimeUs interval_busy_us_ = 0;
  /// Device write traffic of the last Nwb intervals (rolling horizon window
  /// for prediction-accuracy scoring).
  std::deque<Bytes> horizon_window_;
  Bytes horizon_window_sum_ = 0;

  // -- Metrics -----------------------------------------------------------------
  /// Lag initialized in the constructor to Nwb + 1: a prediction made at
  /// tick t covers [t + p, t + p + tau_expire], whose traffic is fully
  /// known Nwb + 1 ticks later.
  core::AccuracyTracker accuracy_;
  Bytes app_buffered_bytes_ = 0;
  Bytes app_direct_bytes_ = 0;
  Bytes reclaim_requested_ = 0;

  // -- Per-interval structured metrics -------------------------------------------
  std::uint64_t interval_index_ = 0;
  /// Bytes freed by BGC (opportunistic + urgent) since the last tick.
  Bytes interval_bgc_reclaimed_ = 0;
  // Last-tick snapshots for per-interval deltas.
  std::uint64_t interval_fgc_base_ = 0;
  std::uint64_t interval_programs_base_ = 0;
  std::uint64_t interval_host_writes_base_ = 0;

  // -- Crash-injection state ----------------------------------------------------
  /// Host-side shadow of acknowledged writes: content stamp per LBA (0 =
  /// never acknowledged / trimmed). Sized only when SPO is configured.
  std::vector<std::uint64_t> shadow_;
  std::uint64_t integrity_reads_verified_ = 0;
  std::uint64_t integrity_stale_reads_ = 0;
};

}  // namespace jitgc::sim
