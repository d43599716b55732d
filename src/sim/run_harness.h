// The run harness: the bookkeeping sim::Simulator and array::ArraySimulator
// both compose around the measured-run loop (sim/run_loop.h).
//
//  * precondition-or-restore through an optional SnapshotCache;
//  * per-device post-precondition baselines and the report's device totals.
//    A single SSD is the one-device case: 0.0 + x and x / 1.0 are exact, so
//    its report is bit-identical to a dedicated one-device computation;
//  * degrade-event forwarding, recovery records and SPO totals;
//  * the bound multi-tenant front-end's interval records and tenants[];
//  * run-level latency tails.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "common/rng.h"
#include "common/stats.h"
#include "ftl/ftl.h"
#include "sim/metrics.h"
#include "sim/snapshot.h"
#include "workload/workload.h"

namespace jitgc::frontend {
class HostFrontend;
class MultiStreamJitPolicy;
}  // namespace jitgc::frontend

namespace jitgc::sim {

class MetricsSink;

/// Random overwrites in both simulators' scramble phase (preconditioning),
/// as a multiple of the working-set size.
inline constexpr double kPreconditionOverwriteFactor = 1.0;

/// Ages one device the way both simulators precondition it. The fill writes
/// LBAs [0, footprint) in order, so every LBA the workload may touch holds
/// valid data (an aged device, the enterprise measurement norm). The
/// scramble then makes kPreconditionOverwriteFactor × `ws` overwrites of
/// LBAs drawn uniformly from [0, ws) by `rng`, which mixes hot and cold
/// pages within blocks so GC victims have realistic valid counts. With
/// `spo_after_writes` > 0, power is cut silently right after that many
/// writes, fill and scramble counted together.
///
/// The state left is exactly that of one Ftl::write() per write: the fill
/// goes through Ftl::fill(), the scramble through Ftl::write().
void age_device(ftl::Ftl& ftl, Lba footprint, Lba ws, Rng& rng,
                std::uint64_t spo_after_writes = 0);

/// The device-specific steps of establishing the post-precondition state.
/// `footprint` and `ws` are the workload's footprint and working set, in
/// pages, clamped to the user capacity.
struct PreconditionSteps {
  /// Cache key of the post-precondition state (asked only with a cache).
  std::function<std::string(Lba footprint, Lba ws)> fingerprint;
  /// Applies a cached state; throws on a bad snapshot.
  std::function<void(BinaryReader&)> restore;
  /// Rebuilds factory-fresh devices after a failed, half-applied restore.
  std::function<void()> reset;
  /// The cold fill-and-scramble (age_device() on each device).
  std::function<void(Lba footprint, Lba ws)> precondition;
  std::function<void(BinaryWriter&)> save;
};

class RunHarness {
 public:
  void set_metrics_sink(MetricsSink* sink) { sink_ = sink; }
  void set_snapshot_cache(SnapshotCache* cache) { snapshot_cache_ = cache; }
  MetricsSink* sink() const { return sink_; }

  /// Binds the multi-tenant front-end; `workload` must be a
  /// frontend::HostFrontend. Bind before preconditioning, so every tenant
  /// run record carries tenants[], even one that wore out aging.
  void bind_frontend(wl::WorkloadGenerator& workload);
  frontend::HostFrontend* frontend() const { return frontend_; }

  /// Restores the post-precondition state from the snapshot cache on a hit,
  /// rolling back to a cold fill when the restore fails; preconditions cold
  /// and publishes a snapshot on a miss. A device that wore out while aging
  /// is never snapshotted: only the cold replay reproduces that death.
  /// Returns false when it wore out.
  bool establish_precondition(const wl::WorkloadGenerator& workload, Lba user_pages,
                              const PreconditionSteps& steps);

  /// Captures each device's counters at the start of the measured run, in
  /// the device order fill_report() expects.
  void capture_baselines(const std::vector<const ftl::Ftl*>& devices);

  /// Adds one completed op to the run-level and interval tails; `write`
  /// selects the ops the report's write tail covers.
  void record_latency(double latency_us, bool read, bool write) {
    latencies_.add(latency_us);
    interval_latencies_.add(latency_us);
    if (read) {
      read_latencies_.add(latency_us);
    } else if (write) {
      write_latencies_.add(latency_us);
    }
  }

  /// Drains `ftl`'s degradation events (always: that bounds the FTL-side
  /// buffer) and forwards them when a sink is attached, tagged with `device`
  /// (-1: single SSD) and the draining instant.
  void drain_degrade_events(ftl::Ftl& ftl, std::int32_t device, double time_s);

  /// Counts one sudden-power-off recovery and emits its record.
  void note_recovery(const ftl::RecoveryReport& rep, TimeUs now, std::int32_t device,
                     std::chrono::steady_clock::time_point wall_start);

  /// Latencies of the ops completed since the last close_interval() (its
  /// count() is the interval's op count).
  const TailTracker& interval_latencies() const { return interval_latencies_; }

  /// At the tick closing `interval`: clears the interval tail, then emits one
  /// tenant record per tenant (with the per-tenant prediction when `multi`
  /// attributes demand) and closes the front-end's interval books.
  void close_interval(std::uint64_t interval, TimeUs now,
                      const frontend::MultiStreamJitPolicy* multi);

  /// Fills the fields the harness owns: ops, IOPS over `r.duration_s` (set
  /// it first), the latency tails, the device totals over `devices` (in
  /// capture_baselines() order), SPO totals, snapshot fields and tenants[].
  void fill_report(SimReport& r, const std::vector<const ftl::Ftl*>& devices) const;

 private:
  /// One device's counters at the start of the measured run.
  struct DeviceBaseline {
    nand::NandStats nand;
    ftl::FtlStats ftl;
  };

  MetricsSink* sink_ = nullptr;
  frontend::HostFrontend* frontend_ = nullptr;
  SnapshotCache* snapshot_cache_ = nullptr;
  SnapshotSource snapshot_source_ = SnapshotSource::kCold;
  double precondition_wall_s_ = 0.0;
  std::vector<DeviceBaseline> baselines_;

  /// Bounded-memory tails: exact below the sample cap, histogram-folded
  /// (within one bin width) above it; count() is exact in both regimes.
  TailTracker latencies_ = TailTracker::run_level();
  TailTracker read_latencies_ = TailTracker::run_level();
  TailTracker write_latencies_ = TailTracker::run_level();
  TailTracker interval_latencies_;

  // SPO totals (the run record emits them only when a cut fired).
  std::uint64_t spo_events_ = 0;
  std::uint64_t recovery_scanned_pages_ = 0;
  TimeUs recovery_time_us_ = 0;
  std::uint64_t recovery_lost_ = 0;
  std::uint64_t recovery_resurrected_ = 0;
};

}  // namespace jitgc::sim
