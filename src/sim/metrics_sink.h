// Structured per-interval metrics: the machine-readable layer under every
// sweep, bench and CLI run.
//
// The simulator feeds one IntervalRecord per flusher tick to an attached
// MetricsSink, then the final SimReport at the end of the run. Sinks
// serialize to JSONL ({"type":"interval",...} / {"type":"run",...} — one
// JSON object per line), or just record in memory for tests and the
// parallel sweep engine (which buffers per run and writes buffers in run
// order so output is bit-identical at any thread count).
//
// One field table per record type in metrics_sink.cpp is the schema: the
// formatter walks it, and metrics_schema() exposes it to the test that
// checks docs/metrics_schema.md, where units and meanings are documented.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.h"
#include "ftl/recovery.h"
#include "sim/metrics.h"

namespace jitgc::sim {

/// One flusher interval's worth of measurements, emitted at the tick that
/// closes the interval. "The interval" below means the span
/// (time_s - p, time_s]; decision fields describe the policy's verdict
/// taken at this tick for the coming interval.
struct IntervalRecord {
  std::uint64_t interval = 0;        ///< 1-based tick index
  double time_s = 0.0;               ///< simulation clock at the tick
  Bytes free_bytes = 0;              ///< C_free after this tick's flush work
  Bytes reclaimable_bytes = 0;       ///< free + invalid (max reserve GC can build)
  double c_req_bytes = -1.0;         ///< policy's predicted horizon demand (< 0: none)
  Bytes reclaim_target_bytes = 0;    ///< opportunistic BGC demand issued at this tick
  Bytes urgent_reclaim_bytes = 0;    ///< D_reclaim issued at this tick
  Bytes bgc_reclaimed_bytes = 0;     ///< bytes BGC actually freed during the interval
  Bytes flush_bytes = 0;             ///< writeback traffic of the interval
  Bytes direct_bytes = 0;            ///< direct-write traffic of the interval
  std::uint64_t fgc_cycles = 0;      ///< foreground-GC stalls during the interval
  TimeUs idle_us = 0;                ///< device idle time within the interval
  double interval_waf = 0.0;         ///< NAND programs / host pages (0 if no host writes)
  std::uint64_t ops = 0;             ///< app ops completed during the interval
  double p50_latency_us = 0.0;       ///< latency percentiles of those ops
  double p99_latency_us = 0.0;
  double max_latency_us = 0.0;
};

/// One tenant's share of a flusher interval (multi-tenant front-end only).
/// Emitted right after the global IntervalRecord, in tenant order, so
/// single-stream output carries no trace of the subsystem.
struct TenantIntervalRecord {
  std::uint64_t interval = 0;        ///< 1-based tick index
  double time_s = 0.0;               ///< simulation clock at the tick
  std::uint32_t tenant = 0;          ///< tenant index
  std::uint64_t ops = 0;             ///< this tenant's ops completed
  std::uint64_t queued = 0;          ///< arrivals admitted to its queue
  Bytes write_bytes = 0;             ///< its write traffic of the interval
  Bytes read_bytes = 0;              ///< its read traffic of the interval
  double p50_latency_us = 0.0;       ///< latency percentiles of its ops
  double p99_latency_us = 0.0;
  double max_latency_us = 0.0;
  double write_p99_latency_us = 0.0;
  /// This tenant's share of the demand the policy predicted at this tick
  /// (multi-stream JIT-GC only; < 0 = the policy does not attribute demand
  /// and the JSONL field is omitted).
  std::int64_t predicted_demand_bytes = -1;
  /// Its dirty-page count at the tick (its SIP-list share; emitted with
  /// predicted_demand_bytes).
  std::uint64_t sip_pages = 0;
};

/// One fault-injection / bad-block-management event, as drained from the FTL
/// by the simulator. Only ever emitted when the fault model is active, so
/// fault-free output carries no trace of the subsystem.
struct FaultRecord {
  /// "program_fail" | "erase_fail" | "block_retired" | "spare_promoted" |
  /// "read_only".
  std::string kind;
  /// Array device index, or -1 for a single-SSD run (the field is then left
  /// out of the JSONL record entirely, keeping legacy output byte-identical).
  std::int32_t device = -1;
  std::uint32_t block = 0;
  std::uint64_t erase_count = 0;
  /// FTL write-sequence logical clock at the event — a pure function of
  /// (seed, fault config), identical across thread counts.
  std::uint64_t seq = 0;
  /// Simulation clock at the tick that drained the event.
  double time_s = 0.0;
};

/// One tick's view of the whole SSD array (array::ArraySimulator). Traffic
/// and latency fields cover the interval that just ended; GC fields describe
/// the windows the coordinator scheduled at this tick for the coming one.
struct ArrayIntervalRecord {
  std::uint64_t interval = 0;         ///< 1-based tick index
  double time_s = 0.0;                ///< simulation clock at the tick
  std::uint32_t devices = 0;          ///< array width
  std::uint32_t gc_devices = 0;       ///< devices granted a GC window at this tick
  Bytes free_bytes_min = 0;           ///< min per-device C_free after the GC phase
  Bytes free_bytes_total = 0;         ///< sum of per-device C_free
  Bytes write_bytes = 0;              ///< host write traffic of the interval
  Bytes read_bytes = 0;               ///< host read traffic of the interval
  Bytes bgc_reclaimed_bytes = 0;      ///< bytes reclaimed by this tick's GC windows
  std::uint64_t ops = 0;              ///< ops completed during the interval
  std::uint64_t gc_stalled_ops = 0;   ///< ops that waited behind a GC window
  double p50_latency_us = 0.0;        ///< latency percentiles of those ops
  double p99_latency_us = 0.0;
  double p999_latency_us = 0.0;
  double max_latency_us = 0.0;
  double write_p99_latency_us = 0.0;  ///< write-only tail (the stripe-stall metric)
  double write_p999_latency_us = 0.0;
  /// Redundancy state over the interval: "healthy" | "degraded" |
  /// "rebuilding". Empty (and omitted from JSONL) for RAID-0 arrays, so
  /// legacy output is byte-identical.
  std::string state;
};

/// One device's share of an array tick (same interval/decision split as
/// ArrayIntervalRecord).
struct DeviceIntervalRecord {
  std::uint32_t device = 0;           ///< device index within the array
  std::uint64_t interval = 0;
  double time_s = 0.0;
  Bytes free_bytes = 0;               ///< C_free after this tick's GC phase
  bool gc_granted = false;            ///< the coordinator granted a window at this tick
  bool gc_urgent = false;             ///< the grant was an urgency escape
  TimeUs gc_window_us = 0;            ///< scheduled GC busy time for the coming interval
  Bytes bgc_reclaimed_bytes = 0;      ///< bytes those windows reclaimed
  Bytes write_bytes = 0;              ///< host writes to this device, ended interval
  TimeUs busy_us = 0;                 ///< host service time on this device, ended interval
  std::uint64_t fgc_cycles = 0;       ///< foreground-GC stalls, ended interval
  /// Rebuild traffic this device carried during the interval: source reads
  /// it served for reconstruction, or writes it absorbed as the rebuild
  /// target. Both omitted from JSONL when zero, so non-rebuild (and all
  /// legacy) device records are byte-identical.
  Bytes rebuild_read_bytes = 0;
  Bytes rebuild_write_bytes = 0;
};

/// One tick of an active rebuild (array::RebuildManager): how far
/// reconstruction got and what the granted window cost. Emitted only while a
/// rebuild is running.
struct RebuildProgressRecord {
  std::uint64_t interval = 0;             ///< 1-based tick index
  double time_s = 0.0;                    ///< simulation clock at the tick
  std::uint32_t slot = 0;                 ///< stripe slot under reconstruction
  std::uint32_t replacement_device = 0;   ///< spare promoted into the slot
  Lba rows_done = 0;                      ///< stripe rows reconstructed so far
  Lba rows_total = 0;                     ///< rows the rebuild must cover
  double progress = 0.0;                  ///< rows_done / rows_total
  Bytes read_bytes = 0;                   ///< survivor reads this interval
  Bytes write_bytes = 0;                  ///< replacement writes this interval
  TimeUs budget_us = 0;                   ///< window the coordinator granted
  TimeUs used_us = 0;                     ///< window time actually consumed
};

/// One redundancy state-machine transition (degraded / rebuilding / restored
/// / data_loss). Emitted only by redundant arrays, at the tick the
/// transition is observed.
struct ArrayStateRecord {
  std::uint64_t interval = 0;   ///< 1-based tick index (0: before first tick)
  double time_s = 0.0;          ///< simulation clock at the transition
  /// "degraded" | "rebuilding" | "restored" | "data_loss".
  std::string state;
  std::uint32_t slot = 0;       ///< stripe slot the transition concerns
  /// Physical device entering (rebuilding/restored) or leaving (degraded /
  /// data_loss) the slot.
  std::uint32_t device = 0;
  /// What caused it: "device_worn_out" for wear-driven retirement,
  /// "rebuild_complete", "no_spare", "redundancy_exhausted", ...
  std::string reason;
};

/// One sudden-power-off recovery: the ftl::RecoveryEngine report (its
/// lost_mappings is always 0 — recovery aborts otherwise) plus where and when
/// the power cut landed. Emitted only when SPO injection is configured, so
/// crash-free output carries no trace of it. The JSONL line leaves out the
/// report's max_seq and raw media_scan_us.
struct RecoveryRecord : ftl::RecoveryReport {
  std::uint64_t index = 0;       ///< 1-based SPO index within the run
  double time_s = 0.0;           ///< simulation clock of the power cut
  /// Array device index, or -1 for a single-SSD run (then omitted from the
  /// JSONL record, mirroring FaultRecord).
  std::int32_t device = -1;
  double recovery_time_s = 0.0;  ///< simulated rebuild time (service-scaled scan)
  /// Host wall-clock the rebuild cost. In-memory only — excluded from the
  /// JSONL line, which must stay byte-identical across reruns.
  double recovery_wall_s = 0.0;
};

class MetricsSink {
 public:
  virtual ~MetricsSink() = default;
  /// Called once per flusher tick, after the policy decided.
  virtual void on_interval(const IntervalRecord& record) = 0;
  /// Called once per tenant per flusher tick, in tenant order, right after
  /// on_interval (default: ignore — only tenant-aware sinks care).
  virtual void on_tenant_interval(const TenantIntervalRecord& /*record*/) {}
  /// Called for each fault/degradation event (default: ignore — only
  /// fault-aware sinks care).
  virtual void on_fault(const FaultRecord& /*record*/) {}
  /// Called once per array tick, after the per-device records (default:
  /// ignore — only array-aware sinks care).
  virtual void on_array_interval(const ArrayIntervalRecord& /*record*/) {}
  /// Called once per device per array tick, in device order.
  virtual void on_device_interval(const DeviceIntervalRecord& /*record*/) {}
  /// Called once per array tick while a rebuild is active (default: ignore).
  virtual void on_rebuild_progress(const RebuildProgressRecord& /*record*/) {}
  /// Called at each redundancy state transition (default: ignore).
  virtual void on_array_state(const ArrayStateRecord& /*record*/) {}
  /// Called once per injected sudden power-off, after recovery completed
  /// (default: ignore — only crash-aware sinks care).
  virtual void on_recovery(const RecoveryRecord& /*record*/) {}
  /// Called once, with the assembled run-level report.
  virtual void on_run_end(const SimReport& report) = 0;
};

/// Buffers everything in memory (tests; the sweep engine's per-run buffer).
class RecordingMetricsSink final : public MetricsSink {
 public:
  void on_interval(const IntervalRecord& record) override { intervals_.push_back(record); }
  void on_tenant_interval(const TenantIntervalRecord& record) override {
    tenant_intervals_.push_back(record);
  }
  void on_fault(const FaultRecord& record) override { faults_.push_back(record); }
  void on_array_interval(const ArrayIntervalRecord& record) override {
    array_intervals_.push_back(record);
  }
  void on_device_interval(const DeviceIntervalRecord& record) override {
    device_intervals_.push_back(record);
  }
  void on_rebuild_progress(const RebuildProgressRecord& record) override {
    rebuild_progress_.push_back(record);
  }
  void on_array_state(const ArrayStateRecord& record) override {
    array_states_.push_back(record);
  }
  void on_recovery(const RecoveryRecord& record) override { recoveries_.push_back(record); }
  void on_run_end(const SimReport& report) override { report_ = report; has_report_ = true; }

  const std::vector<IntervalRecord>& intervals() const { return intervals_; }
  const std::vector<TenantIntervalRecord>& tenant_intervals() const { return tenant_intervals_; }
  const std::vector<FaultRecord>& faults() const { return faults_; }
  const std::vector<ArrayIntervalRecord>& array_intervals() const { return array_intervals_; }
  const std::vector<DeviceIntervalRecord>& device_intervals() const { return device_intervals_; }
  const std::vector<RebuildProgressRecord>& rebuild_progress() const { return rebuild_progress_; }
  const std::vector<ArrayStateRecord>& array_states() const { return array_states_; }
  const std::vector<RecoveryRecord>& recoveries() const { return recoveries_; }
  bool has_report() const { return has_report_; }
  const SimReport& report() const { return report_; }

 private:
  std::vector<IntervalRecord> intervals_;
  std::vector<TenantIntervalRecord> tenant_intervals_;
  std::vector<FaultRecord> faults_;
  std::vector<ArrayIntervalRecord> array_intervals_;
  std::vector<DeviceIntervalRecord> device_intervals_;
  std::vector<RebuildProgressRecord> rebuild_progress_;
  std::vector<ArrayStateRecord> array_states_;
  std::vector<RecoveryRecord> recoveries_;
  SimReport report_;
  bool has_report_ = false;
};

/// Streams JSONL records to an ostream as the run progresses (CLI --metrics).
class JsonlMetricsSink final : public MetricsSink {
 public:
  /// `run_index` and `seed` tag every record so concatenated outputs of many
  /// runs stay self-describing.
  JsonlMetricsSink(std::ostream& out, std::uint64_t run_index, std::uint64_t seed);

  void on_interval(const IntervalRecord& record) override;
  void on_tenant_interval(const TenantIntervalRecord& record) override;
  void on_fault(const FaultRecord& record) override;
  void on_array_interval(const ArrayIntervalRecord& record) override;
  void on_device_interval(const DeviceIntervalRecord& record) override;
  void on_rebuild_progress(const RebuildProgressRecord& record) override;
  void on_array_state(const ArrayStateRecord& record) override;
  void on_recovery(const RecoveryRecord& record) override;
  void on_run_end(const SimReport& report) override;

 private:
  template <class Record>
  void emit(const Record& record);

  std::ostream& out_;
  std::uint64_t run_index_;
  std::uint64_t seed_;
};

// -- JSONL formatting (shared by sinks, sweep engine and tests) ---------------

/// One {"type":...,"run":...,"seed":...} line (no trailing newline). Fields
/// follow in their table's order; a conditional field is left out unless it
/// carries information, so output without the subsystem that fills it keeps
/// the older, shorter schema byte for byte.
std::string format_jsonl(std::uint64_t run_index, std::uint64_t seed, const IntervalRecord& record);
std::string format_jsonl(std::uint64_t run_index, std::uint64_t seed,
                         const TenantIntervalRecord& record);
std::string format_jsonl(std::uint64_t run_index, std::uint64_t seed, const FaultRecord& record);
std::string format_jsonl(std::uint64_t run_index, std::uint64_t seed,
                         const ArrayIntervalRecord& record);
std::string format_jsonl(std::uint64_t run_index, std::uint64_t seed,
                         const DeviceIntervalRecord& record);
std::string format_jsonl(std::uint64_t run_index, std::uint64_t seed,
                         const RebuildProgressRecord& record);
std::string format_jsonl(std::uint64_t run_index, std::uint64_t seed,
                         const ArrayStateRecord& record);
std::string format_jsonl(std::uint64_t run_index, std::uint64_t seed, const RecoveryRecord& record);
std::string format_jsonl(std::uint64_t run_index, std::uint64_t seed, const SimReport& report);

/// One field of a record type, as the formatter's table lists it.
struct SchemaField {
  std::string name;
  bool conditional = false;  ///< emitted only when its presence predicate holds
};

/// One record type's fields in emission order, after the type/run/seed tags
/// every line carries.
struct RecordSchema {
  std::string type;  ///< the "type" tag; "tenants[]" for the run record's tenant objects
  std::vector<SchemaField> fields;
};

/// The JSONL schema, read off the same tables the formatter walks.
std::vector<RecordSchema> metrics_schema();

}  // namespace jitgc::sim
