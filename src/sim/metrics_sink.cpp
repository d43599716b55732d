#include "sim/metrics_sink.h"

#include <cmath>
#include <concepts>
#include <cstdio>
#include <functional>
#include <ostream>
#include <type_traits>
#include <utility>

namespace jitgc::sim {
namespace {

// Numbers are formatted with %.10g: enough digits that distinct simulated
// values stay distinct, and — being a pure function of the bits — identical
// across thread counts, which the sweep determinism guarantee rests on.
void append_value(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "0";  // JSON has no NaN/Inf; simulations never produce them
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  out += buf;
}

// Integers print exactly; a negative one (a TimeUs span) clamps to 0.
template <std::integral T>
void append_value(std::string& out, T v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llu",
                std::cmp_less(v, 0) ? 0ull : static_cast<unsigned long long>(v));
  out += buf;
}

void append_value(std::string& out, bool v) { out += v ? "true" : "false"; }

void append_value(std::string& out, const std::string& v) {
  out += '"';
  for (const char c : v) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

// One row of a record type's schema: the JSONL name, how the value is
// written, and when the field is present (null: always). Rows sharing a
// predicate form a group that appears together or not at all.
template <class R>
struct Field {
  const char* name;
  void (*write)(std::string&, const R&);
  bool (*when)(const R&) = nullptr;
};

template <class R>
struct Table {
  const char* type;
  std::vector<Field<R>> fields;
};

// Writes data member or accessor M of the record.
template <auto M, class R>
void member(std::string& out, const R& r) {
  append_value(out, std::invoke(M, r));
}

// Present when member M differs from its default: nonzero, true, non-empty.
template <auto M, class R>
bool is_set(const R& r) {
  return std::invoke(M, r) != std::remove_cvref_t<decltype(std::invoke(M, r))>{};
}

// Array device index; -1 marks a single-SSD run, whose lines omit it.
template <class R>
bool on_device(const R& r) {
  return r.device >= 0;
}

// Appends the present fields in table order and closes the object. `first`
// is true for an object that has no fields before these.
template <class R>
void append_fields(std::string& out, const R& r, const Table<R>& table, bool first) {
  for (const Field<R>& f : table.fields) {
    if (f.when != nullptr && !f.when(r)) continue;
    out += first ? "\"" : ",\"";
    first = false;
    out += f.name;
    out += "\":";
    f.write(out, r);
  }
  out += '}';
}

template <class R>
const Table<R>& table();

template <>
const Table<IntervalRecord>& table<IntervalRecord>() {
  using R = IntervalRecord;
  static const Table<R> t{"interval", {
      {"interval", member<&R::interval>},
      {"time_s", member<&R::time_s>},
      {"free_bytes", member<&R::free_bytes>},
      {"reclaimable_bytes", member<&R::reclaimable_bytes>},
      {"c_req_bytes", member<&R::c_req_bytes>},
      {"reclaim_target_bytes", member<&R::reclaim_target_bytes>},
      {"urgent_reclaim_bytes", member<&R::urgent_reclaim_bytes>},
      {"bgc_reclaimed_bytes", member<&R::bgc_reclaimed_bytes>},
      {"flush_bytes", member<&R::flush_bytes>},
      {"direct_bytes", member<&R::direct_bytes>},
      {"fgc_cycles", member<&R::fgc_cycles>},
      {"idle_us", member<&R::idle_us>},
      {"interval_waf", member<&R::interval_waf>},
      {"ops", member<&R::ops>},
      {"p50_latency_us", member<&R::p50_latency_us>},
      {"p99_latency_us", member<&R::p99_latency_us>},
      {"max_latency_us", member<&R::max_latency_us>},
  }};
  return t;
}

// Prediction attribution only when the policy provides it (multi-stream
// JIT-GC); baseline policies emit the traffic fields alone.
bool predicts_demand(const TenantIntervalRecord& r) { return r.predicted_demand_bytes >= 0; }

template <>
const Table<TenantIntervalRecord>& table<TenantIntervalRecord>() {
  using R = TenantIntervalRecord;
  static const Table<R> t{"tenant_interval", {
      {"interval", member<&R::interval>},
      {"time_s", member<&R::time_s>},
      {"tenant", member<&R::tenant>},
      {"ops", member<&R::ops>},
      {"queued", member<&R::queued>},
      {"write_bytes", member<&R::write_bytes>},
      {"read_bytes", member<&R::read_bytes>},
      {"p50_latency_us", member<&R::p50_latency_us>},
      {"p99_latency_us", member<&R::p99_latency_us>},
      {"max_latency_us", member<&R::max_latency_us>},
      {"write_p99_latency_us", member<&R::write_p99_latency_us>},
      {"predicted_demand_bytes", member<&R::predicted_demand_bytes>, predicts_demand},
      {"sip_pages", member<&R::sip_pages>, predicts_demand},
  }};
  return t;
}

template <>
const Table<FaultRecord>& table<FaultRecord>() {
  using R = FaultRecord;
  static const Table<R> t{"fault", {
      {"kind", member<&R::kind>},
      {"device", member<&R::device>, on_device},
      {"block", member<&R::block>},
      {"erase_count", member<&R::erase_count>},
      {"seq", member<&R::seq>},
      {"time_s", member<&R::time_s>},
  }};
  return t;
}

template <>
const Table<ArrayIntervalRecord>& table<ArrayIntervalRecord>() {
  using R = ArrayIntervalRecord;
  static const Table<R> t{"array_interval", {
      {"interval", member<&R::interval>},
      {"time_s", member<&R::time_s>},
      {"devices", member<&R::devices>},
      {"gc_devices", member<&R::gc_devices>},
      {"free_bytes_min", member<&R::free_bytes_min>},
      {"free_bytes_total", member<&R::free_bytes_total>},
      {"write_bytes", member<&R::write_bytes>},
      {"read_bytes", member<&R::read_bytes>},
      {"bgc_reclaimed_bytes", member<&R::bgc_reclaimed_bytes>},
      {"ops", member<&R::ops>},
      {"gc_stalled_ops", member<&R::gc_stalled_ops>},
      {"p50_latency_us", member<&R::p50_latency_us>},
      {"p99_latency_us", member<&R::p99_latency_us>},
      {"p999_latency_us", member<&R::p999_latency_us>},
      {"max_latency_us", member<&R::max_latency_us>},
      {"write_p99_latency_us", member<&R::write_p99_latency_us>},
      {"write_p999_latency_us", member<&R::write_p999_latency_us>},
      // Only redundant arrays report a state; RAID-0 lines leave it out.
      {"state", member<&R::state>, is_set<&R::state>},
  }};
  return t;
}

// Rebuild counters only while the device carries rebuild traffic (both
// together, so a record either has the pair or neither).
bool carries_rebuild(const DeviceIntervalRecord& r) {
  return r.rebuild_read_bytes != 0 || r.rebuild_write_bytes != 0;
}

template <>
const Table<DeviceIntervalRecord>& table<DeviceIntervalRecord>() {
  using R = DeviceIntervalRecord;
  static const Table<R> t{"device_interval", {
      {"device", member<&R::device>},
      {"interval", member<&R::interval>},
      {"time_s", member<&R::time_s>},
      {"free_bytes", member<&R::free_bytes>},
      {"gc_granted", member<&R::gc_granted>},
      {"gc_urgent", member<&R::gc_urgent>},
      {"gc_window_us", member<&R::gc_window_us>},
      {"bgc_reclaimed_bytes", member<&R::bgc_reclaimed_bytes>},
      {"write_bytes", member<&R::write_bytes>},
      {"busy_us", member<&R::busy_us>},
      {"fgc_cycles", member<&R::fgc_cycles>},
      {"rebuild_read_bytes", member<&R::rebuild_read_bytes>, carries_rebuild},
      {"rebuild_write_bytes", member<&R::rebuild_write_bytes>, carries_rebuild},
  }};
  return t;
}

template <>
const Table<RebuildProgressRecord>& table<RebuildProgressRecord>() {
  using R = RebuildProgressRecord;
  static const Table<R> t{"rebuild_progress", {
      {"interval", member<&R::interval>},
      {"time_s", member<&R::time_s>},
      {"slot", member<&R::slot>},
      {"replacement_device", member<&R::replacement_device>},
      {"rows_done", member<&R::rows_done>},
      {"rows_total", member<&R::rows_total>},
      {"progress", member<&R::progress>},
      {"read_bytes", member<&R::read_bytes>},
      {"write_bytes", member<&R::write_bytes>},
      {"budget_us", member<&R::budget_us>},
      {"used_us", member<&R::used_us>},
  }};
  return t;
}

template <>
const Table<ArrayStateRecord>& table<ArrayStateRecord>() {
  using R = ArrayStateRecord;
  static const Table<R> t{"array_state", {
      {"interval", member<&R::interval>},
      {"time_s", member<&R::time_s>},
      {"state", member<&R::state>},
      {"slot", member<&R::slot>},
      {"device", member<&R::device>},
      {"reason", member<&R::reason>},
  }};
  return t;
}

// The report's max_seq and raw media_scan_us stay out of the line, and so
// does recovery_wall_s: host wall-clock would break the byte-identical-output
// guarantee (same seed, any thread count).
template <>
const Table<RecoveryRecord>& table<RecoveryRecord>() {
  using R = RecoveryRecord;
  static const Table<R> t{"recovery", {
      {"index", member<&R::index>},
      {"time_s", member<&R::time_s>},
      {"device", member<&R::device>, on_device},
      {"used_checkpoint", member<&R::used_checkpoint>},
      {"checkpoint_fallback", member<&R::checkpoint_fallback>, is_set<&R::checkpoint_fallback>},
      {"scanned_pages", member<&R::scanned_pages>},
      {"scanned_blocks", member<&R::scanned_blocks>},
      {"total_blocks", member<&R::total_blocks>},
      {"torn_pages", member<&R::torn_pages>},
      {"sealed_blocks", member<&R::sealed_blocks>},
      {"recovered_mappings", member<&R::recovered_mappings>},
      {"stale_pages_dropped", member<&R::stale_pages_dropped>},
      {"verified_mappings", member<&R::verified_mappings>},
      {"lost_mappings", member<&R::lost_mappings>},
      {"resurrected_mappings", member<&R::resurrected_mappings>},
      {"recovery_time_s", member<&R::recovery_time_s>},
  }};
  return t;
}

template <>
const Table<TenantSummary>& table<TenantSummary>() {
  using R = TenantSummary;
  static const Table<R> t{"tenants[]", {
      {"tenant", member<&R::tenant>},
      {"mix", member<&R::mix>},
      {"weight", member<&R::weight>},
      {"rate_bps", member<&R::rate_bps>},
      {"qos_p99_ms", member<&R::qos_p99_ms>},
      {"closed_loop", member<&R::closed_loop>},
      {"ops", member<&R::ops>},
      {"write_bytes", member<&R::write_bytes>},
      {"read_bytes", member<&R::read_bytes>},
      {"mean_latency_us", member<&R::mean_latency_us>},
      {"p99_latency_us", member<&R::p99_latency_us>},
      {"max_latency_us", member<&R::max_latency_us>},
      {"read_p99_latency_us", member<&R::read_p99_latency_us>},
      {"write_p99_latency_us", member<&R::write_p99_latency_us>},
      {"qos_met", member<&R::qos_met>},
  }};
  return t;
}

void append_tenants(std::string& out, const SimReport& r) {
  out += '[';
  for (std::size_t i = 0; i < r.tenants.size(); ++i) {
    if (i > 0) out += ',';
    out += '{';
    append_fields(out, r.tenants[i], table<TenantSummary>(), /*first=*/true);
  }
  out += ']';
}

// The run record's groups. Each appears only when it carries information,
// so output without the subsystem keeps the older field set.
bool ended_early(const SimReport& r) { return r.run_end_reason != "completed"; }
// Array redundancy block: a device actually failed.
bool lost_device(const SimReport& r) { return r.device_failures != 0; }
// Crash-recovery summary: SPO injection actually fired.
bool lost_power(const SimReport& r) { return r.spo_events != 0; }
// Per-tenant summaries: the multi-tenant front-end was enabled.
bool has_tenants(const SimReport& r) { return !r.tenants.empty(); }
// Snapshot provenance: a snapshot cache was attached. Last on the line, so
// warm-vs-cold byte comparisons strip exactly these two fields (the
// wall-clock is host noise by design; see docs/metrics_schema.md).
bool used_snapshot_cache(const SimReport& r) { return !r.snapshot_source.empty(); }

template <>
const Table<SimReport>& table<SimReport>() {
  using R = SimReport;
  static const Table<R> t{"run", {
      {"workload", member<&R::workload>},
      {"policy", member<&R::policy>},
      {"duration_s", member<&R::duration_s>},
      {"elapsed_s", member<&R::elapsed_s>},
      {"ops", member<&R::ops_completed>},
      {"iops", member<&R::iops>},
      {"waf", member<&R::waf>},
      {"mean_latency_us", member<&R::mean_latency_us>},
      {"p99_latency_us", member<&R::p99_latency_us>},
      {"max_latency_us", member<&R::max_latency_us>},
      {"read_p99_latency_us", member<&R::read_p99_latency_us>},
      {"direct_write_p99_latency_us", member<&R::direct_write_p99_latency_us>},
      {"fgc_cycles", member<&R::fgc_cycles>},
      {"fgc_time_s", member<&R::fgc_time_s>},
      {"bgc_cycles", member<&R::bgc_cycles>},
      {"nand_programs", member<&R::nand_programs>},
      {"nand_erases", member<&R::nand_erases>},
      {"pages_migrated", member<&R::pages_migrated>},
      {"reclaim_requested_bytes", member<&R::reclaim_requested_bytes>},
      {"prediction_accuracy", member<&R::prediction_accuracy>},
      {"sip_filtered_fraction", member<&R::sip_filtered_fraction>},
      {"direct_write_fraction", member<&R::direct_write_fraction>},
      {"worn_out", member<&R::device_worn_out>},
      {"retired_blocks", member<&R::retired_blocks>},
      {"tbw_bytes", member<&R::tbw_bytes>},
      {"run_end_reason", member<&R::run_end_reason>, ended_early},
      {"program_failures", member<&R::program_failures>, is_set<&R::program_failures>},
      {"erase_failures", member<&R::erase_failures>, is_set<&R::erase_failures>},
      {"grown_bad_blocks", member<&R::grown_bad_blocks>, is_set<&R::grown_bad_blocks>},
      {"spares_promoted", member<&R::spares_promoted>, is_set<&R::spares_promoted>},
      {"device_failures", member<&R::device_failures>, lost_device},
      {"rebuilds_completed", member<&R::rebuilds_completed>, lost_device},
      {"rebuild_read_bytes", member<&R::rebuild_read_bytes>, lost_device},
      {"rebuild_write_bytes", member<&R::rebuild_write_bytes>, lost_device},
      {"rebuild_time_s", member<&R::rebuild_time_s>, lost_device},
      {"degraded_time_s", member<&R::degraded_time_s>, lost_device},
      {"degraded_write_p99_latency_us", member<&R::degraded_write_p99_latency_us>, lost_device},
      {"spo_events", member<&R::spo_events>, lost_power},
      {"recovery_scanned_pages", member<&R::recovery_scanned_pages>, lost_power},
      {"recovery_time_s", member<&R::recovery_time_s>, lost_power},
      {"recovery_lost_mappings", member<&R::recovery_lost_mappings>, lost_power},
      {"recovery_resurrected_mappings", member<&R::recovery_resurrected_mappings>, lost_power},
      {"integrity_reads_verified", member<&R::integrity_reads_verified>, lost_power},
      {"integrity_stale_reads", member<&R::integrity_stale_reads>, lost_power},
      {"tenants", append_tenants, has_tenants},
      {"snapshot", member<&R::snapshot_source>, used_snapshot_cache},
      {"precondition_wall_s", member<&R::precondition_wall_s>, used_snapshot_cache},
  }};
  return t;
}

template <class R>
std::string format_record(std::uint64_t run_index, std::uint64_t seed, const R& record) {
  const Table<R>& t = table<R>();
  std::string out = "{\"type\":\"";
  out += t.type;
  out += "\",\"run\":";
  append_value(out, run_index);
  out += ",\"seed\":";
  append_value(out, seed);
  append_fields(out, record, t, /*first=*/false);
  return out;
}

template <class R>
RecordSchema describe() {
  const Table<R>& t = table<R>();
  RecordSchema schema{t.type, {}};
  for (const Field<R>& f : t.fields) schema.fields.push_back({f.name, f.when != nullptr});
  return schema;
}

}  // namespace

std::string format_jsonl(std::uint64_t run_index, std::uint64_t seed, const IntervalRecord& r) {
  return format_record(run_index, seed, r);
}
std::string format_jsonl(std::uint64_t run_index, std::uint64_t seed,
                         const TenantIntervalRecord& r) {
  return format_record(run_index, seed, r);
}
std::string format_jsonl(std::uint64_t run_index, std::uint64_t seed, const FaultRecord& r) {
  return format_record(run_index, seed, r);
}
std::string format_jsonl(std::uint64_t run_index, std::uint64_t seed,
                         const ArrayIntervalRecord& r) {
  return format_record(run_index, seed, r);
}
std::string format_jsonl(std::uint64_t run_index, std::uint64_t seed,
                         const DeviceIntervalRecord& r) {
  return format_record(run_index, seed, r);
}
std::string format_jsonl(std::uint64_t run_index, std::uint64_t seed,
                         const RebuildProgressRecord& r) {
  return format_record(run_index, seed, r);
}
std::string format_jsonl(std::uint64_t run_index, std::uint64_t seed, const ArrayStateRecord& r) {
  return format_record(run_index, seed, r);
}
std::string format_jsonl(std::uint64_t run_index, std::uint64_t seed, const RecoveryRecord& r) {
  return format_record(run_index, seed, r);
}
std::string format_jsonl(std::uint64_t run_index, std::uint64_t seed, const SimReport& r) {
  return format_record(run_index, seed, r);
}

std::vector<RecordSchema> metrics_schema() {
  return {describe<IntervalRecord>(),        describe<TenantIntervalRecord>(),
          describe<FaultRecord>(),           describe<ArrayIntervalRecord>(),
          describe<DeviceIntervalRecord>(),  describe<RebuildProgressRecord>(),
          describe<ArrayStateRecord>(),      describe<RecoveryRecord>(),
          describe<SimReport>(),             describe<TenantSummary>()};
}

JsonlMetricsSink::JsonlMetricsSink(std::ostream& out, std::uint64_t run_index, std::uint64_t seed)
    : out_(out), run_index_(run_index), seed_(seed) {}

template <class Record>
void JsonlMetricsSink::emit(const Record& record) {
  out_ << format_jsonl(run_index_, seed_, record) << '\n';
}

void JsonlMetricsSink::on_interval(const IntervalRecord& record) { emit(record); }
void JsonlMetricsSink::on_tenant_interval(const TenantIntervalRecord& record) { emit(record); }
void JsonlMetricsSink::on_fault(const FaultRecord& record) { emit(record); }
void JsonlMetricsSink::on_array_interval(const ArrayIntervalRecord& record) { emit(record); }
void JsonlMetricsSink::on_device_interval(const DeviceIntervalRecord& record) { emit(record); }
void JsonlMetricsSink::on_rebuild_progress(const RebuildProgressRecord& record) { emit(record); }
void JsonlMetricsSink::on_array_state(const ArrayStateRecord& record) { emit(record); }
void JsonlMetricsSink::on_recovery(const RecoveryRecord& record) { emit(record); }
void JsonlMetricsSink::on_run_end(const SimReport& report) { emit(report); }

}  // namespace jitgc::sim
