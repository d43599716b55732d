#include "sim/run_harness.h"

#include <algorithm>
#include <exception>

#include "common/ensure.h"
#include "common/logging.h"
#include "host/frontend/frontend.h"
#include "host/frontend/tenant_policy.h"
#include "sim/metrics_sink.h"

namespace jitgc::sim {
namespace {

/// JSONL name of a degradation event kind.
const char* fault_kind_name(ftl::DegradeEvent::Kind kind) {
  switch (kind) {
    case ftl::DegradeEvent::Kind::kProgramFail: return "program_fail";
    case ftl::DegradeEvent::Kind::kEraseFail: return "erase_fail";
    case ftl::DegradeEvent::Kind::kBlockRetired: return "block_retired";
    case ftl::DegradeEvent::Kind::kSparePromoted: return "spare_promoted";
    case ftl::DegradeEvent::Kind::kReadOnly: return "read_only";
  }
  return "unknown";
}

double wall_seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace

void age_device(ftl::Ftl& ftl, Lba footprint, Lba ws, Rng& rng,
                std::uint64_t spo_after_writes) {
  if (spo_after_writes > 0 && spo_after_writes <= footprint) {
    ftl.fill(0, spo_after_writes);
    ftl.sudden_power_off();
    ftl.fill(spo_after_writes, footprint - spo_after_writes);
  } else {
    ftl.fill(0, footprint);
  }

  const auto overwrites =
      static_cast<std::uint64_t>(kPreconditionOverwriteFactor * static_cast<double>(ws));
  for (std::uint64_t i = 0; i < overwrites; ++i) {
    ftl.write(rng.uniform(ws));
    if (footprint + i + 1 == spo_after_writes) ftl.sudden_power_off();
  }
}

void RunHarness::bind_frontend(wl::WorkloadGenerator& workload) {
  frontend_ = dynamic_cast<frontend::HostFrontend*>(&workload);
  JITGC_ENSURE_MSG(frontend_ != nullptr,
                   "a multi-tenant run must be driven by a frontend::HostFrontend workload");
}

bool RunHarness::establish_precondition(const wl::WorkloadGenerator& workload, Lba user_pages,
                                        const PreconditionSteps& steps) {
  const auto wall_start = std::chrono::steady_clock::now();
  const Lba footprint = std::min<Lba>(workload.footprint_pages(), user_pages);
  JITGC_ENSURE_MSG(footprint > 0, "workload footprint is empty");
  const Lba ws = std::min<Lba>(workload.working_set_pages(), footprint);
  std::string fingerprint;
  SnapshotCache::Blob blob;
  if (snapshot_cache_ != nullptr) {
    fingerprint = steps.fingerprint(footprint, ws);
    blob = snapshot_cache_->find(fingerprint, &snapshot_source_);
  }

  bool worn_out = false;
  if (blob != nullptr) {
    try {
      BinaryReader r(*blob);
      steps.restore(r);
      r.expect_end();
    } catch (const std::exception& e) {
      // A half-applied restore leaves the devices inconsistent; fresh devices
      // from the (resolved) config plus a cold fill recover the exact state,
      // costing only the replay the cache tried to save.
      JITGC_WARN("snapshot cache: restore failed (" << e.what()
                                                    << "); preconditioning cold instead");
      steps.reset();
      snapshot_source_ = SnapshotSource::kCold;
      blob = nullptr;
    }
  }
  if (blob == nullptr) {
    try {
      steps.precondition(footprint, ws);
      if (snapshot_cache_ != nullptr) {
        BinaryWriter w;
        steps.save(w);
        snapshot_cache_->store(fingerprint, w.take());
      }
    } catch (const ftl::DeviceWornOut&) {
      // The device died before the measured run even began (heavy fault
      // injection). A warm run must die the same death at the same write,
      // which only the cold replay reproduces.
      worn_out = true;
    }
  }
  precondition_wall_s_ = wall_seconds_since(wall_start);
  return !worn_out;
}

void RunHarness::capture_baselines(const std::vector<const ftl::Ftl*>& devices) {
  baselines_.clear();
  for (const ftl::Ftl* ftl : devices) baselines_.push_back({ftl->nand().stats(), ftl->stats()});
}

void RunHarness::drain_degrade_events(ftl::Ftl& ftl, std::int32_t device, double time_s) {
  const std::vector<ftl::DegradeEvent> events = ftl.take_degrade_events();
  if (sink_ == nullptr) return;
  for (const ftl::DegradeEvent& e : events) {
    FaultRecord rec;
    rec.kind = fault_kind_name(e.kind);
    rec.device = device;
    rec.block = e.block;
    rec.erase_count = e.erase_count;
    rec.seq = e.seq;
    rec.time_s = time_s;
    sink_->on_fault(rec);
  }
}

void RunHarness::note_recovery(const ftl::RecoveryReport& rep, TimeUs now, std::int32_t device,
                               std::chrono::steady_clock::time_point wall_start) {
  ++spo_events_;
  recovery_scanned_pages_ += rep.scanned_pages;
  recovery_time_us_ += rep.media_scan_us;
  recovery_lost_ += rep.lost_mappings;
  recovery_resurrected_ += rep.resurrected_mappings;
  if (sink_ == nullptr) return;
  RecoveryRecord rec;
  static_cast<ftl::RecoveryReport&>(rec) = rep;
  rec.index = spo_events_;
  rec.time_s = to_seconds(now);
  rec.device = device;
  rec.recovery_time_s = to_seconds(rep.media_scan_us);
  rec.recovery_wall_s = wall_seconds_since(wall_start);
  sink_->on_recovery(rec);
}

void RunHarness::close_interval(std::uint64_t interval, TimeUs now,
                                const frontend::MultiStreamJitPolicy* multi) {
  interval_latencies_.clear();
  if (frontend_ == nullptr) return;
  if (sink_ != nullptr) {
    for (std::uint32_t t = 0; t < frontend_->tenant_count(); ++t) {
      const frontend::TenantIntervalStats ts = frontend_->interval_stats(t);
      TenantIntervalRecord tr;
      tr.interval = interval;
      tr.time_s = to_seconds(now);
      tr.tenant = t;
      tr.ops = ts.ops;
      tr.queued = ts.queued;
      tr.write_bytes = ts.write_bytes;
      tr.read_bytes = ts.read_bytes;
      tr.p50_latency_us = ts.p50_latency_us;
      tr.p99_latency_us = ts.p99_latency_us;
      tr.max_latency_us = ts.max_latency_us;
      tr.write_p99_latency_us = ts.write_p99_latency_us;
      if (multi != nullptr) {
        tr.predicted_demand_bytes = static_cast<std::int64_t>(multi->tenant_predicted_bytes(t));
        tr.sip_pages = multi->tenant_sip_pages(t);
      }
      sink_->on_tenant_interval(tr);
    }
  }
  // The books close every tick regardless of a sink: the per-tenant
  // direct-byte attribution feeds the policy, not just JSONL.
  frontend_->reset_interval_stats();
}

void RunHarness::fill_report(SimReport& r, const std::vector<const ftl::Ftl*>& devices) const {
  r.ops_completed = latencies_.count();
  r.iops = static_cast<double>(r.ops_completed) / r.duration_s;
  r.mean_latency_us = latencies_.mean();
  r.p99_latency_us = latencies_.percentile(99.0);
  r.max_latency_us = latencies_.percentile(100.0);
  r.read_p99_latency_us = read_latencies_.percentile(99.0);
  r.direct_write_p99_latency_us = write_latencies_.percentile(99.0);

  // Device totals: measured-run deltas summed in device order. Fault
  // counters are device-lifetime totals (preconditioning included):
  // grown-bad blocks are a property of the device, not of the run.
  for (std::size_t d = 0; d < devices.size(); ++d) {
    const nand::NandDevice& nand_dev = devices[d]->nand();
    const nand::NandStats& nand = nand_dev.stats();
    const ftl::FtlStats& fs = devices[d]->stats();
    const DeviceBaseline& base = baselines_[d];
    r.nand_programs += nand.page_programs - base.nand.page_programs;
    r.nand_erases += nand.block_erases - base.nand.block_erases;
    r.pages_migrated += nand.page_migrations - base.nand.page_migrations;
    r.device_pages_written += fs.host_pages_written - base.ftl.host_pages_written;
    r.fgc_cycles += fs.foreground_gc_cycles - base.ftl.foreground_gc_cycles;
    r.fgc_time_s += to_seconds(fs.foreground_gc_time_us - base.ftl.foreground_gc_time_us);
    r.bgc_cycles += fs.background_gc_cycles - base.ftl.background_gc_cycles;
    r.victim_selections += fs.victim_selections - base.ftl.victim_selections;
    r.sip_filtered_selections += fs.sip_filtered_selections - base.ftl.sip_filtered_selections;
    r.wear_level_moves += fs.wear_level_moves - base.ftl.wear_level_moves;
    r.hot_stream_writes += fs.hot_stream_writes - base.ftl.hot_stream_writes;
    r.retired_blocks += fs.retired_blocks - base.ftl.retired_blocks;
    r.mean_erase_count += nand_dev.mean_erase_count();
    r.max_erase_count = std::max(r.max_erase_count, nand_dev.max_erase_count());
    r.program_failures += nand.program_failures;
    r.erase_failures += nand.erase_failures;
    r.grown_bad_blocks += fs.grown_bad_blocks;
    r.spares_promoted += fs.spares_promoted;
  }
  r.mean_erase_count /= static_cast<double>(devices.size());
  r.waf = r.device_pages_written ? static_cast<double>(r.nand_programs) /
                                       static_cast<double>(r.device_pages_written)
                                 : 1.0;
  r.sip_filtered_fraction = r.victim_selections
                                ? static_cast<double>(r.sip_filtered_selections) /
                                      static_cast<double>(r.victim_selections)
                                : 0.0;

  // Precondition-time power cuts are deliberately not counted (they are
  // device-state-only, so warm restores reproduce cold-run output).
  r.spo_events = spo_events_;
  r.recovery_scanned_pages = recovery_scanned_pages_;
  r.recovery_time_s = to_seconds(recovery_time_us_);
  r.recovery_lost_mappings = recovery_lost_;
  r.recovery_resurrected_mappings = recovery_resurrected_;

  if (snapshot_cache_ != nullptr) {
    // Only cache-attached runs report these (the wall-clock is host noise,
    // so cache-less records stay byte-stable run to run).
    r.snapshot_source = snapshot_source_name(snapshot_source_);
    r.precondition_wall_s = precondition_wall_s_;
  }

  if (frontend_ == nullptr) return;
  for (std::uint32_t t = 0; t < frontend_->tenant_count(); ++t) {
    const frontend::TenantSpec& spec = frontend_->spec(t);
    const frontend::TenantRunStats rs = frontend_->run_stats(t);
    TenantSummary ts;
    ts.tenant = t;
    ts.mix = spec.mix;
    ts.weight = spec.weight;
    ts.rate_bps = spec.rate_bps;
    ts.qos_p99_ms = spec.qos_p99_ms;
    ts.closed_loop = spec.closed_loop;
    ts.ops = rs.ops;
    ts.write_bytes = rs.write_bytes;
    ts.read_bytes = rs.read_bytes;
    ts.mean_latency_us = rs.mean_latency_us;
    ts.p99_latency_us = rs.p99_latency_us;
    ts.max_latency_us = rs.max_latency_us;
    ts.read_p99_latency_us = rs.read_p99_latency_us;
    ts.write_p99_latency_us = rs.write_p99_latency_us;
    ts.qos_met = spec.qos_p99_ms <= 0.0 || rs.p99_latency_us <= spec.qos_p99_ms * 1000.0;
    r.tenants.push_back(ts);
  }
}

}  // namespace jitgc::sim
