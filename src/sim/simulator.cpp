#include "sim/simulator.h"

#include <algorithm>
#include <chrono>

#include "common/binary_io.h"
#include "common/ensure.h"
#include "common/rng.h"
#include "host/frontend/frontend.h"
#include "host/frontend/tenant_policy.h"
#include "sim/metrics_sink.h"

namespace jitgc::sim {
namespace {

/// Fault decisions must be a pure function of the run seed (the sweep's
/// determinism contract), so the per-device fault stream is keyed by it; the
/// FaultModel salts the seed internally to decorrelate it from the workload.
SsdConfig with_fault_seed(SsdConfig ssd, std::uint64_t run_seed) {
  if (ssd.ftl.fault.enabled()) ssd.ftl.fault.seed = run_seed;
  return ssd;
}

}  // namespace

Simulator::Simulator(const SimConfig& config)
    : config_(config),
      ssd_(with_fault_seed(config.ssd, config.seed)),
      cache_(config.cache, ssd_.ftl().user_pages()),
      service_(config.ssd.resolved_service_queues()),
      accuracy_(config.cache.intervals_per_horizon() + 1) {
  JITGC_ENSURE_MSG(config_.cache.page_size == config_.ssd.ftl.geometry.page_size,
                   "page cache and FTL must agree on the page size");
  // Mirror the resolved fault seed back into config_ so introspection (and
  // the snapshot fingerprint) sees what actually runs.
  config_.ssd.ftl.fault.seed = ssd_.config().ftl.fault.seed;
}

void Simulator::precondition(Lba footprint, Lba ws) {
  // A mid-precondition power cut (spo_precondition_after_writes) is silent —
  // state only, no metrics — so a warm restore of the same fingerprint
  // reproduces a cold run's output byte-for-byte.
  Rng rng(config_.seed ^ 0xA6E5C0DE);
  age_device(ssd_.mutable_ftl(), footprint, ws, rng, config_.spo_precondition_after_writes);
}

TimeUs Simulator::device_write(Lba lba, std::uint32_t pages, TimeUs earliest_start) {
  TimeUs completion = earliest_start;
  for (std::uint32_t i = 0; i < pages; ++i) {
    const TimeUs cost = ssd_.write_page(lba + i);
    completion = std::max(completion, service_.dispatch(earliest_start, cost));
    interval_busy_us_ += cost;
    // A write that returned is acknowledged: the shadow oracle records the
    // content stamp the device must still serve after any power cut.
    if (!shadow_.empty()) shadow_[lba + i] = ssd_.ftl().content_stamp_of(lba + i);
  }
  return completion;
}

void Simulator::run_bgc_until(TimeUs now) {
  const TimeUs per_page = ssd_.migrate_step_time();

  // QoS rate limit: replenish the reclaim token bucket from the simulation
  // clock, clamped to one interval's worth of burst credit. The first call
  // only starts the clock — the bucket begins empty, so no run opens with a
  // full burst of free reclaim credit — and because the clock is `now` (not
  // the device's next_free), a long-idle device keeps earning credit even
  // while no host I/O advances its queues.
  if (config_.bgc_rate_limit_bps > 0.0) {
    if (!bgc_tokens_clock_started_) {
      bgc_tokens_refilled_at_ = now;
      bgc_tokens_clock_started_ = true;
    } else if (now > bgc_tokens_refilled_at_) {
      bgc_tokens_ += config_.bgc_rate_limit_bps *
                     (static_cast<double>(now - bgc_tokens_refilled_at_) / 1e6);
      const double cap = config_.bgc_rate_limit_bps *
                         (static_cast<double>(cache_.config().flush_period) / 1e6);
      bgc_tokens_ = std::min(bgc_tokens_, cap);
      bgc_tokens_refilled_at_ = now;
    }
  }

  while (bgc_target_bytes_ > 0 &&
         ssd_.ftl().free_bytes_for_writes() < bgc_target_bytes_) {
    if (config_.bgc_rate_limit_bps > 0.0 &&
        bgc_tokens_ < static_cast<double>(ssd_.ftl().page_size())) {
      break;  // out of reclaim credit until the bucket refills
    }
    TimeUs start = std::max(service_.next_free(), bgc_allowed_from_);
    // Idle detection: the first step of a GC streak waits for the device to
    // have been visibly idle; continuing a streak does not.
    if (service_.next_free() != bgc_last_step_end_) start += kBgcIdleDetect;
    if (start >= now) break;
    // Page-granular preemptible GC: fill the idle gap with as many migration
    // steps as fit (at least one; a trailing erase may overrun slightly).
    const auto max_pages = static_cast<std::uint32_t>(
        std::max<TimeUs>(1, (now - start) / per_page));
    const ftl::Ftl::GcStep step = ssd_.bgc_collect_step(max_pages);
    if (!step.progressed) {
      bgc_target_bytes_ = 0;  // nothing collectible; stop asking this interval
      break;
    }
    bgc_last_step_end_ = service_.dispatch(start, step.time_us);
    interval_busy_us_ += step.time_us;
    if (step.freed_pages > 0) {
      const double freed = static_cast<double>(step.freed_pages) *
                           static_cast<double>(ssd_.ftl().page_size());
      interval_bgc_reclaimed_ += static_cast<Bytes>(freed);
      if (config_.bgc_rate_limit_bps > 0.0) bgc_tokens_ -= freed;
    }
  }
}

void Simulator::tick(TimeUs now) {
  core::BgcPolicy& policy = *policy_;
  frontend::HostFrontend* const fe = harness_.frontend();
  // 1. Close the books on the interval that just ended and refresh the
  //    rolling tau_expire window: the accuracy sample for the horizon
  //    prediction that targeted exactly this window.
  const Bytes ended_flush = interval_flush_bytes_;
  const Bytes ended_direct = interval_direct_bytes_;
  const Bytes ended_bgc_reclaimed = interval_bgc_reclaimed_;
  interval_flush_bytes_ = 0;
  interval_direct_bytes_ = 0;
  interval_bgc_reclaimed_ = 0;  // urgent reclaim below counts to the next interval

  horizon_window_.push_back(ended_flush + ended_direct);
  horizon_window_sum_ += ended_flush + ended_direct;
  if (horizon_window_.size() > cache_.config().intervals_per_horizon()) {
    horizon_window_sum_ -= horizon_window_.front();
    horizon_window_.pop_front();
  }
  accuracy_.observe_actual(horizon_window_sum_);

  // 2. Flusher thread: evict expired / over-threshold dirty data, but only
  //    as much as the device can absorb before the next tick — writeback is
  //    paced by the device, and the remainder stays dirty (so a GC-slowed
  //    device backs dirty data up into the cache, where it eventually
  //    throttles the writer).
  const TimeUs budget =
      now + cache_.config().flush_period - std::max(service_.next_free(), now);
  const TimeUs per_page = std::max<TimeUs>(
      1, ssd_.scale(config_.ssd.ftl.timing.program_cost()));
  const std::size_t max_flush =
      budget > 0 ? static_cast<std::size_t>(budget / per_page) : 0;
  const std::vector<Lba> evicted = cache_.flusher_tick(now, max_flush);
  for (const Lba lba : evicted) {
    device_write(lba, 1, now);
    interval_flush_bytes_ += cache_.config().page_size;
  }

  // 3. Consult the policy (the predictor runs right after the flusher).
  TimeUs overhead = 0;
  core::PolicyContext ctx;
  ctx.now = now;
  ctx.page_cache = &cache_;
  ctx.c_free = ssd_.ftl().free_bytes_for_writes();
  ctx.reclaimable_capacity = ssd_.ftl().reclaimable_capacity();
  ctx.interval_buffered_flush_bytes = ended_flush;
  ctx.interval_direct_bytes = ended_direct;
  if (fe != nullptr) {
    // Per-tenant attribution of the ended interval's direct writes, for the
    // multi-stream predictor. Sums to ended_direct (both sides account at
    // dispatch instants and reset at this tick).
    ctx.tenant_interval_direct_bytes.resize(fe->tenant_count());
    for (std::uint32_t t = 0; t < fe->tenant_count(); ++t) {
      ctx.tenant_interval_direct_bytes[t] = fe->interval_direct_bytes(t);
    }
  }
  const TimeUs period = cache_.config().flush_period;
  ctx.interval_idle_us = interval_busy_us_ >= period ? 0 : period - interval_busy_us_;
  interval_busy_us_ = 0;
  ctx.write_bps = ssd_.write_bandwidth_bps();
  ctx.gc_bps = ssd_.gc_bandwidth_bps();
  ctx.op_capacity = ssd_.ftl().op_capacity();
  ctx.user_capacity = ssd_.ftl().user_capacity();

  const core::PolicyDecision decision = policy.on_interval(ctx);

  overhead += static_cast<TimeUs>(policy.custom_commands_per_interval()) *
              config_.ssd.host_command_overhead_us;
  if (policy.wants_sip_filter()) {
    // L_SIP is host state (paper Fig. 3): read it off the page cache and
    // ship it as its own command, whose payload scales with the dirty-page
    // count (the full list is charged even though the device applies the
    // net change since the last delivery).
    ssd_.send_sip_update(cache_.pending_sip_delta(), cache_.dirty_pages(), overhead);
    cache_.commit_sip_checkpoint();
  }
  if (overhead > 0) {
    // Command exchanges serialize against the whole device.
    service_.occupy_all_until(std::max(service_.next_free(), now) + overhead);
    interval_busy_us_ += overhead;
  }

  const Bytes free_now = ssd_.ftl().free_bytes_for_writes();
  bgc_target_bytes_ = decision.reclaim_bytes > 0 ? free_now + decision.reclaim_bytes : 0;
  bgc_allowed_from_ = now;
  reclaim_requested_ += decision.reclaim_bytes;

  // Urgent reclaim (JIT-GC's D_reclaim): runs right now, ahead of host I/O.
  if (decision.urgent_reclaim_bytes > 0) {
    const Bytes urgent_target = free_now + decision.urgent_reclaim_bytes;
    while (ssd_.ftl().free_bytes_for_writes() < urgent_target) {
      const ftl::Ftl::GcStep step = ssd_.bgc_collect_step(64);
      if (!step.progressed) break;
      service_.dispatch(now, step.time_us);
      interval_busy_us_ += step.time_us;
      interval_bgc_reclaimed_ += static_cast<Bytes>(step.freed_pages) * ssd_.ftl().page_size();
    }
  }

  if (decision.predicted_horizon_bytes >= 0.0) {
    accuracy_.predict_next(static_cast<Bytes>(decision.predicted_horizon_bytes));
  }

  // 4. Structured metrics: fault/degradation events accumulated during the
  //    interval, then one interval record per tick, covering the interval
  //    that just ended plus the decision taken for the coming one.
  harness_.drain_degrade_events(ssd_.mutable_ftl(), -1, to_seconds(now));
  if (MetricsSink* sink = harness_.sink(); sink != nullptr) {
    const auto& fs = ssd_.ftl().stats();
    const auto& nand = ssd_.ftl().nand().stats();

    IntervalRecord rec;
    rec.interval = ++interval_index_;
    rec.time_s = to_seconds(now);
    rec.free_bytes = ssd_.ftl().free_bytes_for_writes();
    rec.reclaimable_bytes = ssd_.ftl().reclaimable_capacity();
    rec.c_req_bytes = decision.predicted_horizon_bytes;
    rec.reclaim_target_bytes = decision.reclaim_bytes;
    rec.urgent_reclaim_bytes = decision.urgent_reclaim_bytes;
    rec.bgc_reclaimed_bytes = ended_bgc_reclaimed;
    rec.flush_bytes = ended_flush;
    rec.direct_bytes = ended_direct;
    rec.fgc_cycles = fs.foreground_gc_cycles - interval_fgc_base_;
    rec.idle_us = ctx.interval_idle_us;
    const std::uint64_t programs = nand.page_programs - interval_programs_base_;
    const std::uint64_t host_pages = fs.host_pages_written - interval_host_writes_base_;
    rec.interval_waf =
        host_pages ? static_cast<double>(programs) / static_cast<double>(host_pages) : 0.0;
    rec.ops = harness_.interval_latencies().count();
    rec.p50_latency_us = harness_.interval_latencies().percentile(50.0);
    rec.p99_latency_us = harness_.interval_latencies().percentile(99.0);
    rec.max_latency_us = harness_.interval_latencies().percentile(100.0);
    sink->on_interval(rec);

    interval_fgc_base_ = fs.foreground_gc_cycles;
    interval_programs_base_ = nand.page_programs;
    interval_host_writes_base_ = fs.host_pages_written;
  }
  // One tenant record per tenant, right after the global interval record.
  harness_.close_interval(interval_index_, now,
                          dynamic_cast<const frontend::MultiStreamJitPolicy*>(&policy));
}

TimeUs Simulator::execute_op(const wl::AppOp& op, TimeUs issue) {
  const Bytes page_size = cache_.config().page_size;

  switch (op.type) {
    case wl::OpType::kWrite: {
      if (op.direct) {
        app_direct_bytes_ += op.bytes(page_size);
        interval_direct_bytes_ += op.bytes(page_size);
        return device_write(op.lba, op.pages, issue);
      }
      app_buffered_bytes_ += op.bytes(page_size);
      // Dirty throttling (balance_dirty_pages): at the dirty limit the
      // writer stalls behind synchronous writeback of the oldest dirty
      // data, pacing it to the device's effective write speed.
      TimeUs completion = issue;
      if (cache_.dirty_bytes() + op.bytes(page_size) > cache_.config().capacity) {
        const std::vector<Lba> forced = cache_.evict_oldest(op.pages);
        for (const Lba lba : forced) {
          // With several service queues a later writeback can finish before
          // an earlier one: the writer waits for the slowest.
          completion = std::max(completion, device_write(lba, 1, issue));
          interval_flush_bytes_ += page_size;
        }
      }
      for (std::uint32_t i = 0; i < op.pages; ++i) cache_.write(op.lba + i, issue);
      return completion;  // RAM-speed unless throttled
    }
    case wl::OpType::kRead: {
      TimeUs completion = issue;
      bool touched_device = false;
      for (std::uint32_t i = 0; i < op.pages; ++i) {
        if (cache_.is_dirty(op.lba + i)) continue;  // RAM hit
        if (!shadow_.empty()) oracle_check_read(op.lba + i);
        const TimeUs cost = ssd_.read_page(op.lba + i);
        completion = std::max(completion, service_.dispatch(issue, cost));
        interval_busy_us_ += cost;
        touched_device = true;
      }
      if (!touched_device) return issue;
      return completion;
    }
    case wl::OpType::kTrim: {
      // TRIM is a metadata command: drop the mappings (and any dirty cached
      // copies, whose flush would resurrect deleted data). It costs no NAND
      // time, but it still queues on the device like reads and writes —
      // never a free pass past a busy queue.
      TimeUs completion = issue;
      for (std::uint32_t i = 0; i < op.pages; ++i) {
        ssd_.trim(op.lba + i);
        completion = std::max(completion, service_.dispatch(issue, 0));
        // Trim withdraws the acknowledgment: the device owes nothing for
        // this LBA anymore (a post-crash resurrection is legal, not stale).
        if (!shadow_.empty()) shadow_[op.lba + i] = 0;
      }
      cache_.discard(op.lba, op.pages);
      return completion;
    }
  }
  JITGC_ENSURE_MSG(false, "unreachable op type");
  return issue;
}

void Simulator::seed_shadow_from_device() {
  const ftl::Ftl& ftl = ssd_.ftl();
  shadow_.assign(ftl.user_pages(), 0);
  for (Lba lba = 0; lba < ftl.user_pages(); ++lba) {
    if (ftl.is_mapped(lba)) shadow_[lba] = ftl.content_stamp_of(lba);
  }
}

void Simulator::oracle_check_read(Lba lba) {
  if (lba >= shadow_.size() || shadow_[lba] == 0) return;  // nothing owed
  ++integrity_reads_verified_;
  const bool ok =
      ssd_.ftl().is_mapped(lba) && ssd_.ftl().content_stamp_of(lba) == shadow_[lba];
  if (!ok) ++integrity_stale_reads_;
  JITGC_ENSURE_MSG(ok, "device read would return stale or lost data for an acknowledged write");
}

void Simulator::spo(TimeUs now) {
  const auto wall_start = std::chrono::steady_clock::now();

  // Power is gone. Dirty pages in the host page cache were never
  // acknowledged at device level (writeback had not happened), so they are
  // legitimately lost — the cache restarts empty, like the FTL's RAM.
  const host::LbaPartitions partitions = cache_.partitions();
  cache_ = host::PageCache(config_.cache, ssd_.ftl().user_pages());
  cache_.set_partitions(partitions);

  const ftl::RecoveryReport rep = ssd_.sudden_power_off();

  // The device is unavailable while the OOB scan rebuilds the map: every
  // queue is occupied for the scan's service-scaled duration.
  service_.occupy_all_until(std::max(service_.next_free(), now) + rep.media_scan_us);
  interval_busy_us_ += rep.media_scan_us;

  // Whatever BGC intent was in flight died with the device's RAM; the
  // policy re-decides at the next tick from the recovered free-space truth.
  bgc_target_bytes_ = 0;
  bgc_last_step_end_ = -1;

  // Host-level oracle: after recovery, every acknowledged write must still
  // be served with exactly the content that was acked. Sweep the whole
  // shadow now (reads keep re-checking individually for the rest of the run).
  for (Lba lba = 0; lba < shadow_.size(); ++lba) {
    if (shadow_[lba] == 0) continue;
    ++integrity_reads_verified_;
    if (!ssd_.ftl().is_mapped(lba) || ssd_.ftl().content_stamp_of(lba) != shadow_[lba]) {
      ++integrity_stale_reads_;
    }
  }
  JITGC_ENSURE_MSG(integrity_stale_reads_ == 0,
                   "SPO recovery lost or corrupted an acknowledged write");

  harness_.note_recovery(rep, now, -1, wall_start);
}

SimReport Simulator::run(wl::WorkloadGenerator& workload, core::BgcPolicy& policy) {
  policy_ = &policy;
  ssd_.set_sip_filter_enabled(policy.wants_sip_filter());
  if (config_.frontend.enabled()) {
    harness_.bind_frontend(workload);
    // Per-tenant dirty-interval histograms for the multi-stream predictor.
    cache_.set_partitions(harness_.frontend()->partitions());
  }

  // Age the device to steady state: from the snapshot cache when one is
  // attached and holds a matching post-precondition state, by cold replay
  // otherwise. A device that dies here reports a zero-length run.
  bool worn_out = false;
  if (config_.precondition) {
    worn_out = !harness_.establish_precondition(
        workload, ssd_.ftl().user_pages(),
        {.fingerprint = [&](Lba fp, Lba ws) { return precondition_fingerprint(config_, fp, ws); },
         .restore = [&](BinaryReader& r) { ssd_.restore_state(r); },
         .reset =
             [&] {
               ssd_ = Ssd(config_.ssd);
               ssd_.set_sip_filter_enabled(policy.wants_sip_filter());
             },
         .precondition = [&](Lba fp, Lba ws) { precondition(fp, ws); },
         .save = [&](BinaryWriter& w) { ssd_.save_state(w); }});
  }

  // The shadow oracle covers the measured phase: seed it from whatever the
  // device holds now (cold fill, warm restore, or an empty device), so every
  // later acknowledged write/trim/read is tracked and verified.
  if (spo_configured()) seed_shadow_from_device();

  // Metric baselines: everything before this instant was preconditioning.
  harness_.capture_baselines({&ssd_.ftl()});
  service_.reset();
  interval_fgc_base_ = ssd_.ftl().stats().foreground_gc_cycles;
  interval_programs_base_ = ssd_.ftl().nand().stats().page_programs;
  interval_host_writes_base_ = ssd_.ftl().stats().host_pages_written;

  TimeUs elapsed = 0;
  try {
    // A device that died during preconditioning takes the same exit path as
    // one dying mid-run: zero measured progress, structured end reason.
    if (worn_out) throw ftl::DeviceWornOut("worn out during preconditioning");
    run_measured(*this,
                 {.duration = config_.duration,
                  .period = cache_.config().flush_period,
                  .spo_at = config_.spo_at_s >= 0.0 ? seconds(config_.spo_at_s) : -1,
                  .spo_every = config_.spo_every_s > 0.0 ? seconds(config_.spo_every_s) : 0,
                  .open_loop = config_.open_loop_arrivals,
                  .stream = &workload,
                  .frontend = harness_.frontend()},
                 elapsed);
  } catch (const ftl::DeviceWornOut&) {
    // End of device life: report what was achieved up to this point.
    worn_out = true;
  }

  SimReport r;
  r.workload = workload.name();
  r.policy = policy.name();
  r.duration_s = to_seconds(config_.duration);
  harness_.fill_report(r, {&ssd_.ftl()});
  r.reclaim_requested_bytes = reclaim_requested_;
  r.prediction_accuracy = accuracy_.accuracy();
  r.predicted_intervals = accuracy_.intervals();
  r.app_buffered_write_bytes = app_buffered_bytes_;
  r.app_direct_write_bytes = app_direct_bytes_;
  r.device_worn_out = worn_out;
  r.run_end_reason = worn_out ? "device_worn_out" : "completed";
  r.elapsed_s = to_seconds(elapsed);
  if (worn_out && r.elapsed_s > 0.0) {
    r.iops = static_cast<double>(r.ops_completed) / r.elapsed_s;  // over actual life
  }
  r.integrity_reads_verified = integrity_reads_verified_;
  r.integrity_stale_reads = integrity_stale_reads_;
  harness_.drain_degrade_events(ssd_.mutable_ftl(), -1, r.elapsed_s);
  if (harness_.sink() != nullptr) harness_.sink()->on_run_end(r);
  return r;
}

}  // namespace jitgc::sim
