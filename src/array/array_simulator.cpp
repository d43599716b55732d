#include "array/array_simulator.h"

#include <algorithm>
#include <cctype>
#include <chrono>

#include "common/binary_io.h"
#include "common/ensure.h"
#include "common/rng.h"
#include "sim/metrics_sink.h"

namespace jitgc::array {
namespace {

std::string upper(const char* s) {
  std::string out;
  for (; *s != '\0'; ++s) out += static_cast<char>(std::toupper(static_cast<unsigned char>(*s)));
  return out;
}

}  // namespace

ArraySimulator::ArraySimulator(const ArraySimConfig& config)
    : config_(config),
      array_(config_.ssd, config_.array, config_.seed),
      coordinator_(config.array),
      pool_(config.step_threads ? config.step_threads : ThreadPool::hardware_threads()),
      redundant_(config.array.redundancy != RedundancyScheme::kNone),
      rebuild_mgr_(array_),
      states_(array_.total_device_count()),
      slot_demand_ewma_(config.array.devices, 0.0) {
  JITGC_ENSURE_MSG(config_.flush_period > 0, "flush period must be positive");
  if (config_.kill_slot >= 0) {
    JITGC_ENSURE_MSG(static_cast<std::uint32_t>(config_.kill_slot) < config_.array.devices,
                     "kill slot out of range");
  }
  if (config_.outage_slot >= 0) {
    JITGC_ENSURE_MSG(redundant_, "scripted outage requires a redundant layout");
    JITGC_ENSURE_MSG(static_cast<std::uint32_t>(config_.outage_slot) < config_.array.devices,
                     "outage slot out of range");
    JITGC_ENSURE_MSG(config_.outage_restore_at > config_.outage_at,
                     "outage restore must come after the outage");
  }
  if (config_.spo_slot >= 0) {
    JITGC_ENSURE_MSG(static_cast<std::uint32_t>(config_.spo_slot) < config_.array.devices,
                     "SPO slot out of range");
  }
}

void ArraySimulator::precondition(Lba footprint, Lba ws) {
  // Each slot device ages independently through sim::age_device: its share
  // of the striped footprint (including mirror copies and parity chunks
  // under a redundant layout) is a contiguous device-local prefix, and the
  // scramble draws from its share of the working set with a per-slot
  // derived seed. Tasks touch only their own device, so the fan-out is
  // deterministic regardless of thread count. Hot spares stay
  // factory-fresh — they idle outside the volume.
  const RedundancyLayout& layout = array_.layout();
  pool_.parallel_for(array_.device_count(), [&](std::size_t d) {
    const auto slot = static_cast<std::uint32_t>(d);
    ftl::Ftl& ftl = array_.device_at_slot(slot).mutable_ftl();
    Rng rng(derive_seed(config_.seed ^ 0xA6E5C0DE, d));
    sim::age_device(ftl, layout.fill_pages_on_slot(footprint, slot),
                    layout.fill_pages_on_slot(ws, slot), rng);

    // Rest the device: aging leaves free space at rock bottom, and the array
    // coordinator only acts at flush ticks — without a restored OP reserve the
    // first interval degenerates into an urgent-GC storm on every device.
    const Bytes free_now = ftl.free_bytes_for_writes();
    if (free_now < ftl.op_capacity()) {
      ftl.background_reclaim((ftl.op_capacity() - free_now) / ftl.page_size());
    }
  });
}

std::string ArraySimulator::array_precondition_fingerprint(Lba footprint, Lba ws) const {
  std::string out = "jitgc-array-precondition-fingerprint v";
  out += std::to_string(sim::kSnapshotFormatVersion);
  out += "\n";
  sim::append_ssd_fingerprint_fields(out, config_.ssd);
  // The stripe/redundancy shape decides each slot's share of the fill, and
  // the array seed keys every per-slot scramble stream and per-device fault
  // stream (derive_seed); the GC mode plays no part until the first tick.
  const auto u64 = [&out](const char* key, std::uint64_t v) {
    out += key;
    out += '=';
    out += std::to_string(v);
    out += '\n';
  };
  u64("array.devices", config_.array.devices);
  u64("array.stripe_chunk_pages", config_.array.stripe_chunk_pages);
  u64("array.redundancy", static_cast<std::uint64_t>(config_.array.redundancy));
  u64("array.spare_devices", config_.array.spare_devices);
  u64("array.seed", config_.seed);
  u64("array.footprint_pages", footprint);
  u64("array.working_set_pages", ws);
  return out;
}

TimeUs ArraySimulator::dispatch(std::uint32_t dev, TimeUs earliest, TimeUs cost, bool& stalled) {
  DeviceState& st = states_[dev];
  TimeUs start = std::max(st.busy_until, earliest);
  // Wait out every GC window the start lands in. Starts are monotone per
  // device (arrivals and busy_until both only grow), so the cursor never
  // needs to rewind.
  while (true) {
    while (st.window_cursor < st.windows.size() &&
           st.windows[st.window_cursor].end <= start) {
      ++st.window_cursor;
    }
    if (st.window_cursor < st.windows.size() && st.windows[st.window_cursor].start <= start) {
      start = st.windows[st.window_cursor].end;
      stalled = true;
      continue;
    }
    break;
  }
  st.busy_until = start + cost;
  st.interval_busy_us += cost;
  return st.busy_until;
}

TimeUs ArraySimulator::execute_op(const wl::AppOp& op, TimeUs issue, bool& stalled) {
  // A device can retire mid-op. Retire it (RAID-0: the run ends; redundant:
  // possibly promoting a spare) and retry the op against the post-failure
  // topology. Work already dispatched is sunk cost — it was genuinely
  // attempted, so device time and device write bytes are charged per
  // attempt — but the host transferred each page once: its bytes are counted
  // after the page's first successful attempt.
  const Bytes page_size = array_.page_size();
  std::uint32_t counted = 0;  // leading pages whose host bytes are counted
  for (std::uint32_t attempt = 0;; ++attempt) {
    try {
      TimeUs completion = issue;
      for (std::uint32_t i = 0; i < op.pages; ++i) {
        completion = std::max(completion, execute_page(op.type, op.lba + i, issue, stalled));
        if (i < counted) continue;
        counted = i + 1;
        if (op.type == wl::OpType::kWrite) {
          interval_write_bytes_ += page_size;
          app_write_bytes_ += page_size;
        } else if (op.type == wl::OpType::kRead) {
          interval_read_bytes_ += page_size;
        }
      }
      return completion;
    } catch (const SlotFailureSignal& s) {
      JITGC_ENSURE_MSG(attempt < array_.total_device_count(), "op retry limit exceeded");
      handle_slot_failure(s.slot, issue, "device_worn_out");
    }
  }
}

TimeUs ArraySimulator::execute_page(wl::OpType type, Lba lba, TimeUs issue, bool& stalled) {
  const RedundancyLayout& layout = array_.layout();
  const auto healthy = [&](std::uint32_t slot) {
    return rebuild_mgr_.slot_state(slot) == SlotState::kHealthy;
  };
  // A rebuilding slot takes writes (the replacement is being filled); a
  // degraded slot has no device, a suspended one is temporarily offline.
  const auto writable = [&](std::uint32_t slot) {
    const SlotState st = rebuild_mgr_.slot_state(slot);
    return st == SlotState::kHealthy || st == SlotState::kRebuilding;
  };
  const auto suspended = [&](std::uint32_t slot) {
    return rebuild_mgr_.slot_state(slot) == SlotState::kSuspended;
  };
  const auto write_slot = [&](std::uint32_t slot, Lba device_lba) -> TimeUs {
    const std::uint32_t dev = array_.slot_device(slot);
    try {
      const TimeUs cost = array_.device(dev).write_page(device_lba);
      states_[dev].interval_write_bytes += array_.page_size();
      return cost;
    } catch (const ftl::DeviceWornOut&) {
      throw SlotFailureSignal{slot};
    }
  };
  const auto read_slot = [&](std::uint32_t slot, Lba device_lba) {
    return array_.device_at_slot(slot).read_page(device_lba);  // works read-only too
  };
  const auto dispatch_slot = [&](std::uint32_t slot, TimeUs earliest, TimeUs cost) {
    return dispatch(array_.slot_device(slot), earliest, cost, stalled);
  };

  const ChunkLoc loc = layout.map_data(lba);
  switch (type) {
    case wl::OpType::kRead: {
      if (healthy(loc.slot)) return dispatch_slot(loc.slot, issue, read_slot(loc.slot, loc.lba));
      // Degraded read: reconstruct from every survivor (mirror: the pair
      // partner; parity: the rest of the row). Completion waits for the
      // slowest survivor. A still-rebuilding slot is served this way too —
      // its replacement holds only a prefix of the contents.
      TimeUs completion = issue;
      for (const std::uint32_t s :
           layout.reconstruction_sources(loc.slot, layout.row_of_device_lba(loc.lba))) {
        if (suspended(s)) continue;  // offline source: the others carry the read
        completion = std::max(completion, dispatch_slot(s, issue, read_slot(s, loc.lba)));
      }
      return completion;
    }
    case wl::OpType::kWrite: {
      if (layout.scheme() == RedundancyScheme::kNone) {
        // RAID-0: one copy, on a slot that is always healthy (its first
        // retirement ends the run).
        return dispatch_slot(loc.slot, issue, write_slot(loc.slot, loc.lba));
      }
      const Lba row = layout.row_of_device_lba(loc.lba);
      if (layout.scheme() == RedundancyScheme::kMirror) {
        TimeUs completion = issue;
        for (const std::uint32_t s : {loc.slot, layout.mirror_partner(loc.slot)}) {
          if (!writable(s)) {
            // Lost copy: the survivor carries it. An offline (suspended)
            // copy additionally stains the row for resync at restore.
            if (suspended(s)) rebuild_mgr_.note_missed_write(s, row);
            continue;
          }
          completion = std::max(completion, dispatch_slot(s, issue, write_slot(s, loc.lba)));
        }
        return completion;
      }
      const std::uint32_t pslot = layout.parity_slot(row);
      const bool data_ok = writable(loc.slot);
      const bool parity_ok = writable(pslot);
      if (suspended(loc.slot)) rebuild_mgr_.note_missed_write(loc.slot, row);
      if (!data_ok && !parity_ok) {
        // Degraded + suspended overlap: neither the data nor the parity
        // chunk is reachable this instant. The stain queues the row for
        // resync when the suspended device returns.
        if (suspended(pslot)) rebuild_mgr_.note_missed_write(pslot, row);
        return issue;
      }
      if (data_ok && parity_ok) {
        // RAID-5 small write: read old data and old parity in parallel,
        // then rewrite both — each write depends on both reads.
        const TimeUs r1 = dispatch_slot(loc.slot, issue, read_slot(loc.slot, loc.lba));
        const TimeUs r2 = dispatch_slot(pslot, issue, read_slot(pslot, loc.lba));
        const TimeUs ready = std::max(r1, r2);
        const TimeUs w1 = dispatch_slot(loc.slot, ready, write_slot(loc.slot, loc.lba));
        const TimeUs w2 = dispatch_slot(pslot, ready, write_slot(pslot, loc.lba));
        return std::max(w1, w2);
      }
      if (!data_ok) {
        // Lost data chunk: fold the write into parity — read the row's
        // surviving data chunks, then rewrite the parity chunk.
        TimeUs ready = issue;
        for (std::uint32_t s = 0; s < layout.slots(); ++s) {
          if (s == loc.slot || s == pslot) continue;
          ready = std::max(ready, dispatch_slot(s, issue, read_slot(s, loc.lba)));
        }
        return dispatch_slot(pslot, ready, write_slot(pslot, loc.lba));
      }
      // The row's parity chunk is on the lost (or offline) slot: the data
      // write stands alone — parity returns with the rebuild, or via the
      // resync stain when the suspended device comes back.
      if (suspended(pslot)) rebuild_mgr_.note_missed_write(pslot, row);
      return dispatch_slot(loc.slot, issue, write_slot(loc.slot, loc.lba));
    }
    case wl::OpType::kTrim: {
      // Trims drop data mappings only; parity is left stale (documented
      // simplification — reconstruction treats unmapped pages as absent).
      // A trim costs no NAND time but still queues on each copy's device.
      const auto trim_slot = [&](std::uint32_t s) {
        array_.device_at_slot(s).trim(loc.lba);
        return dispatch_slot(s, issue, 0);
      };
      TimeUs completion = issue;
      if (layout.scheme() == RedundancyScheme::kMirror) {
        for (const std::uint32_t s : {loc.slot, layout.mirror_partner(loc.slot)}) {
          if (writable(s)) completion = std::max(completion, trim_slot(s));
        }
      } else if (writable(loc.slot)) {
        completion = trim_slot(loc.slot);
      }
      return completion;
    }
  }
  JITGC_ENSURE_MSG(false, "unreachable op type");
  return issue;
}

void ArraySimulator::emit_state_record(TimeUs at, const char* state, std::uint32_t slot,
                                       std::uint32_t device, const char* reason) {
  if (harness_.sink() == nullptr) return;
  sim::ArrayStateRecord rec;
  rec.interval = current_interval_;
  rec.time_s = to_seconds(at);
  rec.state = state;
  rec.slot = slot;
  rec.device = device;
  rec.reason = reason;
  harness_.sink()->on_array_state(rec);
}

void ArraySimulator::handle_slot_failure(std::uint32_t slot, TimeUs at, const char* reason) {
  if (!redundant_) {
    // RAID-0 keeps its legacy contract: the first retirement ends the array.
    throw ftl::DeviceWornOut("array device worn out");
  }
  RebuildManager::FailureOutcome out;
  try {
    out = rebuild_mgr_.on_slot_failure(slot);
  } catch (const ArrayDataLoss&) {
    emit_state_record(at, "data_loss", slot, array_.slot_device(slot), "redundancy_exhausted");
    throw;
  }
  emit_state_record(at, "degraded", slot, out.failed_device, reason);
  if (out.rebuild_started) {
    emit_state_record(at, "rebuilding", slot, out.replacement_device, "spare_promoted");
  }
}

ArraySimulator::GcPhaseResult ArraySimulator::collect_slot(std::uint32_t slot,
                                                           const GcGrant& grant) {
  GcPhaseResult r;
  if (!grant.granted) return r;
  sim::Ssd& dev = array_.device_at_slot(slot);
  const double duty =
      grant.urgent ? config_.array.gc_urgent_duty_cap : config_.array.gc_duty_cap;
  const auto budget = static_cast<TimeUs>(duty * static_cast<double>(config_.flush_period));
  const Bytes page_size = array_.page_size();

  try {
    while (dev.ftl().free_bytes_for_writes() < grant.target_bytes && r.gc_time_us < budget) {
      const TimeUs per_page = dev.migrate_step_time();
      const auto max_pages = static_cast<std::uint32_t>(
          std::max<TimeUs>(1, config_.array.gc_slice_us / per_page));
      const ftl::Ftl::GcStep step = dev.bgc_collect_step(max_pages);
      if (!step.progressed) break;
      r.bursts.push_back(step.time_us);
      r.gc_time_us += step.time_us;
      r.reclaimed_bytes += static_cast<Bytes>(step.freed_pages) * page_size;
    }
  } catch (const ftl::DeviceWornOut&) {
    // Died collecting. Flag it; the main thread retires the slot after the
    // barrier, in slot order, so the outcome is thread-count independent.
    r.worn_out = true;
  }
  return r;
}

void ArraySimulator::drain_fault_events(double time_s) {
  for (std::uint32_t d = 0; d < array_.total_device_count(); ++d) {
    harness_.drain_degrade_events(array_.device(d).mutable_ftl(), static_cast<std::int32_t>(d),
                                  time_s);
  }
}

void ArraySimulator::apply_scripted_outage(TimeUs now) {
  if (config_.outage_slot < 0) return;
  const auto slot = static_cast<std::uint32_t>(config_.outage_slot);
  if (!outage_done_ && now >= config_.outage_at) {
    outage_done_ = true;
    rebuild_mgr_.suspend_slot(slot);
    emit_state_record(now, "suspended", slot, array_.slot_device(slot), "injected_outage");
  } else if (outage_done_ && !outage_restored_ && now >= config_.outage_restore_at) {
    outage_restored_ = true;
    resume_slot(slot, now);
  }
}

void ArraySimulator::resume_slot(std::uint32_t slot, TimeUs now) {
  const RebuildManager::ResumeOutcome out = rebuild_mgr_.resume_slot(slot);
  const char* reason = out.rebuild_resumed    ? "rebuild_resumed"
                       : out.resync_started   ? "resync_started"
                                              : "no_resync_needed";
  emit_state_record(now, "resumed", slot, array_.slot_device(slot), reason);
}

void ArraySimulator::apply_scripted_spo(TimeUs now) {
  if (config_.spo_slot < 0) return;
  const auto slot = static_cast<std::uint32_t>(config_.spo_slot);
  if (!spo_done_ && now >= config_.spo_at) {
    spo_done_ = true;
    const auto wall_start = std::chrono::steady_clock::now();
    if (redundant_) {
      // A degraded or already-suspended slot has no powered device to lose
      // power — the script is a no-op then (never a crash). RAID-0 has no
      // slot states: its device recovers in place.
      const SlotState state = rebuild_mgr_.slot_state(slot);
      if (state != SlotState::kHealthy && state != SlotState::kRebuilding) return;
      rebuild_mgr_.suspend_slot(slot);
      emit_state_record(now, "suspended", slot, array_.slot_device(slot), "injected_spo");
    }
    // The device itself power-cycles: volatile FTL state is discarded and
    // the map rebuilt from the OOB scan (its internal oracle enforces zero
    // lost acknowledged mappings). The scan occupies the device's queue; a
    // suspended slot scans while offline and rejoins at the next tick.
    const std::uint32_t dev = array_.slot_device(slot);
    const ftl::RecoveryReport rep = array_.device(dev).sudden_power_off();
    DeviceState& st = states_[dev];
    st.busy_until = std::max(st.busy_until, now) + rep.media_scan_us;
    st.interval_busy_us += rep.media_scan_us;
    harness_.note_recovery(rep, now, static_cast<std::int32_t>(dev), wall_start);
  } else if (spo_done_ && !spo_resumed_) {
    spo_resumed_ = true;
    if (rebuild_mgr_.slot_state(slot) == SlotState::kSuspended) {
      resume_slot(slot, now);
    }
  }
}

void ArraySimulator::tick(TimeUs now) {
  const std::uint64_t tick_index = interval_index_++;  // 0-based for the rotation
  current_interval_ = tick_index + 1;
  const TimeUs p = config_.flush_period;
  const std::uint32_t n = array_.device_count();

  // 0. Scripted retirement: a deterministic fault-driven kill, independent
  // of the stochastic fault model (RAID-0: ends the run as device_worn_out).
  if (config_.kill_slot >= 0 && !kill_done_ && now >= config_.kill_at) {
    kill_done_ = true;
    handle_slot_failure(static_cast<std::uint32_t>(config_.kill_slot), now, "injected_kill");
  }
  apply_scripted_outage(now);
  apply_scripted_spo(now);

  // 1. Poll every slot device through the extended interface. The poll is a
  // real host command: its overhead occupies the device's queue, exactly as
  // the single-SSD manager is charged. A degraded slot has no device to
  // poll — it gets no GC until a spare takes over.
  std::vector<DeviceDemand> demands(n);
  for (std::uint32_t d = 0; d < n; ++d) {
    // A degraded slot has no device to poll; a suspended one is offline.
    if (rebuild_mgr_.slot_state(d) == SlotState::kDegraded ||
        rebuild_mgr_.slot_state(d) == SlotState::kSuspended) {
      slot_demand_ewma_[d] = 0.0;
      continue;  // demands[d] stays zero: want_gc() never grants it
    }
    DeviceState& st = states_[array_.slot_device(d)];
    const double sample = static_cast<double>(st.interval_write_bytes);
    slot_demand_ewma_[d] =
        slot_demand_ewma_[d] == 0.0 ? sample : 0.3 * sample + 0.7 * slot_demand_ewma_[d];

    TimeUs overhead = 0;
    demands[d].free_bytes = array_.device_at_slot(d).query_free_capacity(overhead);
    st.busy_until = std::max(st.busy_until, now) + overhead;
    st.interval_busy_us += overhead;
    demands[d].reclaimable_bytes = array_.device_at_slot(d).ftl().reclaimable_capacity();
    demands[d].demand_bytes_per_interval = static_cast<Bytes>(slot_demand_ewma_[d]);
  }

  // 2. Coordinate.
  const std::vector<GcGrant> grants = coordinator_.decide(tick_index, demands);

  // 3. Parallel GC phase: granted devices collect concurrently. Device
  // states are disjoint; results are merged below in slot-index order, so
  // the run is byte-identical at any thread count.
  std::vector<GcPhaseResult> results(n);
  pool_.parallel_for(n, [&](std::size_t d) {
    results[d] = collect_slot(static_cast<std::uint32_t>(d),
                              grants[d]);
  });
  // Retire devices that died collecting — after the barrier, in slot order.
  for (std::uint32_t d = 0; d < n; ++d) {
    if (results[d].worn_out) handle_slot_failure(d, now, "device_worn_out");
  }

  drain_fault_events(to_seconds(now));

  // 4. Rebuild phase (serial, post-barrier, so progress is deterministic):
  // the coordinator's rebuild grant competes with the GC grants just issued
  // but never drops below the configured floor.
  RebuildManager::RebuildTick rtick;
  if (rebuild_mgr_.rebuild_active()) {
    RebuildDemand rdemand;
    rdemand.active = true;
    rdemand.slot = rebuild_mgr_.active_slot();
    const RebuildGrant rgrant = coordinator_.decide_rebuild(tick_index, grants, rdemand);
    const auto budget = static_cast<TimeUs>(rgrant.duty * static_cast<double>(p));
    try {
      rtick = rebuild_mgr_.advance(budget);
    } catch (const SlotFailureSignal& s) {
      // The replacement died under reconstruction load; this window's work
      // is lost with it.
      handle_slot_failure(s.slot, now, "device_worn_out");
    }
    if (rtick.active && harness_.sink() != nullptr) {
      sim::RebuildProgressRecord rec;
      rec.interval = tick_index + 1;
      rec.time_s = to_seconds(now);
      rec.slot = rtick.slot;
      rec.replacement_device = rtick.replacement_device;
      rec.rows_done = rtick.rows_done;
      rec.rows_total = rtick.rows_total;
      rec.progress = rtick.rows_total != 0
                         ? static_cast<double>(rtick.rows_done) /
                               static_cast<double>(rtick.rows_total)
                         : 1.0;
      rec.read_bytes = rtick.read_bytes;
      rec.write_bytes = rtick.write_bytes;
      rec.budget_us = budget;
      rec.used_us = rtick.used_us;
      harness_.sink()->on_rebuild_progress(rec);
    }
    if (rtick.completed) {
      emit_state_record(now, "restored", rtick.slot, rtick.replacement_device, "rebuild_complete");
    }
  }

  // 5. Merge: turn each device's GC and rebuild bursts into busy windows
  // inside the coming interval and emit its record. Coordinated grants
  // spread their bursts evenly — the array scheduler paces everything it
  // grants, and urgency only raises the budget. Naive grants run one
  // contiguous session from the tick: a local policy has no pacing contract.
  std::uint32_t gc_devices = 0;
  Bytes reclaimed_total = 0;
  Bytes free_min = 0;
  Bytes free_total = 0;
  for (std::uint32_t d = 0; d < n; ++d) {
    const std::uint32_t dev_id = array_.slot_device(d);
    DeviceState& st = states_[dev_id];
    const GcPhaseResult& res = results[d];
    const bool spread = config_.array.gc_mode != ArrayGcMode::kNaive;
    // No reachable capacity: the slot's contents are gone (degraded) or its
    // device is offline (suspended).
    const bool lost = rebuild_mgr_.slot_state(d) == SlotState::kDegraded ||
                      rebuild_mgr_.slot_state(d) == SlotState::kSuspended;

    std::vector<TimeUs> all_bursts = res.bursts;
    if (rtick.active && dev_id < rtick.bursts.size()) {
      all_bursts.insert(all_bursts.end(), rtick.bursts[dev_id].begin(),
                        rtick.bursts[dev_id].end());
    }

    st.windows.clear();
    st.window_cursor = 0;
    const auto bursts = static_cast<TimeUs>(all_bursts.size());
    TimeUs cursor = now;
    for (std::size_t i = 0; i < all_bursts.size(); ++i) {
      TimeUs start = cursor;
      if (spread) {
        start = std::max<TimeUs>(now + static_cast<TimeUs>(i) * (p / bursts), cursor);
      }
      st.windows.push_back(GcWindow{start, start + all_bursts[i]});
      cursor = start + all_bursts[i];
    }

    if (grants[d].granted) {
      ++gc_devices;
      reclaim_requested_ +=
          grants[d].target_bytes > demands[d].free_bytes
              ? grants[d].target_bytes - demands[d].free_bytes
              : 0;
    }
    reclaimed_total += res.reclaimed_bytes;
    const Bytes free_now = lost ? 0 : array_.device_at_slot(d).ftl().free_bytes_for_writes();
    free_total += free_now;
    free_min = d == 0 ? free_now : std::min(free_min, free_now);

    if (harness_.sink() != nullptr) {
      const auto& fs = array_.device_at_slot(d).ftl().stats();
      sim::DeviceIntervalRecord rec;
      rec.device = dev_id;
      rec.interval = tick_index + 1;
      rec.time_s = to_seconds(now);
      rec.free_bytes = free_now;
      rec.gc_granted = grants[d].granted;
      rec.gc_urgent = grants[d].urgent;
      rec.gc_window_us = res.gc_time_us;
      rec.bgc_reclaimed_bytes = res.reclaimed_bytes;
      rec.write_bytes = st.interval_write_bytes;
      rec.busy_us = st.interval_busy_us;
      rec.fgc_cycles = fs.foreground_gc_cycles - st.interval_fgc_base;
      if (rtick.active && dev_id < rtick.device_read_bytes.size()) {
        rec.rebuild_read_bytes = rtick.device_read_bytes[dev_id];
        rec.rebuild_write_bytes = rtick.device_write_bytes[dev_id];
      }
      harness_.sink()->on_device_interval(rec);
      st.interval_fgc_base = fs.foreground_gc_cycles;
    }
    st.interval_write_bytes = 0;
    st.interval_busy_us = 0;
  }

  // 6. The array-level record.
  if (harness_.sink() != nullptr) {
    sim::ArrayIntervalRecord rec;
    rec.interval = tick_index + 1;
    rec.time_s = to_seconds(now);
    rec.devices = n;
    rec.gc_devices = gc_devices;
    rec.free_bytes_min = free_min;
    rec.free_bytes_total = free_total;
    rec.write_bytes = interval_write_bytes_;
    rec.read_bytes = interval_read_bytes_;
    rec.bgc_reclaimed_bytes = reclaimed_total;
    rec.ops = harness_.interval_latencies().count();
    rec.gc_stalled_ops = interval_stalled_ops_;
    rec.p50_latency_us = harness_.interval_latencies().percentile(50.0);
    rec.p99_latency_us = harness_.interval_latencies().percentile(99.0);
    rec.p999_latency_us = harness_.interval_latencies().percentile(99.9);
    rec.max_latency_us = harness_.interval_latencies().percentile(100.0);
    rec.write_p99_latency_us = interval_write_latencies_.percentile(99.0);
    rec.write_p999_latency_us = interval_write_latencies_.percentile(99.9);
    if (redundant_) {  // RAID-0 lines carry no state
      rec.state = rebuild_mgr_.rebuild_active()
                      ? "rebuilding"
                      : (rebuild_mgr_.any_exposed() ? "degraded" : "healthy");
    }
    harness_.sink()->on_array_interval(rec);
  }
  // One tenant record per tenant, right after the array-level record. The
  // array has no per-tenant predictor, so the prediction fields stay at
  // their "absent" defaults and are not emitted.
  harness_.close_interval(tick_index + 1, now, nullptr);

  interval_write_bytes_ = 0;
  interval_read_bytes_ = 0;
  interval_stalled_ops_ = 0;
  interval_write_latencies_.clear();

  // 7. Exposure accounting, at flush-period granularity: the state after
  // this tick's transitions covers the coming interval.
  if (rebuild_mgr_.any_exposed()) degraded_time_s_ += to_seconds(p);
  if (rebuild_mgr_.rebuild_active()) rebuild_time_s_ += to_seconds(p);
  current_interval_ = tick_index + 2;
}

TimeUs ArraySimulator::serve(const wl::AppOp& op, TimeUs issue, TimeUs arrival) {
  bool stalled = false;
  const TimeUs completion = execute_op(op, issue, stalled);
  const auto latency = static_cast<double>(completion - arrival);
  const bool write = op.type == wl::OpType::kWrite;
  // All array writes are device writes (the stream is post-cache), so the
  // report's direct-write tail is the write tail.
  harness_.record_latency(latency, op.type == wl::OpType::kRead, write);
  if (stalled) ++interval_stalled_ops_;
  if (write) {
    interval_write_latencies_.add(latency);
    if (rebuild_mgr_.any_exposed()) degraded_write_latencies_.add(latency);
  }
  return completion;
}

sim::SimReport ArraySimulator::run(wl::WorkloadGenerator& workload) {
  if (config_.frontend.enabled()) harness_.bind_frontend(workload);

  // Age every device to steady state: from the snapshot cache when one is
  // attached and holds this array's post-precondition state, by the parallel
  // cold fan-out otherwise. Dying while aging means the endurance budget
  // cannot even cover the fill: redundancy or not, report it as the legacy
  // worn-out ending.
  bool worn_out_preconditioning = false;
  if (config_.precondition) {
    // During preconditioning slot s still holds physical device s and spares
    // idle factory-fresh, so the snapshot is exactly the first
    // device_count() devices' states in slot order; spares need no bytes.
    const std::uint32_t n = array_.device_count();
    worn_out_preconditioning = !harness_.establish_precondition(
        workload, array_.user_pages(),
        {.fingerprint = [&](Lba fp, Lba ws) { return array_precondition_fingerprint(fp, ws); },
         .restore =
             [&](BinaryReader& r) {
               if (r.u32() != n) {
                 throw BinaryFormatError("snapshot device count does not match the array");
               }
               for (std::uint32_t d = 0; d < n; ++d) array_.device(d).restore_state(r);
             },
         .reset = [&] { array_ = SsdArray(config_.ssd, config_.array, config_.seed); },
         .precondition = [&](Lba fp, Lba ws) { precondition(fp, ws); },
         .save =
             [&](BinaryWriter& w) {
               w.u32(n);
               for (std::uint32_t d = 0; d < n; ++d) array_.device(d).save_state(w);
             }});
  }

  // Metric baselines: everything before this instant was preconditioning.
  std::vector<const ftl::Ftl*> devices;
  for (std::uint32_t d = 0; d < array_.total_device_count(); ++d) {
    devices.push_back(&array_.device(d).ftl());
    states_[d].interval_fgc_base = devices[d]->stats().foreground_gc_cycles;
  }
  harness_.capture_baselines(devices);

  TimeUs elapsed = 0;
  std::string end_reason = "completed";
  try {
    if (worn_out_preconditioning) throw ftl::DeviceWornOut("worn out during preconditioning");
    // Open loop: see the header comment.
    sim::run_measured(*this,
                      {.duration = config_.duration,
                       .period = config_.flush_period,
                       .open_loop = true,
                       .stream = &workload,
                       .frontend = harness_.frontend()},
                      elapsed);
  } catch (const ftl::DeviceWornOut&) {
    // RAID-0 has no redundancy: the first worn-out device ends the array's
    // life. Report what was achieved up to this point.
    end_reason = "device_worn_out";
  } catch (const ArrayDataLoss&) {
    // A failure landed on an already-exposed stripe: redundancy exhausted.
    end_reason = "array_data_loss";
  }

  sim::SimReport r;
  r.workload = workload.name();
  std::string policy = "ARRAY-";
  if (redundant_) {
    policy += upper(redundancy_scheme_name(config_.array.redundancy));
    policy += '-';
  }
  policy += upper(array_gc_mode_name(config_.array.gc_mode));
  r.policy = policy;
  r.duration_s = to_seconds(config_.duration);
  harness_.fill_report(r, devices);
  r.reclaim_requested_bytes = reclaim_requested_;
  r.app_direct_write_bytes = app_write_bytes_;
  r.device_worn_out = end_reason == "device_worn_out";
  r.run_end_reason = end_reason;
  r.elapsed_s = to_seconds(elapsed);

  // All zero under RAID-0, whose first retirement ends the run: the JSONL
  // redundancy block then stays out.
  r.device_failures = rebuild_mgr_.device_failures();
  r.rebuilds_completed = rebuild_mgr_.rebuilds_completed();
  r.rebuild_read_bytes = rebuild_mgr_.total_read_bytes();
  r.rebuild_write_bytes = rebuild_mgr_.total_write_bytes();
  r.rebuild_time_s = rebuild_time_s_;
  r.degraded_time_s = degraded_time_s_;
  r.degraded_write_p99_latency_us = degraded_write_latencies_.count() != 0
                                        ? degraded_write_latencies_.percentile(99.0)
                                        : 0.0;

  drain_fault_events(to_seconds(elapsed));
  if (harness_.sink() != nullptr) harness_.sink()->on_run_end(r);
  return r;
}

}  // namespace jitgc::array
