#include "array/rebuild_manager.h"

#include <algorithm>

#include "common/ensure.h"

namespace jitgc::array {

RebuildManager::RebuildManager(SsdArray& array)
    : array_(array),
      states_(array.device_count(), SlotState::kHealthy),
      pre_suspend_(array.device_count(), SlotState::kHealthy),
      missed_rows_(array.device_count()) {}

std::vector<RebuildManager::PendingRebuild>::iterator RebuildManager::runnable_rebuild() {
  const auto& self = *this;
  const auto it = self.runnable_rebuild();
  return rebuilds_.begin() + (it - rebuilds_.cbegin());
}

std::vector<RebuildManager::PendingRebuild>::const_iterator RebuildManager::runnable_rebuild()
    const {
  // A job can run when its own slot is not parked AND none of its
  // reconstruction sources is offline (survivor reads cannot reach a
  // suspended device): the mirror partner, or — under parity — every other
  // slot.
  const RedundancyLayout& layout = array_.layout();
  return std::find_if(rebuilds_.cbegin(), rebuilds_.cend(), [&](const PendingRebuild& r) {
    if (r.suspended) return false;
    if (layout.scheme() == RedundancyScheme::kMirror) {
      return states_[layout.mirror_partner(r.slot)] != SlotState::kSuspended;
    }
    for (std::uint32_t s = 0; s < states_.size(); ++s) {
      if (s != r.slot && states_[s] == SlotState::kSuspended) return false;
    }
    return true;
  });
}

bool RebuildManager::rebuild_active() const { return runnable_rebuild() != rebuilds_.end(); }

std::uint32_t RebuildManager::active_slot() const {
  const auto it = runnable_rebuild();
  JITGC_ENSURE_MSG(it != rebuilds_.end(), "no active rebuild");
  return it->slot;
}

std::uint32_t RebuildManager::active_replacement() const {
  const auto it = runnable_rebuild();
  JITGC_ENSURE_MSG(it != rebuilds_.end(), "no active rebuild");
  return it->device;
}

void RebuildManager::suspend_slot(std::uint32_t slot) {
  JITGC_ENSURE_MSG(slot < states_.size(), "slot out of range");
  JITGC_ENSURE_MSG(states_[slot] == SlotState::kHealthy || states_[slot] == SlotState::kRebuilding,
                   "only a slot with a live device can be suspended");
  pre_suspend_[slot] = states_[slot];
  states_[slot] = SlotState::kSuspended;
  missed_rows_[slot].clear();
  // A rebuilding slot's job parks with its cursor — the persisted progress
  // that a transient second fault must not discard.
  for (PendingRebuild& job : rebuilds_) {
    if (job.slot == slot) job.suspended = true;
  }
}

void RebuildManager::note_missed_write(std::uint32_t slot, Lba row) {
  JITGC_ENSURE_MSG(slot < states_.size(), "slot out of range");
  JITGC_ENSURE_MSG(states_[slot] == SlotState::kSuspended,
                   "missed writes are only recorded while suspended");
  std::vector<Lba>& rows = missed_rows_[slot];
  if (rows.empty() || rows.back() != row) rows.push_back(row);  // cheap adjacent dedup
}

RebuildManager::ResumeOutcome RebuildManager::resume_slot(std::uint32_t slot) {
  JITGC_ENSURE_MSG(slot < states_.size(), "slot out of range");
  JITGC_ENSURE_MSG(states_[slot] == SlotState::kSuspended, "resuming a slot that is not suspended");

  std::vector<Lba> stains = std::move(missed_rows_[slot]);
  missed_rows_[slot].clear();
  std::sort(stains.begin(), stains.end());
  stains.erase(std::unique(stains.begin(), stains.end()), stains.end());

  ResumeOutcome out;
  out.stained_rows = stains.size();

  if (pre_suspend_[slot] == SlotState::kRebuilding) {
    // Resume the parked job from its persisted cursor. Stains at or above
    // the cursor are dropped — the primary pass reconstructs those rows
    // anyway; only already-reconstructed rows need the tail resync.
    states_[slot] = SlotState::kRebuilding;
    for (PendingRebuild& job : rebuilds_) {
      if (job.slot != slot) continue;
      job.suspended = false;
      std::vector<Lba> below;
      for (const Lba row : stains) {
        if (row < job.cursor) below.push_back(row);
      }
      job.stains.insert(job.stains.end(), below.begin(), below.end());
      std::sort(job.stains.begin(), job.stains.end());
      job.stains.erase(std::unique(job.stains.begin(), job.stains.end()), job.stains.end());
      out.rebuild_resumed = true;
      out.cursor = job.cursor;
      out.stained_rows = job.stains.size();
    }
    JITGC_ENSURE_MSG(out.rebuild_resumed, "suspended rebuilding slot lost its job");
    return out;
  }

  // Healthy at suspend: the returning device holds everything except the
  // stained rows. No stains — nothing to do; otherwise a resync-only job
  // (primary pass already complete: cursor starts at rows_total).
  if (stains.empty()) {
    states_[slot] = SlotState::kHealthy;
    return out;
  }
  states_[slot] = SlotState::kRebuilding;
  PendingRebuild job;
  job.slot = slot;
  job.device = array_.slot_device(slot);
  job.cursor = array_.layout().rows();
  job.stains = std::move(stains);
  rebuilds_.push_back(std::move(job));
  out.resync_started = true;
  out.cursor = array_.layout().rows();
  return out;
}

bool RebuildManager::loss_if_slot_lost(std::uint32_t slot) const {
  const RedundancyLayout& layout = array_.layout();
  switch (layout.scheme()) {
    case RedundancyScheme::kNone:
      return true;  // RAID-0: nothing can reconstruct a lost device
    case RedundancyScheme::kMirror:
      // The pair partner must hold a complete copy; a partner that is itself
      // degraded or mid-rebuild does not.
      return states_[layout.mirror_partner(slot)] != SlotState::kHealthy;
    case RedundancyScheme::kParity:
      // Single-parity: every other slot must be complete.
      for (std::uint32_t s = 0; s < states_.size(); ++s) {
        if (s != slot && states_[s] != SlotState::kHealthy) return true;
      }
      return false;
  }
  JITGC_ENSURE_MSG(false, "unreachable redundancy scheme");
  return true;
}

RebuildManager::FailureOutcome RebuildManager::on_slot_failure(std::uint32_t slot) {
  JITGC_ENSURE_MSG(slot < states_.size(), "slot out of range");
  JITGC_ENSURE_MSG(states_[slot] != SlotState::kDegraded,
                   "a degraded slot has no device left to fail");
  JITGC_ENSURE_MSG(states_[slot] != SlotState::kSuspended,
                   "a suspended slot's device is offline and cannot fail");
  FailureOutcome out;
  out.failed_device = array_.slot_device(slot);
  out.was_rebuilding = states_[slot] == SlotState::kRebuilding;
  ++device_failures_;

  if (loss_if_slot_lost(slot)) {
    throw ArrayDataLoss(std::string("slot ") + std::to_string(slot) +
                        " lost with redundancy exhausted");
  }

  // A replacement that died mid-rebuild: drop its reconstruction; the slot
  // restarts from row zero on the next spare (partial contents are gone).
  rebuilds_.erase(std::remove_if(rebuilds_.begin(), rebuilds_.end(),
                                 [slot](const PendingRebuild& r) { return r.slot == slot; }),
                  rebuilds_.end());
  states_[slot] = SlotState::kDegraded;

  if (const auto spare = array_.take_spare()) {
    array_.remap_slot(slot, *spare);
    states_[slot] = SlotState::kRebuilding;
    PendingRebuild job;
    job.slot = slot;
    job.device = *spare;
    rebuilds_.push_back(std::move(job));
    out.rebuild_started = true;
    out.replacement_device = *spare;
  }
  return out;
}

RebuildManager::RebuildTick RebuildManager::advance(TimeUs budget_us) {
  RebuildTick tick;
  const auto it = runnable_rebuild();
  if (it == rebuilds_.end()) return tick;
  PendingRebuild& job = *it;
  const RedundancyLayout& layout = array_.layout();
  const Lba chunk = layout.chunk_pages();
  const Bytes page_size = array_.page_size();
  const std::uint32_t total_devices = array_.total_device_count();

  tick.active = true;
  tick.slot = job.slot;
  tick.replacement_device = job.device;
  tick.rows_total = layout.rows();
  tick.bursts.assign(total_devices, {});
  tick.device_read_bytes.assign(total_devices, 0);
  tick.device_write_bytes.assign(total_devices, 0);

  sim::Ssd& replacement = array_.device(job.device);

  const auto reconstruct_row = [&](Lba row) {
    const Lba base = row * chunk;
    const std::vector<std::uint32_t> sources = layout.reconstruction_sources(job.slot, row);
    JITGC_ENSURE_MSG(!sources.empty(), "rebuild on a layout with no redundancy");

    // Which offsets of this row's chunk actually hold data: an offset needs
    // reconstruction when any source chunk has it mapped (mirror: the
    // partner's copy; parity: any data/parity chunk of the row).
    TimeUs max_read = 0;
    TimeUs write_cost = 0;
    std::vector<bool> needed(chunk, false);
    for (const std::uint32_t s : sources) {
      sim::Ssd& src = array_.device_at_slot(s);
      TimeUs read_cost = 0;
      Lba pages = 0;
      for (Lba off = 0; off < chunk; ++off) {
        if (!src.ftl().is_mapped(base + off)) continue;
        needed[static_cast<std::size_t>(off)] = true;
        read_cost += src.read_page(base + off);
        ++pages;
      }
      if (read_cost > 0) {
        tick.bursts[array_.slot_device(s)].push_back(read_cost);
        tick.device_read_bytes[array_.slot_device(s)] += pages * page_size;
        tick.read_bytes += pages * page_size;
        max_read = std::max(max_read, read_cost);
      }
    }
    Lba written = 0;
    for (Lba off = 0; off < chunk; ++off) {
      if (!needed[static_cast<std::size_t>(off)]) continue;
      try {
        write_cost += replacement.write_page(base + off);
      } catch (const ftl::DeviceWornOut&) {
        // The replacement itself died under reconstruction load. Surface the
        // slot so the simulator retires it (restart on the next spare).
        throw SlotFailureSignal{job.slot};
      }
      ++written;
    }
    if (write_cost > 0) {
      tick.bursts[job.device].push_back(write_cost);
      tick.device_write_bytes[job.device] += written * page_size;
      tick.write_bytes += written * page_size;
    }

    // Reads fan out in parallel across survivors; the rewrite depends on all
    // of them, so the row costs the slowest read plus the write.
    tick.used_us += max_read + write_cost;
  };

  // Primary pass: the cursor sweeps forward (monotone, the progress that
  // survives a transient outage).
  while (job.cursor < layout.rows() && tick.used_us < budget_us) {
    reconstruct_row(job.cursor);
    ++job.cursor;
  }
  // Tail resync pass: rows reconstructed before an outage but overwritten
  // while the device was away. Runs only after the primary pass so reported
  // rows_done never moves backwards.
  while (job.cursor >= layout.rows() && !job.stains.empty() && tick.used_us < budget_us) {
    reconstruct_row(job.stains.front());
    job.stains.erase(job.stains.begin());
  }

  tick.rows_done = job.cursor;
  total_read_bytes_ += tick.read_bytes;
  total_write_bytes_ += tick.write_bytes;

  if (job.cursor >= layout.rows() && job.stains.empty()) {
    states_[job.slot] = SlotState::kHealthy;
    tick.completed = true;
    ++rebuilds_completed_;
    rebuilds_.erase(it);
  }
  return tick;
}

}  // namespace jitgc::array
