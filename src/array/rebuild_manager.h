// Spare promotion and GC-coordinated reconstruction after device retirement.
//
// When the device occupying a stripe slot retires (worn out, or fault-driven
// injection), the manager checks whether the layout can still derive the
// slot's contents from survivors — if not, the failure is data loss and the
// run ends with run_end_reason = "array_data_loss". Otherwise the slot turns
// degraded, and if a hot spare is available it is promoted into the slot
// immediately (host writes flow to the replacement from that instant) while
// reconstruction proceeds row by row as an explicit migration workload:
// survivor chunks are read, the lost chunk is rewritten on the replacement.
//
// Reconstruction time is not free: each tick the ArraySimulator asks the
// GcCoordinator for a rebuild window (GcCoordinator::decide_rebuild — the
// `rebuild` grant kind, throttled like GC but floored at rebuild_rate_floor)
// and advances the manager by that budget. The resulting read/write bursts
// become busy windows on the involved devices, so rebuild traffic stalls
// host I/O exactly the way GC windows do — rebuild speed vs. degraded-window
// tail latency is the trade-off this subsystem measures.
//
// One rebuild runs at a time; later failures queue behind it (their spares
// are still promoted immediately so writes have a home). A replacement that
// itself dies mid-rebuild restarts the slot's reconstruction on the next
// spare, or leaves the slot degraded when the pool is empty.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "array/ssd_array.h"
#include "common/ensure.h"
#include "common/types.h"

namespace jitgc::array {

/// Thrown when a failure exhausts the layout's redundancy: the volume's
/// contents are unrecoverable and the run ends with "array_data_loss".
class ArrayDataLoss : public std::runtime_error {
 public:
  explicit ArrayDataLoss(const std::string& what) : std::runtime_error(what) {}
};

/// Internal routing signal: the device occupying `slot` wore out mid-
/// operation. The simulator converts ftl::DeviceWornOut (which cannot know
/// which slot its device backs) into this and feeds on_slot_failure.
struct SlotFailureSignal {
  std::uint32_t slot = 0;
};

enum class SlotState : std::uint8_t {
  kHealthy,     ///< the slot's device holds its full contents
  kDegraded,    ///< contents lost; served from redundancy, no replacement
  kRebuilding,  ///< spare promoted, reconstruction in progress
  /// Transient outage: the device is offline but its contents are preserved
  /// (controller reset, pulled cable). No I/O reaches it — reads reconstruct
  /// from survivors, writes to its rows are recorded as stains — and
  /// resume_slot() brings it back without restarting reconstruction: a
  /// suspended rebuild keeps its row cursor, a suspended healthy device only
  /// resyncs the stained rows.
  kSuspended,
};

class RebuildManager {
 public:
  explicit RebuildManager(SsdArray& array);

  /// Inline: the array datapath asks once per page.
  SlotState slot_state(std::uint32_t slot) const {
    JITGC_ENSURE_MSG(slot < states_.size(), "slot out of range");
    return states_[slot];
  }
  /// True while any slot is not healthy (the volume is exposed: one more
  /// overlapping failure in the wrong place is data loss). A suspended slot
  /// counts as exposed — its contents are intact but unreachable.
  bool any_exposed() const {
    return std::any_of(states_.begin(), states_.end(),
                       [](SlotState s) { return s != SlotState::kHealthy; });
  }
  /// True while a rebuild can make progress: at least one job whose slot is
  /// not suspended. (A rebuild interrupted by an outage parks, keeping its
  /// cursor; it asks for no grant until the device returns.)
  bool rebuild_active() const;
  /// Slot of the rebuild currently being driven (rebuild_active() only).
  std::uint32_t active_slot() const;
  std::uint32_t active_replacement() const;

  // -- Transient outages -------------------------------------------------------

  /// Takes `slot`'s device offline, contents preserved. Legal on a healthy
  /// or rebuilding slot (a degraded slot has no device to suspend; nested
  /// suspension is a script error). A rebuilding slot's job parks with its
  /// row cursor persisted — this is the fix for the restart-from-row-0 bug:
  /// a *transient* second fault must not discard reconstruction progress.
  void suspend_slot(std::uint32_t slot);

  /// Records a host write the suspended `slot` missed: stripe `row` on it is
  /// now stale and must be re-reconstructed after resume. (Trims are not
  /// recorded — reconstruction already treats unmapped source pages as
  /// absent, matching the documented stale-parity simplification.)
  void note_missed_write(std::uint32_t slot, Lba row);

  /// What resume_slot() did, so the caller can emit state records.
  struct ResumeOutcome {
    bool rebuild_resumed = false;  ///< a parked rebuild continues from its cursor
    bool resync_started = false;   ///< a healthy-at-suspend slot replays stained rows
    Lba cursor = 0;                ///< persisted row cursor (rebuild_resumed only)
    std::uint64_t stained_rows = 0;  ///< rows queued for the tail resync pass
  };

  /// Brings a suspended slot's device back online. A parked rebuild resumes
  /// from its persisted cursor; rows reconstructed before the outage but
  /// overwritten during it (stains below the cursor) are queued for a tail
  /// resync pass after the primary pass, so reported progress stays
  /// monotone. A slot that was healthy when suspended either returns to
  /// healthy (no stains) or becomes a resync-only rebuild job.
  ResumeOutcome resume_slot(std::uint32_t slot);

  /// What on_slot_failure did, so the caller can emit state records.
  struct FailureOutcome {
    std::uint32_t failed_device = 0;  ///< physical device that left the slot
    bool was_rebuilding = false;      ///< the casualty was a mid-rebuild replacement
    bool rebuild_started = false;     ///< a spare was promoted into the slot
    std::uint32_t replacement_device = 0;  ///< valid when rebuild_started
  };

  /// Retires the device occupying `slot`. Throws ArrayDataLoss when the
  /// layout cannot reconstruct the slot from survivors (RAID-0 always can't;
  /// mirror/parity when a related slot is already exposed).
  FailureOutcome on_slot_failure(std::uint32_t slot);

  /// One granted window's worth of reconstruction.
  struct RebuildTick {
    bool active = false;
    bool completed = false;       ///< this window finished the rebuild
    std::uint32_t slot = 0;
    std::uint32_t replacement_device = 0;
    Lba rows_done = 0;            ///< cursor after the window
    Lba rows_total = 0;
    Bytes read_bytes = 0;         ///< survivor reads, this window
    Bytes write_bytes = 0;        ///< replacement writes, this window
    TimeUs used_us = 0;           ///< window time consumed (<= budget + one row)
    /// Busy bursts per *physical device*: survivor read bursts and
    /// replacement write bursts, one entry per reconstructed row. The
    /// simulator merges these with GC bursts into the device's window
    /// calendar.
    std::vector<std::vector<TimeUs>> bursts;
    /// Interval rebuild traffic per physical device (for device records).
    std::vector<Bytes> device_read_bytes;
    std::vector<Bytes> device_write_bytes;
  };

  /// Reconstructs rows of the front rebuild until `budget_us` is consumed or
  /// the rebuild completes. Rows with no mapped source pages cost nothing
  /// (there is nothing to copy). May throw SlotFailureSignal if the
  /// replacement device wears out under reconstruction writes.
  RebuildTick advance(TimeUs budget_us);

  // -- Run-level counters ------------------------------------------------------
  std::uint64_t device_failures() const { return device_failures_; }
  std::uint64_t rebuilds_completed() const { return rebuilds_completed_; }
  Bytes total_read_bytes() const { return total_read_bytes_; }
  Bytes total_write_bytes() const { return total_write_bytes_; }

 private:
  /// Would losing `slot`'s contents now be unrecoverable?
  bool loss_if_slot_lost(std::uint32_t slot) const;

  struct PendingRebuild {
    std::uint32_t slot = 0;
    std::uint32_t device = 0;  ///< promoted replacement (or the returning device)
    Lba cursor = 0;            ///< next stripe row to reconstruct
    bool suspended = false;    ///< parked by an outage; keeps its cursor
    /// Rows below the cursor whose contents went stale during an outage
    /// (host writes the offline device missed). Re-reconstructed in a tail
    /// resync pass once the primary pass finishes, so rows_done/cursor stay
    /// monotone; sorted ascending, deduplicated.
    std::vector<Lba> stains;
  };

  /// First job that can make progress; rebuilds_.end() when all are parked.
  std::vector<PendingRebuild>::iterator runnable_rebuild();
  std::vector<PendingRebuild>::const_iterator runnable_rebuild() const;

  SsdArray& array_;
  std::vector<SlotState> states_;
  std::vector<PendingRebuild> rebuilds_;  ///< front-most runnable job is active
  /// Per-slot state to restore on resume (valid while kSuspended).
  std::vector<SlotState> pre_suspend_;
  /// Per-slot rows written while the slot was suspended (unsorted, may hold
  /// duplicates; canonicalized at resume).
  std::vector<std::vector<Lba>> missed_rows_;
  std::uint64_t device_failures_ = 0;
  std::uint64_t rebuilds_completed_ = 0;
  Bytes total_read_bytes_ = 0;
  Bytes total_write_bytes_ = 0;
};

}  // namespace jitgc::array
