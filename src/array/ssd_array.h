// A striped volume over N independent simulated SSDs.
//
// The array is the paper's host-side manager scaled out: one logical LBA
// space striped chunk-by-chunk over N devices by a RedundancyLayout (RAID-0,
// mirror pairs or rotating parity; redundancy.h), each device an
// independently-seeded sim::Ssd with its own FTL, fault stream and GC state.
// The interesting coupling is temporal, not spatial: a stripe request
// completes at the max of its per-device completions, so one device busy
// with background GC stalls every request that touches it — which is exactly
// what the array-level GC coordinator (gc_coordinator.h) exists to manage.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "array/redundancy.h"
#include "common/ensure.h"
#include "common/types.h"
#include "sim/ssd.h"

namespace jitgc::array {

/// How the array schedules per-device background GC (see gc_coordinator.h).
enum class ArrayGcMode : std::uint8_t {
  kNaive,      ///< every device runs its local JIT policy independently
  kStaggered,  ///< desynchronized rotation: devices take turns (Zheng & Burns)
  kMaxK,       ///< at most k neediest devices collect concurrently
};

/// "naive" | "staggered" | "maxk".
const char* array_gc_mode_name(ArrayGcMode mode);

/// Inverse of array_gc_mode_name(); nullopt for unknown names.
std::optional<ArrayGcMode> parse_array_gc_mode(const std::string& name);

/// The valid --array-gc-mode values, "naive|staggered|maxk" — the single
/// source for CLI rejection messages and usage text.
const char* array_gc_mode_names();

struct ArrayConfig {
  /// Devices in the stripe set.
  std::uint32_t devices = 4;
  /// Stripe chunk size in pages: consecutive runs of this many LBAs land on
  /// the same device before the stripe advances to the next one.
  std::uint32_t stripe_chunk_pages = 8;
  ArrayGcMode gc_mode = ArrayGcMode::kStaggered;
  /// Concurrency cap `k` for the coordinated modes (ignored by naive).
  std::uint32_t max_concurrent_gc = 1;

  // -- GC window shaping (coordinator knobs, defaults match the single-SSD
  //    JIT manager's spirit: bounded interference, urgency escape) ----------
  /// Max fraction of a flush interval an opportunistic GC window may occupy.
  double gc_duty_cap = 0.5;
  /// Duty cap when the grant is an urgency escape (free < one interval's
  /// demand) — near-total, like foreground GC.
  double gc_urgent_duty_cap = 0.9;
  /// Target length of one GC burst. Coordinated modes spread bursts of this
  /// size evenly across the interval; naive devices run one contiguous
  /// session (a local policy has no array-wide pacing contract).
  TimeUs gc_slice_us = 4000;

  // -- Redundancy & rebuild (redundancy.h, rebuild_manager.h) ---------------
  /// Stripe layout. mirror needs an even device count, parity needs >= 3.
  RedundancyScheme redundancy = RedundancyScheme::kNone;
  /// Hot spares provisioned beyond the stripe set. A spare is a full idle
  /// device the rebuild manager promotes into a failed slot.
  std::uint32_t spare_devices = 0;
  /// Minimum fraction of each flush interval the coordinator must grant to
  /// an active rebuild even when the GC rotation says "not your turn" — the
  /// floor that keeps rebuild from being starved by tail-latency shaping.
  double rebuild_rate_floor = 0.1;
};

/// N independently-seeded Ssd instances behind a striping address map, plus
/// optional hot spares. Logical position in the stripe is a *slot*; the
/// slot→device table starts as the identity and is rewired by the rebuild
/// manager when a spare takes over a failed slot.
class SsdArray {
 public:
  /// Every device (stripe members and spares alike) gets `device_config`,
  /// except that fault-enabled configs are re-seeded per device with
  /// derive_seed(seed, device) so fault streams are independent and
  /// deterministic (the sweep engine's seed discipline).
  SsdArray(const sim::SsdConfig& device_config, const ArrayConfig& config, std::uint64_t seed);

  /// Stripe slots (devices actively backing the volume).
  std::uint32_t device_count() const { return config_.devices; }
  /// Physical devices including unpromoted hot spares.
  std::uint32_t total_device_count() const { return static_cast<std::uint32_t>(devices_.size()); }
  sim::Ssd& device(std::uint32_t d) { return *devices_[d]; }
  const sim::Ssd& device(std::uint32_t d) const { return *devices_[d]; }
  const ArrayConfig& config() const { return config_; }

  /// The address-math layer: scheme, chunk map, parity rotation. Its
  /// map_data() gives a logical LBA's slot and device-LBA; slot_device()
  /// turns the slot into the physical device.
  const RedundancyLayout& layout() const { return *layout_; }

  /// Physical device currently occupying stripe slot `slot` (the identity
  /// until a spare takes over a failed slot).
  std::uint32_t slot_device(std::uint32_t slot) const {
    JITGC_ENSURE_MSG(slot < slot_device_.size(), "slot out of range");
    return slot_device_[slot];
  }
  sim::Ssd& device_at_slot(std::uint32_t slot) { return *devices_[slot_device(slot)]; }

  /// Point `slot` at physical device `device` (spare promotion).
  void remap_slot(std::uint32_t slot, std::uint32_t device);

  /// Claim the next unpromoted spare (lowest device index first, so spare
  /// consumption order is deterministic); nullopt when the pool is empty.
  std::optional<std::uint32_t> take_spare();
  std::uint32_t spares_available() const { return static_cast<std::uint32_t>(free_spares_.size()); }

  /// Logical capacity of the volume in pages: per-device user capacity is
  /// floored to whole chunks (and reduced by the redundancy overhead) so
  /// every logical LBA maps to a real device page.
  Lba user_pages() const { return user_pages_; }
  /// Per-device share of the stripe (pages the layout uses on each device).
  Lba device_user_pages() const { return device_user_pages_; }
  Bytes page_size() const { return devices_.front()->ftl().page_size(); }

 private:
  ArrayConfig config_;
  std::vector<std::unique_ptr<sim::Ssd>> devices_;
  std::optional<RedundancyLayout> layout_;
  std::vector<std::uint32_t> slot_device_;  ///< slot -> physical device
  std::vector<std::uint32_t> free_spares_;  ///< unpromoted spare device indices
  Lba device_user_pages_ = 0;
  Lba user_pages_ = 0;
};

}  // namespace jitgc::array
