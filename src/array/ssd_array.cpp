#include "array/ssd_array.h"

#include "common/ensure.h"
#include "common/rng.h"

namespace jitgc::array {

const char* array_gc_mode_name(ArrayGcMode mode) {
  switch (mode) {
    case ArrayGcMode::kNaive: return "naive";
    case ArrayGcMode::kStaggered: return "staggered";
    case ArrayGcMode::kMaxK: return "maxk";
  }
  JITGC_ENSURE_MSG(false, "unreachable gc mode");
  return "?";
}

std::optional<ArrayGcMode> parse_array_gc_mode(const std::string& name) {
  if (name == "naive") return ArrayGcMode::kNaive;
  if (name == "staggered") return ArrayGcMode::kStaggered;
  if (name == "maxk") return ArrayGcMode::kMaxK;
  return std::nullopt;
}

const char* array_gc_mode_names() { return "naive|staggered|maxk"; }

SsdArray::SsdArray(const sim::SsdConfig& device_config, const ArrayConfig& config,
                   std::uint64_t seed)
    : config_(config) {
  JITGC_ENSURE_MSG(config_.devices >= 1, "array needs at least one device");
  JITGC_ENSURE_MSG(config_.stripe_chunk_pages >= 1, "stripe chunk must be at least one page");
  JITGC_ENSURE_MSG(config_.max_concurrent_gc >= 1, "GC concurrency cap must be at least 1");

  const std::uint32_t total = config_.devices + config_.spare_devices;
  devices_.reserve(total);
  for (std::uint32_t d = 0; d < total; ++d) {
    sim::SsdConfig per_device = device_config;
    // Independent, deterministic per-device fault streams: same derivation
    // the sweep engine uses for per-run seeds.
    if (per_device.ftl.fault.enabled()) per_device.ftl.fault.seed = derive_seed(seed, d);
    devices_.push_back(std::make_unique<sim::Ssd>(per_device));
  }

  slot_device_.resize(config_.devices);
  for (std::uint32_t s = 0; s < config_.devices; ++s) slot_device_[s] = s;
  for (std::uint32_t d = config_.devices; d < total; ++d) free_spares_.push_back(d);

  const Lba per_device = devices_.front()->ftl().user_pages();
  JITGC_ENSURE_MSG(per_device >= config_.stripe_chunk_pages,
                   "stripe chunk larger than device user capacity");
  layout_.emplace(config_.redundancy, config_.devices, config_.stripe_chunk_pages, per_device);
  device_user_pages_ = layout_->device_user_pages();
  user_pages_ = layout_->user_pages();
}

void SsdArray::remap_slot(std::uint32_t slot, std::uint32_t device) {
  JITGC_ENSURE_MSG(slot < slot_device_.size(), "slot out of range");
  JITGC_ENSURE_MSG(device < devices_.size(), "device out of range");
  slot_device_[slot] = device;
}

std::optional<std::uint32_t> SsdArray::take_spare() {
  if (free_spares_.empty()) return std::nullopt;
  const std::uint32_t d = free_spares_.front();
  free_spares_.erase(free_spares_.begin());
  return d;
}

}  // namespace jitgc::array
