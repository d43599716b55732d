#include "sim/ssd.h"

namespace jitgc::sim {

Ssd::Ssd(const SsdConfig& config) : config_(config), ftl_(config.ftl) {
  // Analytic prior for GC bandwidth: a victim at ~50 % valid costs
  // u*ppb migrations + one erase and frees (1-u)*ppb pages.
  const auto& t = config_.ftl.timing;
  const auto& g = config_.ftl.geometry;
  const double u = 0.5;
  const double raw_cycle_us =
      u * g.pages_per_block * static_cast<double>(t.migrate_cost()) +
      static_cast<double>(t.block_erase_us);
  const double freed_bytes = (1.0 - u) * g.pages_per_block * static_cast<double>(g.page_size);
  gc_bps_ewma_ = freed_bytes / (raw_cycle_us / g.parallelism()) * 1e6;
}

TimeUs Ssd::write_page(Lba lba) { return scale(ftl_.write(lba)); }

TimeUs Ssd::read_page(Lba lba) { return scale(ftl_.read(lba)); }

void Ssd::trim(Lba lba) { ftl_.trim(lba); }

Bytes Ssd::query_free_capacity(TimeUs& overhead) const {
  overhead += config_.host_command_overhead_us;
  return ftl_.free_bytes_for_writes();
}

void Ssd::send_sip_update(const host::SipDelta& delta, std::uint64_t sip_size, TimeUs& overhead) {
  overhead += config_.host_command_overhead_us;
  // Payload transfer: 4 bytes per LBA of the whole list over the host
  // interface; the delta encoding only changes what the device does with it.
  const double payload_bytes = 4.0 * static_cast<double>(sip_size);
  overhead += static_cast<TimeUs>(payload_bytes / config_.command_payload_bps * 1e6);
  ftl_.apply_sip_delta(delta.added, delta.removed);
}

void Ssd::save_state(BinaryWriter& w) const {
  ftl_.save_state(w);
  w.f64(gc_bps_ewma_);
  w.u64(step_migrated_accum_);
  w.u64(step_time_accum_);
}

void Ssd::restore_state(BinaryReader& r) {
  ftl_.restore_state(r);
  gc_bps_ewma_ = r.f64();
  step_migrated_accum_ = r.u64();
  step_time_accum_ = r.u64();
}

void Ssd::update_gc_estimate(std::uint64_t net_freed_pages, TimeUs scaled_time) {
  if (scaled_time <= 0) return;
  // In multi-queue mode, per-queue (raw) cycle time understates the
  // device-wide reclaim rate by the queue count: GC steps overlap.
  const double overlap =
      config_.resolved_service_queues() > 1 ? static_cast<double>(parallelism()) : 1.0;
  const double sample_bps =
      overlap * static_cast<double>(net_freed_pages) * static_cast<double>(ftl_.page_size()) /
      (static_cast<double>(scaled_time) / 1e6);
  constexpr double kAlpha = 0.05;
  gc_bps_ewma_ = (1.0 - kAlpha) * gc_bps_ewma_ + kAlpha * sample_bps;
}

ftl::Ftl::GcStep Ssd::bgc_collect_step(std::uint32_t max_pages) {
  ftl::Ftl::GcStep step = ftl_.background_collect_step(max_pages);
  step.time_us = scale(step.time_us);
  if (step.progressed) {
    step_migrated_accum_ += step.migrated;
    step_time_accum_ += step.time_us;
    if (step.erased) {
      const std::uint64_t net =
          step.freed_pages > step_migrated_accum_ ? step.freed_pages - step_migrated_accum_ : 0;
      update_gc_estimate(net, step_time_accum_);
      step_migrated_accum_ = 0;
      step_time_accum_ = 0;
    }
  }
  return step;
}

double Ssd::write_bandwidth_bps() const {
  const auto& t = config_.ftl.timing;
  const auto& g = config_.ftl.geometry;
  return static_cast<double>(g.page_size) /
         (static_cast<double>(t.program_cost()) / g.parallelism() / 1e6);
}

}  // namespace jitgc::sim
