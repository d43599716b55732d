#include "array/array_cli.h"

#include <fstream>
#include <memory>
#include <stdexcept>

#include "array/array_simulator.h"
#include "common/ensure.h"
#include "sim/cli_options.h"
#include "sim/experiment.h"
#include "sim/metrics_sink.h"

namespace jitgc::array {

sim::SimReport run_array_from_cli(const sim::CliOptions& options) {
  JITGC_ENSURE_MSG(options.array_devices >= 1, "array mode needs --array-devices");

  // Device shape: the same defaults and knobs as a single-SSD run; each of
  // the N devices gets this configuration. Single-SSD-only options (--policy,
  // --bgc-rate-limit, the page-cache knobs) are refused at parse time — the
  // array models the post-cache device stream and schedules GC with its own
  // coordinator.
  const sim::SimConfig base = sim::default_sim_config(options.seed);
  ArraySimConfig config;
  config.ssd = base.ssd;
  sim::apply_device_options(options, config.ssd);

  config.duration = seconds(options.seconds);
  config.flush_period = base.cache.flush_period;
  config.seed = options.seed;
  config.step_threads = static_cast<std::size_t>(options.jobs);

  config.array.devices = options.array_devices;
  config.array.stripe_chunk_pages = options.stripe_chunk_pages;
  const auto mode = parse_array_gc_mode(options.array_gc_mode);
  if (!mode) {
    throw std::runtime_error("unknown array GC mode '" + options.array_gc_mode + "' (" +
                             array_gc_mode_names() + ")");
  }
  config.array.gc_mode = *mode;
  config.array.max_concurrent_gc = options.array_max_concurrent_gc;
  const auto scheme = parse_redundancy_scheme(options.array_redundancy);
  if (!scheme) {
    throw std::runtime_error("unknown array redundancy scheme '" + options.array_redundancy +
                             "' (" + redundancy_scheme_names() + ")");
  }
  config.array.redundancy = *scheme;
  config.array.spare_devices = options.array_spares;
  config.array.rebuild_rate_floor = options.rebuild_rate_floor;
  config.kill_slot = options.array_kill_slot;
  config.kill_at = seconds(options.array_kill_at_s);
  config.outage_slot = options.array_outage_slot;
  config.outage_at = seconds(options.array_outage_at_s);
  config.outage_restore_at = seconds(options.array_outage_restore_at_s);
  config.spo_slot = options.array_spo_slot;
  config.spo_at = seconds(options.array_spo_at_s);
  config.frontend = sim::frontend_config_from_cli(options);

  ArraySimulator simulator(config);
  sim::SnapshotCache snapshot_cache(options.snapshot_cache_dir);
  snapshot_cache.set_disk_limit(options.snapshot_cache_limit);
  if (!options.snapshot_cache_dir.empty()) simulator.set_snapshot_cache(&snapshot_cache);
  const Lba user_pages = simulator.ssd_array().user_pages();
  JITGC_ENSURE_MSG(user_pages == sim::volume_user_pages(options),
                   "the parse-time volume size disagrees with the array layout");
  const std::unique_ptr<wl::WorkloadGenerator> gen =
      options.tenants > 0
          ? sim::make_frontend_from_cli(options, user_pages,
                                        config.ssd.ftl.geometry.page_size)
          : sim::make_workload_from_cli(options, user_pages);

  std::ofstream metrics_out;
  std::unique_ptr<sim::JsonlMetricsSink> metrics_sink;
  if (!options.metrics_path.empty()) {
    metrics_out.open(options.metrics_path);
    if (!metrics_out) {
      throw std::runtime_error("cannot open metrics file: " + options.metrics_path);
    }
    metrics_sink = std::make_unique<sim::JsonlMetricsSink>(metrics_out, /*run_index=*/0,
                                                           options.seed);
    simulator.set_metrics_sink(metrics_sink.get());
  }

  return simulator.run(*gen);
}

}  // namespace jitgc::array
