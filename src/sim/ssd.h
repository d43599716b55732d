// The SSD as the host sees it: FTL + NAND behind a service-time model.
//
// Raw NAND latencies from the FTL are divided by the device's plane-level
// parallelism to get effective service times (an SM843T stripes across
// channels/dies). The extended host interface (the paper's custom SG_IO
// commands) is modeled with its measured ~160 us per-command overhead.
#pragma once

#include <cstdint>

#include "ftl/ftl.h"
#include "host/page_cache.h"

namespace jitgc::sim {

struct SsdConfig {
  ftl::FtlConfig ftl;
  /// SG_IO round-trip cost for each extended-interface command (paper §4.1).
  TimeUs host_command_overhead_us = 160;
  /// Host-interface payload bandwidth for command data (SIP lists are 4-byte
  /// LBAs; a 30k-entry list is ~120 KiB and costs real transfer time).
  double command_payload_bps = 500e6;
  /// Device service-queue count. 1 (default): the single-queue model with
  /// parallelism-scaled times. 0: one queue per plane serving *raw* NAND
  /// times (same throughput, overlapping operations). Other values pick an
  /// explicit queue count. See sim/service_model.h.
  std::uint32_t service_queues = 1;

  /// Queues the simulator should instantiate.
  std::uint32_t resolved_service_queues() const {
    return service_queues == 0 ? ftl.geometry.parallelism() : service_queues;
  }
};

class Ssd {
 public:
  explicit Ssd(const SsdConfig& config);

  // -- Standard datapath (service times scaled by parallelism) ---------------

  /// Writes one page; returned time includes any foreground-GC stall.
  TimeUs write_page(Lba lba);
  TimeUs read_page(Lba lba);
  /// Drops one page's mapping. It costs no NAND time (the map lives in
  /// DRAM), but callers still dispatch it so it queues like every command.
  void trim(Lba lba);

  // -- Extended interface -----------------------------------------------------

  /// C_free(t) in bytes; charges one command overhead.
  Bytes query_free_capacity(TimeUs& overhead) const;

  /// Delivers L_SIP as a delta against the last delivered list; charges one
  /// command overhead. `sip_size` is the full list's length |L_SIP|: the wire
  /// protocol still ships the whole list (4 bytes per entry), the delta only
  /// spares the device the O(|L_SIP|) rebuild.
  void send_sip_update(const host::SipDelta& delta, std::uint64_t sip_size, TimeUs& overhead);

  /// Incremental BGC: migrates up to `max_pages` pages (service-scaled time).
  /// The simulator sizes `max_pages` to the idle gap it is filling. The step
  /// that erases a victim feeds gc_bandwidth_bps() one sample: the victim's
  /// net freed pages over the summed time of all its steps.
  ftl::Ftl::GcStep bgc_collect_step(std::uint32_t max_pages);

  /// Effective service time of migrating one page during BGC.
  TimeUs migrate_step_time() const {
    const TimeUs t = scale(config_.ftl.timing.migrate_cost());
    return t > 0 ? t : 1;
  }

  void set_sip_filter_enabled(bool on) { ftl_.set_sip_filter_enabled(on); }

  // -- Crash consistency (ftl/recovery.h) -------------------------------------

  /// Sudden power-off at this instant: the FTL loses its volatile state and
  /// rebuilds itself from the media (see RecoveryEngine). The returned
  /// report's media_scan_us is service-scaled like every other NAND time —
  /// the OOB scan stripes across planes the same way the datapath does.
  ftl::RecoveryReport sudden_power_off() {
    ftl::RecoveryReport rep = ftl_.sudden_power_off();
    rep.media_scan_us = scale(rep.media_scan_us);
    return rep;
  }

  // -- Bandwidth estimates (what the JIT-GC manager plugs into its formula) --

  /// Steady host-write service rate, bytes/s (analytic, from timing).
  double write_bandwidth_bps() const;

  /// Net free-space creation rate of background GC, bytes/s. Starts from an
  /// analytic prior (50 % valid victims) and tracks reality by EWMA over
  /// completed BGC cycles.
  double gc_bandwidth_bps() const { return gc_bps_ewma_; }

  // -- Introspection ----------------------------------------------------------

  const ftl::Ftl& ftl() const { return ftl_; }
  ftl::Ftl& mutable_ftl() { return ftl_; }
  const SsdConfig& config() const { return config_; }
  std::uint32_t parallelism() const { return config_.ftl.geometry.parallelism(); }

  // -- Warm-state snapshots (sim/snapshot.h) ----------------------------------
  // The FTL/NAND state plus the GC bandwidth estimator. The service model
  // and page cache live above the Ssd and are rebuilt by the simulator.

  void save_state(BinaryWriter& w) const;

  /// Restores a state saved by save_state() into an Ssd constructed with the
  /// same config; throws BinaryFormatError on structural mismatch.
  void restore_state(BinaryReader& r);

  /// Converts a raw NAND latency into per-queue service time: divided by
  /// parallelism in single-queue mode, unchanged when the simulator runs
  /// one queue per plane (parallelism then comes from queue overlap).
  TimeUs scale(TimeUs raw) const {
    if (config_.resolved_service_queues() > 1) return raw;
    const TimeUs scaled = raw / parallelism();
    return scaled > 0 ? scaled : (raw > 0 ? 1 : 0);
  }

 private:
  void update_gc_estimate(std::uint64_t net_freed_pages, TimeUs scaled_time);

  SsdConfig config_;
  ftl::Ftl ftl_;
  double gc_bps_ewma_ = 0.0;
  // Per-victim accumulation for the incremental path's bandwidth sample.
  std::uint64_t step_migrated_accum_ = 0;
  TimeUs step_time_accum_ = 0;
};

}  // namespace jitgc::sim
