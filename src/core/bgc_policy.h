// Background-GC invocation policy interface.
//
// The simulator calls the active policy once per flusher tick (the paper's
// decision instant) with everything any of the four techniques could need;
// each policy uses only what its real-world counterpart could see:
//   L-BGC / A-BGC : C_free only (device-internal, fixed reserve)
//   ADP-GC        : C_free + device-visible traffic history (no page cache)
//   JIT-GC        : everything, including the host page cache
#pragma once

#include <string>
#include <vector>

#include "common/types.h"
#include "host/page_cache.h"

namespace jitgc::core {

/// Snapshot handed to the policy at a flusher tick.
struct PolicyContext {
  TimeUs now = 0;
  /// Host page cache; device-internal policies must not touch it (it is
  /// still passed so the harness stays uniform — honesty is per policy).
  const host::PageCache* page_cache = nullptr;
  /// C_free(t): bytes writable before foreground GC triggers.
  Bytes c_free = 0;
  /// Upper bound on the free space GC could establish (free + invalid, the
  /// paper's C_unused + C_OP cap on any reserve).
  Bytes reclaimable_capacity = 0;
  /// Device-visible traffic during the interval that just ended.
  Bytes interval_buffered_flush_bytes = 0;  ///< page-cache writeback arrivals
  Bytes interval_direct_bytes = 0;          ///< direct-write arrivals
  /// Direct-write arrivals attributed per tenant stream (multi-tenant
  /// front-end only; empty in legacy single-stream runs). Sums to
  /// `interval_direct_bytes`.
  std::vector<Bytes> tenant_interval_direct_bytes;
  /// Device idle time during the interval that just ended (time the device
  /// spent neither serving host I/O nor collecting).
  TimeUs interval_idle_us = 0;
  /// Current service-rate estimates.
  double write_bps = 0.0;
  double gc_bps = 0.0;
  /// Device capacities (for reserve sizing).
  Bytes op_capacity = 0;
  Bytes user_capacity = 0;
};

/// What the policy wants done during the coming interval.
struct PolicyDecision {
  /// Bytes of free space BGC should create during the coming idle time
  /// (opportunistic: always yields to host I/O).
  Bytes reclaim_bytes = 0;
  /// Bytes BGC must reclaim immediately, even if host I/O has to wait
  /// (JIT-GC's D_reclaim when T_idle < T_gc; zero for lazy policies).
  Bytes urgent_reclaim_bytes = 0;
  /// Device-write traffic expected over the coming prediction horizon
  /// [t + p, t + p + tau_expire] — the policy's C_req (Table 2 accuracy is
  /// measured against the actual traffic of that window); negative = this
  /// policy does not predict.
  double predicted_horizon_bytes = -1.0;
};

class BgcPolicy {
 public:
  virtual ~BgcPolicy() = default;

  virtual std::string name() const = 0;

  /// Decide at a flusher tick. Called every p seconds.
  virtual PolicyDecision on_interval(const PolicyContext& ctx) = 0;

  /// Whether the extended (SIP-aware) collector should be enabled. The
  /// simulator then ships L_SIP, read off the page cache, to the device
  /// after every on_interval call; the decision itself carries no list.
  virtual bool wants_sip_filter() const { return false; }

  /// Custom host<->SSD commands this policy exchanges per interval (each
  /// costs the SG_IO overhead the paper measured at ~160 us). Device-internal
  /// policies exchange none.
  virtual std::uint32_t custom_commands_per_interval() const { return 0; }
};

}  // namespace jitgc::core
