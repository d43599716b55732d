#include "core/jit_policy.h"

#include "common/ensure.h"

namespace jitgc::core {

JitPolicy::JitPolicy(const JitPolicyConfig& config)
    : config_(config), predictor_(config.predictor), manager_(config.horizon) {}

PolicyDecision JitPolicy::on_interval(const PolicyContext& ctx) {
  JITGC_ENSURE_MSG(ctx.page_cache != nullptr, "JIT-GC needs host page-cache visibility");

  predictor_.observe_direct_interval(ctx.interval_direct_bytes);

  double measured_idle_s = -1.0;
  if (config_.use_measured_idle) {
    if (idle_intervals_seen_ < config_.idle_warmup_intervals) {
      // Warm-up: the earliest intervals carry post-preconditioning
      // turbulence; seeding the EWMA from them would bias T_idle for the
      // whole run. Leave it unseeded (measured_idle_s stays < 0) so the
      // manager uses the analytic formula this interval.
      ++idle_intervals_seen_;
    } else {
      const auto idle = static_cast<double>(ctx.interval_idle_us);
      idle_ewma_us_ = idle_ewma_us_ < 0.0
                          ? idle
                          : (1.0 - config_.idle_ewma_alpha) * idle_ewma_us_ +
                                config_.idle_ewma_alpha * idle;
      // Scale the per-interval estimate up to the horizon.
      const double intervals = static_cast<double>(config_.horizon) /
                               static_cast<double>(ctx.page_cache->config().flush_period);
      measured_idle_s = idle_ewma_us_ * intervals / 1e6;
    }
  }

  const Prediction prediction = predictor_.predict(*ctx.page_cache, ctx.now);
  last_decision_ = manager_.decide(prediction, ctx.c_free,
                                   BandwidthEstimate{ctx.write_bps, ctx.gc_bps},
                                   ctx.reclaimable_capacity, measured_idle_s);

  PolicyDecision d;
  d.reclaim_bytes = last_decision_.idle_reclaim_bytes;
  d.urgent_reclaim_bytes = last_decision_.reclaim_bytes;
  d.predicted_horizon_bytes = static_cast<double>(prediction.required_capacity());
  return d;
}

}  // namespace jitgc::core
