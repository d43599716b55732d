#include "host/frontend/tenant_policy.h"

#include <utility>

#include "common/ensure.h"

namespace jitgc::frontend {
namespace {

// Same PredictorConfig -> DirectEstimatorConfig mapping the single-stream
// FutureWriteDemandPredictor applies, so each tenant's estimator matches
// what JitPolicy would build for that stream alone.
core::DirectEstimatorConfig estimator_config(const core::PredictorConfig& config) {
  core::DirectEstimatorConfig e;
  e.kind = config.direct_estimator;
  e.cdh = config.cdh;
  e.cdh_quantile = config.direct_quantile;
  e.ewma_alpha = config.ewma_alpha;
  e.ewma_margin = config.ewma_margin;
  e.max_windows = config.sliding_max_windows;
  e.intervals_per_window = config.cdh.intervals_per_window;
  return e;
}

}  // namespace

MultiStreamJitPolicy::MultiStreamJitPolicy(const core::JitPolicyConfig& config,
                                           const HostFrontend* frontend)
    : config_(config),
      frontend_(frontend),
      buffered_(config.predictor.relax_flush_condition),
      manager_(config.horizon) {
  JITGC_ENSURE_MSG(frontend_ != nullptr, "the multi-stream policy needs the front-end topology");
  const std::uint32_t n = frontend_->tenant_count();
  direct_.reserve(n);
  for (std::uint32_t t = 0; t < n; ++t) {
    direct_.push_back(core::make_direct_estimator(estimator_config(config.predictor)));
  }
  tenant_predicted_.assign(n, 0);
  tenant_sip_.assign(n, 0);
}

core::PolicyDecision MultiStreamJitPolicy::on_interval(const core::PolicyContext& ctx) {
  JITGC_ENSURE_MSG(ctx.page_cache != nullptr, "JIT-GC needs host page-cache visibility");
  const host::PageCache& cache = *ctx.page_cache;
  const auto& cfg = cache.config();
  const std::uint32_t nwb = cfg.intervals_per_horizon();
  const std::uint32_t n = frontend_->tenant_count();
  JITGC_ENSURE_MSG(ctx.tenant_interval_direct_bytes.size() == n,
                   "per-tenant direct-byte attribution must cover every tenant");

  for (std::uint32_t t = 0; t < n; ++t) {
    direct_[t]->observe_interval(ctx.tenant_interval_direct_bytes[t]);
  }

  double measured_idle_s = -1.0;
  if (config_.use_measured_idle) {
    if (idle_intervals_seen_ < config_.idle_warmup_intervals) {
      ++idle_intervals_seen_;
    } else {
      const auto idle = static_cast<double>(ctx.interval_idle_us);
      idle_ewma_us_ = idle_ewma_us_ < 0.0
                          ? idle
                          : (1.0 - config_.idle_ewma_alpha) * idle_ewma_us_ +
                                config_.idle_ewma_alpha * idle;
      const double intervals =
          static_cast<double>(config_.horizon) / static_cast<double>(cfg.flush_period);
      measured_idle_s = idle_ewma_us_ * intervals / 1e6;
    }
  }

  // Buffered demand per tenant: the single-stream predictor, attributed
  // through the LBA partition, plus each tenant's dirty-page count.
  core::BufferedPrediction buf = buffered_.predict(cache, ctx.now, frontend_->partitions());
  core::Prediction prediction;
  prediction.buffered = std::move(buf.demand);
  prediction.direct = core::DemandVector(nwb);
  tenant_sip_ = std::move(buf.stream_pages);

  // Direct demand: each tenant's estimator spread evenly over the horizon
  // (delta / Nwb per slot, remainder in slot 1 — the single-stream rule,
  // applied per stream and summed).
  for (std::uint32_t t = 0; t < n; ++t) {
    const Bytes delta = direct_[t]->estimate();
    const Bytes share = delta / nwb;
    for (std::uint32_t i = 1; i <= nwb; ++i) prediction.direct.add(i, share);
    prediction.direct.add(1, delta - share * nwb);
    tenant_predicted_[t] = buf.stream_demand[t].total() + delta;
  }

  last_decision_ = manager_.decide(prediction, ctx.c_free,
                                   core::BandwidthEstimate{ctx.write_bps, ctx.gc_bps},
                                   ctx.reclaimable_capacity, measured_idle_s);

  core::PolicyDecision d;
  d.reclaim_bytes = last_decision_.idle_reclaim_bytes;
  d.urgent_reclaim_bytes = last_decision_.reclaim_bytes;
  d.predicted_horizon_bytes = static_cast<double>(prediction.required_capacity());
  return d;
}

}  // namespace jitgc::frontend
