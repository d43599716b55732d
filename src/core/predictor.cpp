#include "core/predictor.h"

namespace jitgc::core {
namespace {

DirectEstimatorConfig estimator_config(const PredictorConfig& config) {
  DirectEstimatorConfig e;
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

FutureWriteDemandPredictor::FutureWriteDemandPredictor(const PredictorConfig& config)
    : config_(config),
      buffered_(config.relax_flush_condition),
      direct_(make_direct_estimator(estimator_config(config))) {}

Prediction FutureWriteDemandPredictor::predict(const host::PageCache& cache, TimeUs now) const {
  Prediction out;
  out.buffered = buffered_.predict(cache, now).demand;

  // D^i_dir = delta_dir / Nwb, remainder in slot 1 (total stays exact).
  const std::uint32_t nwb = config_.cdh.intervals_per_window;
  out.direct = DemandVector(nwb);
  const Bytes delta = direct_->estimate();
  const Bytes share = delta / nwb;
  for (std::uint32_t i = 1; i <= nwb; ++i) out.direct.set(i, share);
  out.direct.add(1, delta - share * nwb);
  return out;
}

}  // namespace jitgc::core
