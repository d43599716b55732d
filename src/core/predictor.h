// Future Write Demand Predictor (paper Fig. 3): the host-side module that
// combines the buffered-write predictor (page-cache scan) with the
// direct-write predictor (CDH) and hands the JIT-GC manager one consolidated
// view per flusher tick. L_SIP is not part of that view: the host sends it
// straight from the page cache.
#pragma once

#include <vector>

#include <memory>

#include "core/buffered_predictor.h"
#include "core/cdh.h"
#include "core/demand_vector.h"
#include "core/direct_predictors.h"
#include "host/page_cache.h"

namespace jitgc::core {

/// Everything the predictor forwards to the JIT-GC manager at time t.
struct Prediction {
  DemandVector buffered;  ///< D_buf(t)
  DemandVector direct;    ///< D_dir(t)

  /// C_req(t) = sum_i (D^i_buf + D^i_dir).
  Bytes required_capacity() const { return buffered.total() + direct.total(); }

  /// Expected device writes in the very next interval (accuracy tracking).
  Bytes next_interval_demand() const {
    if (buffered.nwb() == 0) return 0;
    return buffered.at(1) + direct.at(1);
  }
};

struct PredictorConfig {
  bool relax_flush_condition = true;
  double direct_quantile = 0.8;
  CdhConfig cdh;
  /// Which direct-demand estimator to use (the paper's choice is the CDH;
  /// the alternatives exist for the ablation study).
  DirectEstimatorKind direct_estimator = DirectEstimatorKind::kCdh;
  double ewma_alpha = 0.2;
  double ewma_margin = 1.5;
  std::uint32_t sliding_max_windows = 16;
};

class FutureWriteDemandPredictor {
 public:
  explicit FutureWriteDemandPredictor(const PredictorConfig& config);

  /// Feed the direct-write bytes observed since the previous tick.
  void observe_direct_interval(Bytes bytes) { direct_->observe_interval(bytes); }

  /// Produce the full prediction at a flusher-tick instant.
  Prediction predict(const host::PageCache& cache, TimeUs now) const;

  const DirectDemandEstimator& direct_estimator() const { return *direct_; }

 private:
  PredictorConfig config_;
  BufferedWritePredictor buffered_;
  std::unique_ptr<DirectDemandEstimator> direct_;
};

}  // namespace jitgc::core
