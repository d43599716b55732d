// JIT-GC with per-tenant demand attribution.
//
// The single-stream JitPolicy sees one aggregate write-demand signal. With
// the multi-tenant front-end the LBA space is partitioned, so every dirty
// page and every direct write can be attributed to its tenant: this policy
// keeps one direct-demand estimator (CDH by default) per tenant and asks the
// single-stream buffered-write predictor for one demand vector per tenant
// partition (read from the page cache's per-partition interval histograms
// when the cache is partitioned the same way), then feeds the *sum* to the same
// JIT-GC manager the single-stream policy uses. The device-facing decision
// is therefore identical in shape — one C_req, one D_reclaim, and the host
// still sends one global SIP list — but the per-stream components are
// exposed for the tenant_interval metrics (predicted_demand_bytes,
// sip_pages), making the demand signal per stream as the paper's
// multi-tenant extension sketches.
//
// With one tenant this degenerates to exactly JitPolicy (same buffered
// predictor, same estimator, same manager arithmetic) — a property the tests
// pin down.
#pragma once

#include <memory>
#include <vector>

#include "core/bgc_policy.h"
#include "core/buffered_predictor.h"
#include "core/jit_manager.h"
#include "core/jit_policy.h"
#include "core/predictor.h"
#include "host/frontend/frontend.h"

namespace jitgc::frontend {

class MultiStreamJitPolicy final : public core::BgcPolicy {
 public:
  /// `frontend` supplies the tenant topology (count, tenant_of_lba) and must
  /// outlive the policy. The config is the single-stream JitPolicyConfig;
  /// every tenant gets its own direct estimator built from it.
  MultiStreamJitPolicy(const core::JitPolicyConfig& config, const HostFrontend* frontend);

  std::string name() const override { return "JIT-GC"; }
  core::PolicyDecision on_interval(const core::PolicyContext& ctx) override;
  bool wants_sip_filter() const override { return config_.use_sip_list; }
  std::uint32_t custom_commands_per_interval() const override {
    return config_.embedded_manager ? 1 : 3;
  }

  const core::JitGcManager& manager() const { return manager_; }
  const core::JitDecision& last_decision() const { return last_decision_; }
  /// Tenant t's share of the demand predicted at the last tick:
  /// D_buf[t].total() + D_dir[t] (valid after the first on_interval call).
  Bytes tenant_predicted_bytes(std::uint32_t tenant) const {
    return tenant_predicted_[tenant];
  }
  /// Tenant t's dirty-page count at the last tick (its SIP-list share).
  std::uint64_t tenant_sip_pages(std::uint32_t tenant) const { return tenant_sip_[tenant]; }

 private:
  core::JitPolicyConfig config_;
  const HostFrontend* frontend_;
  core::BufferedWritePredictor buffered_;
  /// One direct-demand estimator per tenant, fed from the front-end's
  /// per-tenant direct-byte attribution.
  std::vector<std::unique_ptr<core::DirectDemandEstimator>> direct_;
  core::JitGcManager manager_;
  core::JitDecision last_decision_;
  std::vector<Bytes> tenant_predicted_;
  std::vector<std::uint64_t> tenant_sip_;
  // Measured-idle EWMA state (same extension as JitPolicy).
  double idle_ewma_us_ = -1.0;
  std::uint32_t idle_intervals_seen_ = 0;
};

}  // namespace jitgc::frontend
