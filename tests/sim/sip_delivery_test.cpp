// End-to-end delivery of L_SIP (paper §3.2.1, Fig. 3): at every flusher tick
// the host reads the SIP list off its page cache and ships it to the
// extended collector. Whatever the encoding, the device's SIP index must
// then hold exactly the cache's dirty set — for single-stream and
// multi-tenant JIT-GC alike, across sudden power-offs — and stay empty for
// policies that send no list.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/cli_options.h"
#include "sim/experiment.h"
#include "sim/metrics_sink.h"
#include "sim/simulator.h"
#include "workload/specs.h"
#include "workload/synthetic.h"

namespace jitgc::sim {
namespace {

SimConfig small_config() {
  SimConfig sim = default_sim_config(/*seed=*/1);
  // 128 MiB physical for test speed.
  sim.ssd.ftl.geometry.channels = 2;
  sim.ssd.ftl.geometry.dies_per_channel = 2;
  sim.ssd.ftl.geometry.planes_per_die = 1;
  sim.ssd.ftl.geometry.blocks_per_plane = 64;
  sim.ssd.ftl.geometry.pages_per_block = 128;
  sim.cache.capacity = 64 * MiB;
  sim.duration = seconds(40);
  return sim;
}

std::vector<Lba> dirty_set(const host::PageCache& cache) {
  std::vector<Lba> lbas;
  cache.for_each_dirty([&](const host::DirtyPage& dp) { lbas.push_back(dp.lba); });
  std::sort(lbas.begin(), lbas.end());
  return lbas;
}

struct SipAudit {
  int ticks = 0;
  int non_empty_ticks = 0;  ///< ticks at which the cache held dirty pages
  int recoveries = 0;
  int ticks_checked_after_spo = 0;
};

/// Compares the device's SIP index with the page cache at every interval
/// record, i.e. right after the tick that delivered the list.
class SipAuditSink final : public MetricsSink {
 public:
  SipAuditSink(const Simulator& sim, bool expect_delivery)
      : sim_(sim), expect_delivery_(expect_delivery) {}

  void on_interval(const IntervalRecord& record) override {
    ++audit.ticks;
    if (sim_.page_cache().dirty_pages() > 0) ++audit.non_empty_ticks;
    const std::vector<Lba> device = sim_.ssd().ftl().sip_index().sorted();
    if (expect_delivery_) {
      EXPECT_EQ(device, dirty_set(sim_.page_cache())) << "interval " << record.interval;
      if (after_spo_) ++audit.ticks_checked_after_spo;
    } else {
      EXPECT_TRUE(device.empty()) << "interval " << record.interval;
    }
    after_spo_ = false;
  }
  void on_recovery(const RecoveryRecord&) override {
    ++audit.recoveries;
    after_spo_ = true;
  }
  void on_run_end(const SimReport&) override {}

  SipAudit audit;

 private:
  const Simulator& sim_;
  bool expect_delivery_;
  bool after_spo_ = false;
};

SipAudit audit_single_ssd(const SimConfig& config, PolicyKind kind,
                          const PolicyOverrides& overrides, bool expect_delivery) {
  Simulator sim(config);
  SipAuditSink sink(sim, expect_delivery);
  sim.set_metrics_sink(&sink);
  wl::SyntheticWorkload gen(wl::ycsb_spec(), sim.ssd().ftl().user_pages(), config.seed);
  const auto policy = make_policy(kind, config, 1.0, overrides);
  EXPECT_EQ(policy->wants_sip_filter(), expect_delivery);
  (void)sim.run(gen, *policy);
  return sink.audit;
}

TEST(SipDelivery, JitDeviceListMatchesCacheAtEveryTick) {
  const SipAudit a = audit_single_ssd(small_config(), PolicyKind::kJit, {}, true);
  EXPECT_EQ(a.ticks, 8);
  EXPECT_GT(a.non_empty_ticks, 0);  // the comparison is not vacuous
}

TEST(SipDelivery, TwoTenantJitDeviceListMatchesCacheAtEveryTick) {
  CliOptions opt;
  opt.tenants = 2;
  opt.tenant_mix = {"ycsb", "ycsb"};
  opt.tenant_arrival = "closed";
  SimConfig config = small_config();
  config.frontend = frontend_config_from_cli(opt);

  Simulator sim(config);
  SipAuditSink sink(sim, /*expect_delivery=*/true);
  sim.set_metrics_sink(&sink);
  auto fe = make_frontend_from_cli(opt, sim.ssd().ftl().user_pages(),
                                   config.ssd.ftl.geometry.page_size);
  const auto policy = make_policy(PolicyKind::kJit, config, 1.0, PolicyOverrides{}, fe.get());
  (void)sim.run(*fe, *policy);
  EXPECT_EQ(sink.audit.ticks, 8);
  EXPECT_GT(sink.audit.non_empty_ticks, 0);
}

TEST(SipDelivery, NoSipAndLazyBgcSendNothing) {
  PolicyOverrides no_sip;
  no_sip.use_sip_list = false;
  const SipAudit jit = audit_single_ssd(small_config(), PolicyKind::kJit, no_sip, false);
  const SipAudit lazy = audit_single_ssd(small_config(), PolicyKind::kLazy, {}, false);
  EXPECT_EQ(jit.ticks, 8);
  EXPECT_EQ(lazy.ticks, 8);
  // The cache held dirty pages the device was never told about.
  EXPECT_GT(jit.non_empty_ticks, 0);
  EXPECT_GT(lazy.non_empty_ticks, 0);
}

/// A power cut empties both sides (the cache's dirty pages are lost, the
/// device's SIP index is volatile); the first tick after recovery must bring
/// them back in step from the fresh cache's checkpoint.
TEST(SipDelivery, ReconvergesAtFirstTickAfterSpo) {
  SimConfig config = small_config();
  config.spo_at_s = 12.0;
  config.spo_every_s = 10.0;  // cuts at 12, 22, 32
  const SipAudit a = audit_single_ssd(config, PolicyKind::kJit, {}, true);
  EXPECT_EQ(a.recoveries, 3);
  EXPECT_EQ(a.ticks_checked_after_spo, 3);
  EXPECT_GT(a.non_empty_ticks, 0);
}

}  // namespace
}  // namespace jitgc::sim
