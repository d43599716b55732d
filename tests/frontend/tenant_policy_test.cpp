// MultiStreamJitPolicy: with one tenant it must degenerate to exactly the
// single-stream JitPolicy, and with several tenants its per-stream demand
// attribution must follow the LBA partition.
#include "host/frontend/tenant_policy.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/types.h"
#include "core/jit_policy.h"
#include "host/frontend/frontend.h"
#include "host/page_cache.h"
#include "workload/workload.h"

namespace jitgc::frontend {
namespace {

/// Inert generator: the policy tests only need the front-end's topology
/// (tenant count, partition map), not a live op stream.
class NullWorkload final : public wl::WorkloadGenerator {
 public:
  explicit NullWorkload(Lba pages) : pages_(pages) {}
  std::string name() const override { return "null"; }
  std::optional<wl::AppOp> next() override { return std::nullopt; }
  Lba footprint_pages() const override { return pages_; }
  Lba working_set_pages() const override { return pages_; }

 private:
  Lba pages_;
};

std::unique_ptr<HostFrontend> make_frontend(std::size_t tenants, Lba user_pages) {
  FrontendConfig config;
  config.tenants.resize(tenants);
  const GeneratorFactory factory =
      [](const TenantSpec&, std::uint32_t, Lba pages,
         std::uint64_t) -> std::unique_ptr<wl::WorkloadGenerator> {
    return std::make_unique<NullWorkload>(pages);
  };
  return std::make_unique<HostFrontend>(config, user_pages, 4 * KiB, /*seed=*/1, factory);
}

core::PolicyContext make_ctx(const host::PageCache& cache, TimeUs now, Bytes direct,
                             std::vector<Bytes> per_tenant_direct) {
  core::PolicyContext ctx;
  ctx.now = now;
  ctx.page_cache = &cache;
  ctx.c_free = 256 * MiB;
  ctx.reclaimable_capacity = 512 * MiB;
  ctx.interval_buffered_flush_bytes = 8 * MiB;
  ctx.interval_direct_bytes = direct;
  ctx.tenant_interval_direct_bytes = std::move(per_tenant_direct);
  ctx.interval_idle_us = seconds(2);
  ctx.write_bps = 200e6;
  ctx.gc_bps = 400e6;
  ctx.op_capacity = 512 * MiB;
  ctx.user_capacity = 4 * GiB;
  return ctx;
}

TEST(MultiStreamJitPolicy, SingleTenantMatchesJitPolicy) {
  // One tenant owns the whole LBA space: the per-stream split is the
  // identity and every decision must equal the single-stream policy's.
  const auto frontend = make_frontend(1, /*user_pages=*/1 << 20);
  const core::JitPolicyConfig config;
  core::JitPolicy single(config);
  MultiStreamJitPolicy multi(config, frontend.get());

  host::PageCache cache(host::PageCacheConfig{}, 1 << 20);
  std::uint64_t lba = 0;
  for (int tick = 1; tick <= 10; ++tick) {
    const TimeUs now = seconds(5 * tick);
    // Grow a dirty set with mixed ages: fresh pages plus re-dirtied ones.
    for (int i = 0; i < 300 * tick; ++i) cache.write(lba++ % 4096, now - seconds(tick % 7));
    const Bytes direct = static_cast<Bytes>(tick) * 3 * MiB;

    const auto a = single.on_interval(make_ctx(cache, now, direct, {direct}));
    const auto b = multi.on_interval(make_ctx(cache, now, direct, {direct}));

    EXPECT_EQ(a.reclaim_bytes, b.reclaim_bytes) << "tick " << tick;
    EXPECT_EQ(a.urgent_reclaim_bytes, b.urgent_reclaim_bytes) << "tick " << tick;
    EXPECT_DOUBLE_EQ(a.predicted_horizon_bytes, b.predicted_horizon_bytes) << "tick " << tick;

    // The per-tenant decomposition is the whole signal.
    EXPECT_EQ(multi.tenant_sip_pages(0), cache.dirty_pages());
  }
  EXPECT_EQ(single.name(), multi.name());
  EXPECT_EQ(single.wants_sip_filter(), multi.wants_sip_filter());
  EXPECT_EQ(single.custom_commands_per_interval(), multi.custom_commands_per_interval());
}

TEST(MultiStreamJitPolicy, AttributesDirtyPagesByPartition) {
  // 4 tenants over 4096 pages: dirty pages land in known partitions, so the
  // per-tenant SIP counts are exact.
  const auto frontend = make_frontend(4, /*user_pages=*/4096);
  MultiStreamJitPolicy policy(core::JitPolicyConfig{}, frontend.get());

  host::PageCache cache(host::PageCacheConfig{}, 4096);
  cache.set_partitions(frontend->partitions());
  const TimeUs now = seconds(5);
  // 10 pages for tenant 0, 20 for tenant 2, none for tenants 1 and 3.
  for (Lba i = 0; i < 10; ++i) cache.write(i, now);
  for (Lba i = 0; i < 20; ++i) cache.write(2048 + i, now);

  (void)policy.on_interval(make_ctx(cache, now, 0, {0, 0, 0, 0}));
  EXPECT_EQ(policy.tenant_sip_pages(0), 10u);
  EXPECT_EQ(policy.tenant_sip_pages(1), 0u);
  EXPECT_EQ(policy.tenant_sip_pages(2), 20u);
  EXPECT_EQ(policy.tenant_sip_pages(3), 0u);
}

TEST(MultiStreamJitPolicy, PerTenantDemandFollowsTraffic) {
  const auto frontend = make_frontend(2, /*user_pages=*/4096);
  MultiStreamJitPolicy policy(core::JitPolicyConfig{}, frontend.get());

  host::PageCache cache(host::PageCacheConfig{}, 4096);
  cache.set_partitions(frontend->partitions());
  // All traffic belongs to tenant 0: dirty pages in its partition, all the
  // direct bytes attributed to it.
  for (int tick = 1; tick <= 5; ++tick) {
    const TimeUs now = seconds(5 * tick);
    for (Lba i = 0; i < 50; ++i) cache.write(i + 50 * tick, now);
    (void)policy.on_interval(make_ctx(cache, now, 16 * MiB, {16 * MiB, 0}));
  }
  EXPECT_GT(policy.tenant_predicted_bytes(0), 0u);
  EXPECT_EQ(policy.tenant_predicted_bytes(1), 0u);
  EXPECT_GT(policy.tenant_sip_pages(0), 0u);
  EXPECT_EQ(policy.tenant_sip_pages(1), 0u);
}

TEST(MultiStreamJitPolicy, RejectsMissingAttribution) {
  // The simulator must hand one direct-byte entry per tenant; anything else
  // is a wiring bug the policy refuses to guess around.
  const auto frontend = make_frontend(2, 4096);
  MultiStreamJitPolicy policy(core::JitPolicyConfig{}, frontend.get());
  host::PageCache cache(host::PageCacheConfig{}, 4096);
  EXPECT_THROW((void)policy.on_interval(make_ctx(cache, seconds(5), 0, {0})),
               std::logic_error);
}

/// The per-tenant histogram path against the per-page scan path: two caches
/// fed identically, one partitioned like the front-end (the policy reads its
/// per-tenant interval histograms) and one not (the policy must attribute
/// every page by scan). Covers an uneven last partition, both flush models,
/// and tick-aligned and off-tick calls; every per-tenant figure and the
/// decision must agree.
TEST(MultiStreamJitPolicy, HistogramPathMatchesScanPath) {
  host::PageCacheConfig cache_config;
  cache_config.capacity = 8 * MiB;  // tau_flush = ~204 pages: strict mode engages
  for (const std::uint32_t tenants : {2u, 3u}) {
    // 2 tenants: 500 + 501 pages; 3 tenants: 333 + 333 + 335.
    const Lba user_pages = 1001;
    const auto frontend = make_frontend(tenants, user_pages);
    for (const bool relax : {true, false}) {
      // Two random write sequences per flush model.
      for (const std::uint64_t round : {0, 1}) {
        SCOPED_TRACE(::testing::Message() << tenants << " tenants, relax=" << relax
                                          << ", round=" << round);
        core::JitPolicyConfig config;
        config.predictor.relax_flush_condition = relax;
        MultiStreamJitPolicy by_histogram(config, frontend.get());
        MultiStreamJitPolicy by_scan(config, frontend.get());

        host::PageCache partitioned(cache_config, user_pages);
        partitioned.set_partitions(frontend->partitions());
        host::PageCache flat(cache_config, user_pages);
        ASSERT_EQ(partitioned.partitions(), frontend->partitions());
        ASSERT_NE(flat.partitions(), frontend->partitions());

        Rng rng(tenants * 4 + (relax ? 2 : 0) + round);
        for (int tick = 1; tick <= 24; ++tick) {
          const TimeUs tick_at = seconds(5 * tick);
          // Off-tick calls (every third) take the scan path in both.
          const TimeUs now = tick % 3 == 0 ? tick_at + seconds(1) + 300'000 : tick_at;
          const auto writes = rng.uniform(tick % 5 == 0 ? 400 : 120);
          for (std::uint64_t i = 0; i < writes; ++i) {
            // Skewed toward the last tenant, some backdated.
            const Lba lba = rng.chance(0.4) ? user_pages - 1 - rng.uniform(200)
                                            : rng.uniform(user_pages);
            const TimeUs at = now - static_cast<TimeUs>(rng.uniform(seconds(8)));
            partitioned.write(lba, at);
            flat.write(lba, at);
          }
          ASSERT_EQ(partitioned.flusher_tick(now), flat.flusher_tick(now));

          std::vector<Bytes> per_tenant(tenants);
          for (Bytes& b : per_tenant) b = rng.uniform(4) * MiB;
          Bytes direct = 0;
          for (const Bytes b : per_tenant) direct += b;
          const auto a = by_histogram.on_interval(make_ctx(partitioned, now, direct, per_tenant));
          const auto b = by_scan.on_interval(make_ctx(flat, now, direct, per_tenant));

          EXPECT_EQ(a.reclaim_bytes, b.reclaim_bytes) << "tick " << tick;
          EXPECT_EQ(a.urgent_reclaim_bytes, b.urgent_reclaim_bytes) << "tick " << tick;
          EXPECT_DOUBLE_EQ(a.predicted_horizon_bytes, b.predicted_horizon_bytes)
              << "tick " << tick;
          std::uint64_t sip_pages = 0;
          for (std::uint32_t t = 0; t < tenants; ++t) {
            EXPECT_EQ(by_histogram.tenant_predicted_bytes(t), by_scan.tenant_predicted_bytes(t))
                << "tick " << tick << " tenant " << t;
            EXPECT_EQ(by_histogram.tenant_sip_pages(t), by_scan.tenant_sip_pages(t))
                << "tick " << tick << " tenant " << t;
            sip_pages += by_histogram.tenant_sip_pages(t);
          }
          EXPECT_EQ(sip_pages, partitioned.dirty_pages()) << "tick " << tick;
        }
      }
    }
  }
}

}  // namespace
}  // namespace jitgc::frontend
