#include <gtest/gtest.h>

#include "core/adaptive_policy.h"
#include "core/fixed_reserve_policy.h"
#include "core/jit_policy.h"

namespace jitgc::core {
namespace {

constexpr Bytes kOp = 64 * MiB;

PolicyContext base_ctx() {
  PolicyContext ctx;
  ctx.now = seconds(5);
  ctx.c_free = 10 * MiB;
  ctx.write_bps = 40e6;
  ctx.gc_bps = 10e6;
  ctx.op_capacity = kOp;
  ctx.user_capacity = 1 * GiB;
  return ctx;
}

constexpr Lba kUniverse = 1 << 14;

host::PageCacheConfig cache_config() {
  host::PageCacheConfig cfg;
  cfg.page_size = 4 * KiB;
  cfg.capacity = 64 * MiB;
  cfg.tau_expire = seconds(30);
  cfg.flush_period = seconds(5);
  return cfg;
}

CdhConfig small_cdh() {
  CdhConfig cdh;
  cdh.bin_width = 1 * MiB;
  cdh.num_bins = 128;
  cdh.intervals_per_window = 6;
  return cdh;
}

TEST(FixedReservePolicy, ReclaimsShortfallOnly) {
  FixedReservePolicy lazy = make_lazy_bgc();
  PolicyContext ctx = base_ctx();

  ctx.c_free = 10 * MiB;  // reserve = 32 MiB
  EXPECT_EQ(lazy.on_interval(ctx).reclaim_bytes, 22 * MiB);

  ctx.c_free = 40 * MiB;  // above reserve
  EXPECT_EQ(lazy.on_interval(ctx).reclaim_bytes, 0u);
}

TEST(FixedReservePolicy, NamesAndMultiples) {
  EXPECT_EQ(make_lazy_bgc().name(), "L-BGC");
  EXPECT_EQ(make_aggressive_bgc().name(), "A-BGC");
  EXPECT_DOUBLE_EQ(make_lazy_bgc().reserve_op_multiple(), 0.5);
  EXPECT_DOUBLE_EQ(make_aggressive_bgc().reserve_op_multiple(), 1.5);
  EXPECT_THROW(FixedReservePolicy(-1.0), std::logic_error);
}

TEST(FixedReservePolicy, AggressiveReservesMoreThanLazy) {
  FixedReservePolicy lazy = make_lazy_bgc();
  FixedReservePolicy agg = make_aggressive_bgc();
  PolicyContext ctx = base_ctx();
  ctx.c_free = 0;
  EXPECT_LT(lazy.on_interval(ctx).reclaim_bytes, agg.on_interval(ctx).reclaim_bytes);
  EXPECT_EQ(agg.on_interval(ctx).reclaim_bytes, static_cast<Bytes>(1.5 * kOp));
}

TEST(FixedReservePolicy, DoesNotPredictOrFilter) {
  FixedReservePolicy lazy = make_lazy_bgc();
  PolicyContext ctx = base_ctx();
  const PolicyDecision d = lazy.on_interval(ctx);
  EXPECT_LT(d.predicted_horizon_bytes, 0.0);
  EXPECT_FALSE(lazy.wants_sip_filter());
  EXPECT_EQ(lazy.custom_commands_per_interval(), 0u);
}

TEST(AdaptivePolicy, LearnsFromAllTrafficTypes) {
  AdaptivePolicyConfig cfg;
  cfg.cdh = small_cdh();
  cfg.horizon = seconds(30);
  AdaptivePolicy adp(cfg);

  PolicyContext ctx = base_ctx();
  ctx.c_free = 0;
  ctx.interval_buffered_flush_bytes = 3 * MiB;
  ctx.interval_direct_bytes = 2 * MiB;

  // Feed a steady 5 MiB/interval for several horizons.
  PolicyDecision last;
  for (int i = 0; i < 24; ++i) last = adp.on_interval(ctx);
  // With zero free space and a learned 30 MiB/window demand, ADP-GC must
  // schedule BGC.
  EXPECT_GT(last.reclaim_bytes, 0u);
  EXPECT_GT(last.predicted_horizon_bytes, 0.0);
  EXPECT_FALSE(adp.wants_sip_filter());
}

TEST(AdaptivePolicy, NoDemandNoBgc) {
  AdaptivePolicyConfig cfg;
  cfg.cdh = small_cdh();
  cfg.horizon = seconds(30);
  AdaptivePolicy adp(cfg);
  PolicyContext ctx = base_ctx();
  ctx.c_free = 0;
  for (int i = 0; i < 24; ++i) {
    EXPECT_EQ(adp.on_interval(ctx).reclaim_bytes, 0u);  // no traffic observed
  }
}

TEST(JitPolicy, RequiresPageCache) {
  JitPolicyConfig cfg;
  cfg.predictor.cdh = small_cdh();
  cfg.horizon = seconds(30);
  JitPolicy jit(cfg);
  PolicyContext ctx = base_ctx();
  ctx.page_cache = nullptr;
  EXPECT_THROW(jit.on_interval(ctx), std::logic_error);
}

/// JIT-GC asks for the SIP filter, so the host sends L_SIP after every tick:
/// the page cache's dirty set, which the policy reads but leaves pending.
TEST(JitPolicy, EmitsSipListFromDirtyPages) {
  JitPolicyConfig cfg;
  cfg.predictor.cdh = small_cdh();
  cfg.horizon = seconds(30);
  JitPolicy jit(cfg);

  host::PageCache cache(cache_config(), kUniverse);
  cache.write(11, seconds(2));
  cache.write(22, seconds(3));

  PolicyContext ctx = base_ctx();
  ctx.page_cache = &cache;
  ctx.c_free = 1 * GiB;  // plenty free: no BGC, but SIP still flows

  const PolicyDecision d = jit.on_interval(ctx);
  EXPECT_EQ(cache.pending_sip_delta().added, (std::vector<Lba>{11, 22}));
  EXPECT_EQ(d.reclaim_bytes, 0u);
  EXPECT_TRUE(jit.wants_sip_filter());
  EXPECT_GT(jit.custom_commands_per_interval(), 0u);
}

TEST(JitPolicy, SipListCanBeDisabled) {
  JitPolicyConfig cfg;
  cfg.predictor.cdh = small_cdh();
  cfg.horizon = seconds(30);
  cfg.use_sip_list = false;
  JitPolicy jit(cfg);

  host::PageCache cache(cache_config(), kUniverse);
  cache.write(11, seconds(2));

  PolicyContext ctx = base_ctx();
  ctx.page_cache = &cache;
  (void)jit.on_interval(ctx);
  EXPECT_FALSE(jit.wants_sip_filter());
}

TEST(JitPolicy, InvokesBgcWhenCacheForecastsBurst) {
  JitPolicyConfig cfg;
  cfg.predictor.cdh = small_cdh();
  cfg.horizon = seconds(30);
  JitPolicy jit(cfg);

  host::PageCache cache(cache_config(), kUniverse);
  // 48 MiB of dirty data written just now: it will all flush within the
  // horizon, and free space (10 MiB) cannot absorb it.
  for (Lba lba = 0; lba < 48 * 256; ++lba) cache.write(lba, seconds(4));

  PolicyContext ctx = base_ctx();
  ctx.page_cache = &cache;
  ctx.c_free = 10 * MiB;
  // Slow GC relative to the deadline forces immediate invocation:
  // T_gc = (48 MiB - 10 MiB) / 1.2 MB/s = 33.2 s > T_idle = 28.7 s.
  ctx.gc_bps = 1.2e6;

  const PolicyDecision d = jit.on_interval(ctx);
  EXPECT_GT(d.reclaim_bytes, 0u);
  EXPECT_TRUE(jit.last_decision().invoke_bgc);
  EXPECT_EQ(jit.last_decision().c_req, 48 * MiB);
}

TEST(JitPolicy, EmbeddedManagerExchangesFewerCommands) {
  JitPolicyConfig host_side;
  host_side.predictor.cdh = small_cdh();
  JitPolicyConfig embedded = host_side;
  embedded.embedded_manager = true;

  EXPECT_EQ(JitPolicy(host_side).custom_commands_per_interval(), 3u);  // Fig. 3(b)
  EXPECT_EQ(JitPolicy(embedded).custom_commands_per_interval(), 1u);   // Fig. 3(a)
}

TEST(JitPolicy, MeasuredIdleMakesUrgentPathFireEarlier) {
  // Same demand/free situation; the analytic T_idle (nearly the whole
  // horizon) defers, while a measured idle estimate of ~zero must invoke.
  // The default one-interval warm-up discards the first observation, so the
  // lambda feeds two intervals and returns the second decision.
  const auto decide = [](bool measured, TimeUs observed_idle_us) {
    JitPolicyConfig cfg;
    cfg.predictor.cdh = small_cdh();
    cfg.horizon = seconds(30);
    cfg.use_measured_idle = measured;
    cfg.idle_ewma_alpha = 1.0;  // adopt the observation immediately
    JitPolicy jit(cfg);

    host::PageCache cache(cache_config(), kUniverse);
    for (Lba lba = 0; lba < 24 * 256; ++lba) cache.write(lba, seconds(4));  // 24 MiB dirty

    PolicyContext ctx = base_ctx();
    ctx.page_cache = &cache;
    ctx.c_free = 4 * MiB;
    ctx.interval_idle_us = observed_idle_us;
    jit.on_interval(ctx);  // warm-up interval: observation discarded
    const PolicyDecision d = jit.on_interval(ctx);
    return d.urgent_reclaim_bytes;
  };

  // Analytic: T_idle ~ 29.4 s >> T_gc ~ 2 s -> no urgent reclaim.
  EXPECT_EQ(decide(false, 0), 0u);
  // Measured zero idle: T_idle = 0 < T_gc -> urgent reclaim fires.
  EXPECT_GT(decide(true, 0), 0u);
  // Measured ample idle: behaves like the analytic case.
  EXPECT_EQ(decide(true, seconds(5)), 0u);
}

TEST(JitPolicy, MeasuredIdleWarmupUsesAnalyticFallback) {
  // idle_warmup_intervals observations are discarded before the EWMA seeds;
  // until then decisions must match the analytic path even when the device
  // reports zero idle (the signal that later fires the urgent path).
  JitPolicyConfig cfg;
  cfg.predictor.cdh = small_cdh();
  cfg.horizon = seconds(30);
  cfg.use_measured_idle = true;
  cfg.idle_ewma_alpha = 1.0;
  cfg.idle_warmup_intervals = 2;
  JitPolicy jit(cfg);

  host::PageCache cache(cache_config(), kUniverse);
  for (Lba lba = 0; lba < 24 * 256; ++lba) cache.write(lba, seconds(4));

  PolicyContext ctx = base_ctx();
  ctx.page_cache = &cache;
  ctx.c_free = 4 * MiB;
  ctx.interval_idle_us = 0;  // "no idle at all" — would fire if believed

  EXPECT_EQ(jit.on_interval(ctx).urgent_reclaim_bytes, 0u);  // warm-up 1
  EXPECT_EQ(jit.on_interval(ctx).urgent_reclaim_bytes, 0u);  // warm-up 2
  EXPECT_GT(jit.on_interval(ctx).urgent_reclaim_bytes, 0u);  // EWMA live
}

}  // namespace
}  // namespace jitgc::core
