// HostFrontend queue mechanics: LBA partitioning, arrival staging (open and
// closed loop), the admit/dispatch/retire cycle, and the rate-cap bucket.
#include "host/frontend/frontend.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/types.h"
#include "host/frontend/dwrr.h"
#include "host/frontend/tenant_config.h"
#include "workload/workload.h"

namespace jitgc::frontend {
namespace {

/// Replays a fixed op list; footprint/working set are explicit so the
/// facade-side clamping is observable.
class ScriptedWorkload final : public wl::WorkloadGenerator {
 public:
  ScriptedWorkload(std::vector<wl::AppOp> ops, Lba footprint)
      : ops_(std::move(ops)), footprint_(footprint) {}

  std::string name() const override { return "scripted"; }
  std::optional<wl::AppOp> next() override {
    if (cursor_ >= ops_.size()) return std::nullopt;
    return ops_[cursor_++];
  }
  Lba footprint_pages() const override { return footprint_; }
  Lba working_set_pages() const override { return footprint_; }

 private:
  std::vector<wl::AppOp> ops_;
  Lba footprint_;
  std::size_t cursor_ = 0;
};

wl::AppOp write_op(Lba lba, TimeUs think, std::uint32_t pages = 1) {
  wl::AppOp op;
  op.type = wl::OpType::kWrite;
  op.lba = lba;
  op.pages = pages;
  op.think_us = think;
  return op;
}

/// Factory over one scripted list shared by every tenant.
GeneratorFactory scripted_factory(std::vector<wl::AppOp> ops, Lba footprint = 4) {
  return [ops = std::move(ops), footprint](const TenantSpec&, std::uint32_t, Lba,
                                           std::uint64_t) -> std::unique_ptr<wl::WorkloadGenerator> {
    return std::make_unique<ScriptedWorkload>(ops, footprint);
  };
}

FrontendConfig two_tenants() {
  FrontendConfig config;
  config.tenants.resize(2);
  return config;
}

constexpr Bytes kPage = 4 * KiB;

TEST(HostFrontend, PartitionRemainderGoesToLastTenant) {
  FrontendConfig config;
  config.tenants.resize(3);
  HostFrontend fe(config, /*user_pages=*/10, kPage, /*seed=*/1, scripted_factory({}));

  EXPECT_EQ(fe.partition_pages(0), 3u);
  EXPECT_EQ(fe.partition_pages(1), 3u);
  EXPECT_EQ(fe.partition_pages(2), 4u);  // remainder
  EXPECT_EQ(fe.partition_offset(0), 0u);
  EXPECT_EQ(fe.partition_offset(1), 3u);
  EXPECT_EQ(fe.partition_offset(2), 6u);

  EXPECT_EQ(fe.tenant_of_lba(0), 0u);
  EXPECT_EQ(fe.tenant_of_lba(2), 0u);
  EXPECT_EQ(fe.tenant_of_lba(3), 1u);
  EXPECT_EQ(fe.tenant_of_lba(5), 1u);
  EXPECT_EQ(fe.tenant_of_lba(6), 2u);
  EXPECT_EQ(fe.tenant_of_lba(9), 2u);  // remainder pages map to the last tenant
}

TEST(HostFrontend, RemapsLbasIntoOwnPartition) {
  // Generator LBAs far beyond the partition must land inside the owner's
  // contiguous range, multi-page ops clamped at the partition end.
  const std::vector<wl::AppOp> ops = {write_op(12, 0), write_op(99, 0, /*pages=*/4)};
  HostFrontend fe(two_tenants(), /*user_pages=*/10, kPage, 1, scripted_factory(ops));

  fe.admit_arrivals(0);
  for (int i = 0; i < 4; ++i) {
    const auto d = fe.pop_dispatch(0);
    if (!d) break;
    const Lba begin = fe.partition_offset(d->tenant);
    const Lba end = begin + fe.partition_pages(d->tenant);
    EXPECT_GE(d->op.lba, begin);
    EXPECT_LT(d->op.lba, end);
    EXPECT_LE(d->op.lba + d->op.pages, end);
    EXPECT_EQ(fe.tenant_of_lba(d->op.lba), d->tenant);
  }
}

TEST(HostFrontend, OpenLoopAdmitDispatchRetireCycle) {
  const std::vector<wl::AppOp> ops = {write_op(0, 100), write_op(1, 100)};
  FrontendConfig config;
  config.tenants.resize(1);
  HostFrontend fe(config, 8, kPage, 1, scripted_factory(ops));

  // First arrival staged at its think time; nothing admitted before then.
  ASSERT_TRUE(fe.next_arrival());
  EXPECT_EQ(*fe.next_arrival(), 100u);
  fe.admit_arrivals(50);
  EXPECT_FALSE(fe.backlog());
  EXPECT_FALSE(fe.pop_dispatch(50));

  // Open loop: admitting the first op immediately stages the second.
  fe.admit_arrivals(100);
  EXPECT_TRUE(fe.backlog());
  ASSERT_TRUE(fe.next_arrival());
  EXPECT_EQ(*fe.next_arrival(), 200u);

  const auto d = fe.pop_dispatch(100);
  ASSERT_TRUE(d);
  EXPECT_EQ(d->tenant, 0u);
  EXPECT_EQ(d->enqueued_at, 100u);
  EXPECT_FALSE(fe.backlog());

  fe.note_issued(*d, /*completion=*/350);
  EXPECT_EQ(fe.outstanding(), 1u);
  ASSERT_TRUE(fe.next_completion());
  EXPECT_EQ(*fe.next_completion(), 350u);
  fe.retire_completions(349);
  EXPECT_EQ(fe.outstanding(), 1u);
  fe.retire_completions(350);
  EXPECT_EQ(fe.outstanding(), 0u);
  EXPECT_FALSE(fe.next_completion());

  // Latency was measured from arrival: 350 - 100 = 250 us.
  const TenantRunStats stats = fe.run_stats(0);
  EXPECT_EQ(stats.ops, 1u);
  EXPECT_DOUBLE_EQ(stats.max_latency_us, 250.0);
  EXPECT_EQ(stats.write_bytes, kPage);
}

TEST(HostFrontend, ClosedLoopWaitsForCompletion) {
  const std::vector<wl::AppOp> ops = {write_op(0, 100), write_op(1, 100)};
  FrontendConfig config;
  config.tenants.resize(1);
  config.tenants[0].closed_loop = true;
  HostFrontend fe(config, 8, kPage, 1, scripted_factory(ops));

  fe.admit_arrivals(100);
  const auto d = fe.pop_dispatch(100);
  ASSERT_TRUE(d);
  // Closed loop: no next arrival until the in-flight op completes.
  EXPECT_FALSE(fe.next_arrival());

  fe.note_issued(*d, 400);
  fe.retire_completions(400);
  ASSERT_TRUE(fe.next_arrival());
  EXPECT_EQ(*fe.next_arrival(), 500u);  // completion + think time
}

TEST(HostFrontend, RateCapThrottlesDispatch) {
  // 20 ops arrive at once under a tight byte rate: the bucket drains, the
  // queue becomes rate-blocked (backlogged, not ready), and
  // next_rate_eligible names a future instant where dispatch resumes.
  std::vector<wl::AppOp> ops;
  for (int i = 0; i < 20; ++i) ops.push_back(write_op(i, 0));
  FrontendConfig config;
  config.tenants.resize(1);
  config.tenants[0].rate_bps = 1e6;  // bucket = quantum (64 KiB) > 0.05 s * rate
  HostFrontend fe(config, 32, kPage, 1, scripted_factory(ops, /*footprint=*/32));

  fe.admit_arrivals(0);
  std::uint64_t dispatched = 0;
  while (fe.pop_dispatch(0)) ++dispatched;
  // The full bucket covers exactly 64 KiB / 4 KiB = 16 pages.
  EXPECT_EQ(dispatched, 16u);
  EXPECT_TRUE(fe.backlog());
  TimeUs now = 0;
  while (fe.backlog()) {
    const auto eligible = fe.next_rate_eligible(now);
    ASSERT_TRUE(eligible) << "rate-blocked backlog must name a resume time";
    ASSERT_GT(*eligible, now);
    now = *eligible;
    ASSERT_TRUE(fe.pop_dispatch(now)) << "eligible instant must unblock the head";
    ++dispatched;
  }
  EXPECT_EQ(dispatched, 20u);
  EXPECT_FALSE(fe.next_rate_eligible(now));  // empty queue: nothing rate-blocked
}

TEST(HostFrontend, OversizedOpPassesOnFullBucket) {
  // An op bigger than the whole bucket must not deadlock: it passes on a
  // full bucket and drives the tokens negative.
  const std::vector<wl::AppOp> ops = {write_op(0, 0, /*pages=*/32), write_op(1, 0)};
  FrontendConfig config;
  config.tenants.resize(1);
  config.tenants[0].rate_bps = 64.0 * KiB;  // bucket = 64 KiB; op = 128 KiB
  HostFrontend fe(config, 64, kPage, 1, scripted_factory(ops, /*footprint=*/64));

  fe.admit_arrivals(0);
  const auto big = fe.pop_dispatch(0);
  ASSERT_TRUE(big);
  EXPECT_EQ(big->op.pages, 32u);
  // The follow-up op is throttled until the debt is repaid.
  EXPECT_FALSE(fe.pop_dispatch(0));
  ASSERT_TRUE(fe.next_rate_eligible(0));
}

TEST(HostFrontend, EmptyDispatchPassKeepsDwrrAndBucketState) {
  // A dispatch pass that finds every queue empty returns at once, but must
  // leave the state the full pass leaves: DWRR's forfeit (every deficit and
  // visit flag zeroed, as pick() does with nothing backlogged) and a refill
  // of every rate-capped bucket at that instant. The bucket arithmetic is
  // floating-point, so refilling at 250 us and then 1000 us differs in the
  // last bit from one refill at 1000 us; the test asserts that it does.
  constexpr Bytes kCost = 4 * kPage;
  constexpr double kRate = 333333.0;
  const std::vector<wl::AppOp> ops = {write_op(0, 0, 4), write_op(4, 1000, 4)};
  FrontendConfig config = two_tenants();
  config.tenants[0].rate_bps = kRate;  // bucket = the 64 KiB quantum
  HostFrontend fe(config, /*user_pages=*/64, kPage, 1, scripted_factory(ops, /*footprint=*/32));
  DeficitScheduler reference({1.0, 1.0}, config.quantum_bytes);
  const std::vector<Bytes> both_heads = {kCost, kCost};
  const std::vector<std::uint8_t> both = {1, 1};

  fe.admit_arrivals(0);
  ASSERT_EQ(reference.pick(both_heads, both, both), 0);
  const auto first = fe.pop_dispatch(0);
  ASSERT_TRUE(first);
  EXPECT_EQ(first->tenant, 0u);
  ASSERT_EQ(reference.pick({0, kCost}, {0, 1}, {0, 1}), 1);
  const auto second = fe.pop_dispatch(0);
  ASSERT_TRUE(second);
  EXPECT_EQ(second->tenant, 1u);
  ASSERT_GT(fe.scheduler().deficit(1), 0.0);  // credit the empty pass must forfeit
  const double drained = 64.0 * KiB - static_cast<double>(kCost);
  EXPECT_EQ(fe.tokens(0), drained);

  // The empty pass at 250 us.
  EXPECT_FALSE(fe.backlog());
  EXPECT_FALSE(fe.pop_dispatch(250));
  ASSERT_EQ(reference.pick({0, 0}, {0, 0}, {0, 0}), -1);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(fe.scheduler().deficit(i), reference.deficit(i)) << "queue " << i;
    EXPECT_EQ(fe.scheduler().deficit(i), 0.0) << "queue " << i;
  }
  const double at_250 = std::min(64.0 * KiB, drained + kRate * (250.0 / 1e6));
  EXPECT_EQ(fe.tokens(0), at_250);

  // The next arrivals at 1000 us: the pick matches the reference scheduler
  // and the bucket holds the two-step refill, not the one-step one.
  fe.admit_arrivals(1000);
  const int expected = reference.pick(both_heads, both, both);
  const auto third = fe.pop_dispatch(1000);
  ASSERT_TRUE(third);
  EXPECT_EQ(static_cast<int>(third->tenant), expected);
  const double at_1000 = std::min(64.0 * KiB, at_250 + kRate * (750.0 / 1e6));
  ASSERT_NE(at_1000, std::min(64.0 * KiB, drained + kRate * (1000.0 / 1e6)));
  EXPECT_EQ(fe.tokens(0), expected == 0 ? at_1000 - static_cast<double>(kCost) : at_1000);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(fe.scheduler().deficit(i), reference.deficit(i)) << "queue " << i;
  }
}

TEST(HostFrontend, IntervalStatsResetCleanly) {
  const std::vector<wl::AppOp> ops = {write_op(0, 0)};
  FrontendConfig config;
  config.tenants.resize(1);
  HostFrontend fe(config, 8, kPage, 1, scripted_factory(ops));

  fe.admit_arrivals(0);
  const auto d = fe.pop_dispatch(0);
  ASSERT_TRUE(d);
  fe.note_issued(*d, 120);
  EXPECT_EQ(fe.interval_stats(0).ops, 1u);
  EXPECT_EQ(fe.interval_stats(0).queued, 1u);

  fe.reset_interval_stats();
  EXPECT_EQ(fe.interval_stats(0).ops, 0u);
  EXPECT_EQ(fe.interval_stats(0).queued, 0u);
  // Run-level totals survive the interval close.
  EXPECT_EQ(fe.run_stats(0).ops, 1u);
}

TEST(HostFrontend, NameListsTenantMixes) {
  FrontendConfig config;
  config.tenants.resize(2);
  config.tenants[0].mix = "ycsb-a";
  config.tenants[1].mix = "tpcc";
  HostFrontend fe(config, 8, kPage, 1, scripted_factory({}));
  EXPECT_EQ(fe.name(), "mt2[ycsb-a+tpcc]");
}

}  // namespace
}  // namespace jitgc::frontend
