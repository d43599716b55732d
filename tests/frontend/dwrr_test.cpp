// DWRR scheduler properties: work conservation, weight-proportional service
// under saturation, starvation freedom for arbitrarily small weights, and
// the DRR deficit rules (forfeit on empty, keep while blocked).
#include "host/frontend/dwrr.h"

#include <cstddef>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/types.h"

namespace jitgc::frontend {
namespace {

constexpr Bytes kQuantum = 64 * KiB;
constexpr Bytes kPage = 4 * KiB;

std::vector<Bytes> costs(std::size_t n, Bytes c) { return std::vector<Bytes>(n, c); }
std::vector<std::uint8_t> all(std::size_t n, bool v) { return std::vector<std::uint8_t>(n, v); }

TEST(DeficitScheduler, WorkConservation) {
  // Whenever any queue is ready, pick() serves one — never -1.
  DeficitScheduler sched({1.0, 1.0, 1.0}, kQuantum);
  const auto cost = costs(3, kPage);
  for (std::size_t only = 0; only < 3; ++only) {
    std::vector<std::uint8_t> ready(3, 0);
    ready[only] = true;
    EXPECT_EQ(sched.pick(cost, ready, ready), static_cast<int>(only));
  }
  for (int i = 0; i < 1000; ++i) {
    EXPECT_NE(sched.pick(cost, all(3, true), all(3, true)), -1);
  }
  EXPECT_EQ(sched.pick(cost, all(3, false), all(3, false)), -1);
}

TEST(DeficitScheduler, WeightProportionalUnderSaturation) {
  // All queues permanently backlogged with equal-cost heads: service must
  // split in proportion to the weights.
  const std::vector<double> weights = {4.0, 2.0, 1.0};
  DeficitScheduler sched(weights, kQuantum);
  const auto cost = costs(3, kPage);
  const auto ready = all(3, true);

  std::vector<std::uint64_t> served(3, 0);
  constexpr int kPicks = 70000;
  for (int i = 0; i < kPicks; ++i) {
    const int winner = sched.pick(cost, ready, ready);
    ASSERT_GE(winner, 0);
    ++served[winner];
  }
  const double total_weight = 7.0;
  for (std::size_t i = 0; i < 3; ++i) {
    const double share = static_cast<double>(served[i]) / kPicks;
    EXPECT_NEAR(share, weights[i] / total_weight, 0.01)
        << "queue " << i << " served " << served[i] << "/" << kPicks;
  }
}

TEST(DeficitScheduler, StarvationFreedomWithTinyWeight) {
  // A 1e-6-weight queue still gets served: its per-round top-up is a
  // fraction of a byte, but rounds keep coming and the deficit accumulates.
  DeficitScheduler sched({1.0, 1e-6}, kQuantum);
  const auto cost = costs(2, kPage);
  const auto ready = all(2, true);

  bool tiny_served = false;
  // One full round serves queue 0 sixteen times (64 KiB / 4 KiB) and tops
  // queue 1 up by ~0.066 bytes; 4 KiB needs ~62.5k rounds = ~1M picks.
  for (int i = 0; i < 1500000 && !tiny_served; ++i) {
    tiny_served = sched.pick(cost, ready, ready) == 1;
  }
  EXPECT_TRUE(tiny_served);
}

TEST(DeficitScheduler, BulkTopUpServesOversizedHeads) {
  // A head far above quantum * weight must still be served on the first
  // pick (whole top-up rounds are granted at once), for any weight.
  DeficitScheduler solo({1e-9}, kQuantum);
  EXPECT_EQ(solo.pick({kPage}, {true}, {true}), 0);

  DeficitScheduler pair({1.0, 1.0}, kQuantum);
  const Bytes huge = 100 * kQuantum;
  std::vector<std::uint64_t> served(2, 0);
  for (int i = 0; i < 200; ++i) {
    const int winner = pair.pick(costs(2, huge), all(2, true), all(2, true));
    ASSERT_GE(winner, 0);
    ++served[winner];
  }
  // Equal weights and equal (huge) costs: service alternates evenly.
  EXPECT_NEAR(static_cast<double>(served[0]), static_cast<double>(served[1]), 1.0);
}

TEST(DeficitScheduler, EmptiedQueueForfeitsDeficit) {
  DeficitScheduler sched({1.0, 1.0}, kQuantum);
  ASSERT_EQ(sched.pick(costs(2, kPage), {true, false}, {true, false}), 0);
  EXPECT_GT(sched.deficit(0), 0.0);  // quantum minus one page

  // Queue 0 drains (not backlogged): the leftover credit is forfeited.
  ASSERT_EQ(sched.pick(costs(2, kPage), {false, true}, {false, true}), 1);
  EXPECT_EQ(sched.deficit(0), 0.0);
}

TEST(DeficitScheduler, BlockedQueueKeepsDeficit) {
  DeficitScheduler sched({1.0, 1.0}, kQuantum);
  ASSERT_EQ(sched.pick(costs(2, kPage), {true, false}, {true, false}), 0);
  const double banked = sched.deficit(0);
  ASSERT_GT(banked, 0.0);

  // Queue 0 is rate-blocked (backlogged, not ready): deficit survives.
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(sched.pick(costs(2, kPage), {false, true}, {true, true}), 1);
  }
  EXPECT_GE(sched.deficit(0), banked);
}

TEST(DeficitScheduler, WinnerKeepsTheFloor) {
  // A queue with deficit left is served again before the cursor moves on,
  // so a burst drains in one visit instead of ping-ponging.
  DeficitScheduler sched({1.0, 1.0}, kQuantum);
  const auto ready = all(2, true);
  const int first = sched.pick(costs(2, kPage), ready, ready);
  ASSERT_GE(first, 0);
  // 64 KiB quantum covers 16 pages; the winner holds the floor for all.
  for (int i = 1; i < 16; ++i) {
    EXPECT_EQ(sched.pick(costs(2, kPage), ready, ready), first) << "pick " << i;
  }
  EXPECT_NE(sched.pick(costs(2, kPage), ready, ready), first);
}

}  // namespace
}  // namespace jitgc::frontend
