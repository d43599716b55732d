// Property tests for the incremental victim-selection index: under
// randomized write/trim/GC/SIP interleavings, every indexed selection must
// match the reference linear scan bit-for-bit (same block, same filtered
// flag), and the candidate-visit counter must stay bounded — no
// O(num_blocks) scans in the hot path. The bitset buckets are also checked
// directly against a std::set reference across 64-bit word boundaries.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "ftl/ftl.h"

namespace jitgc::ftl {
namespace {

FtlConfig index_config(VictimPolicyKind kind, bool sip_filter, std::uint32_t blocks_per_plane) {
  FtlConfig cfg;
  cfg.geometry = nand::Geometry{.channels = 1,
                                .dies_per_channel = 1,
                                .planes_per_die = 1,
                                .blocks_per_plane = blocks_per_plane,
                                .pages_per_block = 8,
                                .page_size = 4 * KiB};
  cfg.timing = nand::timing_20nm_mlc();
  cfg.op_ratio = 0.25;
  cfg.min_free_blocks = 2;
  cfg.victim_policy = kind;
  cfg.enable_sip_filter = sip_filter;
  cfg.verify_victim_selection = true;  // every internal selection self-checks
  return cfg;
}

std::vector<Lba> random_sip(Rng& rng, Lba user_pages) {
  std::vector<Lba> lbas;
  const std::uint64_t n = rng.uniform(user_pages / 2);
  lbas.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) lbas.push_back(rng.uniform(user_pages));
  return lbas;
}

using PolicyCase = std::tuple<VictimPolicyKind, bool>;

class VictimIndexPropertyTest : public ::testing::TestWithParam<PolicyCase> {};

/// Drives one FTL through a randomized interleaving, comparing the indexed
/// selection with the reference scan every 10 steps.
void expect_index_matches_reference(VictimPolicyKind kind, bool sip_filter,
                                    std::uint32_t blocks_per_plane) {
  Ftl ftl(index_config(kind, sip_filter, blocks_per_plane));
  Rng rng(0xF00D ^ (static_cast<std::uint64_t>(kind) << 8) ^ (sip_filter ? 1 : 0));
  const Lba user_pages = ftl.user_pages();

  // Age the device into steady state so GC has real candidates.
  for (Lba lba = 0; lba < user_pages; ++lba) ftl.write(lba);

  for (int step = 0; step < 2000; ++step) {
    const std::uint64_t dice = rng.uniform(100);
    if (dice < 70) {
      ftl.write(rng.uniform(user_pages));
    } else if (dice < 80) {
      ftl.trim(rng.uniform(user_pages));
    } else if (dice < 90) {
      ftl.background_collect_step(1 + static_cast<std::uint32_t>(rng.uniform(8)));
    } else if (dice < 95 && sip_filter) {
      ftl.set_sip_list(random_sip(rng, user_pages));
    } else {
      ftl.background_reclaim(rng.uniform(16));
    }

    if (step % 10 == 0) {
      const auto indexed = ftl.select_victim_indexed();
      const auto reference = ftl.select_victim_reference();
      ASSERT_EQ(indexed.block, reference.block) << "step " << step;
      ASSERT_EQ(indexed.sip_filtered, reference.sip_filtered) << "step " << step;
    }
  }
}

TEST_P(VictimIndexPropertyTest, IndexedSelectionMatchesReferenceScan) {
  const auto [kind, sip_filter] = GetParam();
  expect_index_matches_reference(kind, sip_filter, 32);  // one bitset word
}

TEST_P(VictimIndexPropertyTest, MatchesReferenceAcrossWordBoundaries) {
  // 131 blocks: three bitset words, the last one partial.
  const auto [kind, sip_filter] = GetParam();
  expect_index_matches_reference(kind, sip_filter, 131);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, VictimIndexPropertyTest,
    ::testing::Combine(::testing::Values(VictimPolicyKind::kGreedy, VictimPolicyKind::kCostBenefit,
                                         VictimPolicyKind::kFifo, VictimPolicyKind::kRandom,
                                         VictimPolicyKind::kSampledGreedy),
                       ::testing::Bool()));

/// Average candidates visited per selection for one aged device.
double visits_per_selection(VictimPolicyKind kind, std::uint32_t blocks_per_plane) {
  Ftl ftl(index_config(kind, /*sip_filter=*/true, blocks_per_plane));
  Rng rng(0xBEEF);
  const Lba user_pages = ftl.user_pages();
  for (Lba lba = 0; lba < user_pages; ++lba) ftl.write(lba);
  for (int i = 0; i < 4000; ++i) ftl.write(rng.uniform(user_pages));
  // GC ran plenty during the overwrites; selections were counted throughout.
  EXPECT_GT(ftl.stats().victim_selections, 50u);
  return static_cast<double>(ftl.stats().victim_candidates_visited) /
         static_cast<double>(ftl.stats().victim_selections);
}

TEST(VictimIndexVisits, StayBoundedAndDoNotScaleWithBlockCount) {
  // Greedy: first id in the lowest non-empty bucket, twice (raw + adjusted),
  // plus at most a handful of excluded-block skips.
  const double greedy_small = visits_per_selection(VictimPolicyKind::kGreedy, 64);
  const double greedy_large = visits_per_selection(VictimPolicyKind::kGreedy, 256);
  EXPECT_LE(greedy_small, 16.0);
  EXPECT_LE(greedy_large, 16.0);  // 4x the blocks, same bound: no O(N) scan

  // Cost-benefit: one representative per bucket, <= 2 * (ppb + 1) visits
  // per selection (+ skips) regardless of block count.
  const double cb_small = visits_per_selection(VictimPolicyKind::kCostBenefit, 64);
  const double cb_large = visits_per_selection(VictimPolicyKind::kCostBenefit, 256);
  EXPECT_LE(cb_small, 2.0 * (8 + 1) + 8);
  EXPECT_LE(cb_large, 2.0 * (8 + 1) + 8);

  // FIFO: head of the fill-order set.
  EXPECT_LE(visits_per_selection(VictimPolicyKind::kFifo, 256), 8.0);
}

/// The wear-level tracker finds the same coldest source the scan would;
/// exercised with verification on, so any divergence aborts.
TEST(VictimIndexWearLevel, TrackerMatchesReferenceScan) {
  FtlConfig cfg = index_config(VictimPolicyKind::kGreedy, false, 32);
  cfg.enable_static_wear_leveling = true;
  cfg.wl_spread_threshold = 2;
  Ftl ftl(cfg);
  Rng rng(0xC01D);
  const Lba user_pages = ftl.user_pages();
  for (Lba lba = 0; lba < user_pages; ++lba) ftl.write(lba);
  // Skewed overwrites wear some blocks while cold data sits still.
  for (int i = 0; i < 20000; ++i) ftl.write(rng.uniform(user_pages / 4));
  EXPECT_GT(ftl.stats().wear_level_moves, 0u);
}

/// First non-excluded member of `ref` in ascending order, with the number of
/// members looked at: what a bucket walk over a std::set<uint32_t> returned.
VictimIndex::Selection reference_first(const std::set<std::uint32_t>& ref,
                                       const VictimIndex::Excluded& excluded) {
  VictimIndex::Selection sel;
  for (const std::uint32_t id : ref) {
    ++sel.visited;
    if (id == excluded[0] || id == excluded[1] || id == excluded[2]) continue;
    sel.block = id;
    break;
  }
  return sel;
}

TEST(IdBucketsTest, MatchesStdSetsAcrossWordBoundaries) {
  constexpr std::uint32_t kIds = 131;  // not a multiple of 64
  constexpr std::uint32_t kBuckets = 3;
  IdBuckets buckets(kBuckets, kIds);
  std::vector<std::set<std::uint32_t>> ref(kBuckets);
  Rng rng(0xB175);
  // Word edges and the last id, excluded or not.
  const std::vector<VictimIndex::Excluded> exclusions = {
      {VictimIndex::kNoBlock, VictimIndex::kNoBlock, VictimIndex::kNoBlock},
      {0, 63, 64},
      {63, 64, 127},
      {128, 129, kIds - 1},
      {0, 64, kIds - 1},
  };
  const std::vector<std::uint32_t> edges = {0, 63, 64, 127, 128, kIds - 1};

  const auto expect_same = [&](std::uint32_t v, int step) {
    ASSERT_EQ(buckets.size(v), ref[v].size()) << "step " << step;
    std::vector<std::uint32_t> order;
    EXPECT_EQ(buckets.walk(v,
                           [&](std::uint32_t id) {
                             order.push_back(id);
                             return false;
                           }),
              IdBuckets::kNone);
    ASSERT_EQ(order, std::vector<std::uint32_t>(ref[v].begin(), ref[v].end())) << "step " << step;
    for (const VictimIndex::Excluded& excl : exclusions) {
      const VictimIndex::Selection want = reference_first(ref[v], excl);
      VictimIndex::Selection got;
      got.block = buckets.walk(v, [&](std::uint32_t id) {
        ++got.visited;
        return id != excl[0] && id != excl[1] && id != excl[2];
      });
      ASSERT_EQ(got.block, want.block) << "step " << step;
      ASSERT_EQ(got.visited, want.visited) << "step " << step;
    }
  };

  for (int step = 0; step < 5000; ++step) {
    // Half the operations hit a word-edge id, so the edges churn often.
    const auto v = static_cast<std::uint32_t>(rng.uniform(kBuckets));
    const std::uint32_t id = rng.uniform(2) == 0
                                 ? edges[rng.uniform(edges.size())]
                                 : static_cast<std::uint32_t>(rng.uniform(kIds));
    if (rng.uniform(2) == 0) {
      buckets.insert(v, id);
      ref[v].insert(id);
    } else {
      buckets.erase(v, id);
      ref[v].erase(id);
    }
    // Neighbouring buckets share no words: check them all.
    for (std::uint32_t u = 0; u < kBuckets; ++u) ASSERT_NO_FATAL_FAILURE(expect_same(u, step));
  }
  // Every edge id in every bucket.
  for (std::uint32_t u = 0; u < kBuckets; ++u) {
    for (const std::uint32_t id : edges) {
      buckets.insert(u, id);
      ref[u].insert(id);
    }
    ASSERT_NO_FATAL_FAILURE(expect_same(u, -1));
  }
}

TEST(VictimIndexUpdate, RejectedStateLeavesIndexUntouched) {
  constexpr std::uint32_t kPpb = 8;
  VictimIndex index(131, kPpb, VictimIndex::Needs{});
  const auto greedy = make_victim_policy(VictimPolicyKind::kGreedy);
  const VictimIndex::Excluded none{VictimIndex::kNoBlock, VictimIndex::kNoBlock,
                                   VictimIndex::kNoBlock};
  const auto select = [&] {
    return index.select(*greedy, VictimPolicyKind::kGreedy, 0, /*adjusted=*/false, none).block;
  };

  VictimIndex::BlockState good;
  good.candidate = true;
  good.valid = 3;
  good.adjusted_valid = 5;
  index.update(64, good);
  ASSERT_EQ(select(), 64u);

  VictimIndex::BlockState bad = good;
  bad.valid = kPpb + 1;
  // ASSERT: a half-applied update would make the next one index out of range.
  ASSERT_THROW(index.update(64, bad), std::logic_error);
  ASSERT_EQ(index.state(64), good);
  ASSERT_EQ(select(), 64u);

  bad = good;
  bad.adjusted_valid = kPpb + 1;
  EXPECT_THROW(index.update(64, bad), std::logic_error);
  EXPECT_THROW(index.update(7, bad), std::logic_error);
  EXPECT_FALSE(index.state(7).candidate);
  EXPECT_THROW(index.update(131, good), std::logic_error);
  EXPECT_EQ(select(), 64u);
  EXPECT_EQ(index.select(*greedy, VictimPolicyKind::kGreedy, 0, /*adjusted=*/true, none).block,
            64u);
}

}  // namespace
}  // namespace jitgc::ftl
