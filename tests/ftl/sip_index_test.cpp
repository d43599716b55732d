#include "ftl/sip_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "common/rng.h"
#include "ftl/ftl.h"

namespace jitgc::ftl {
namespace {

TEST(SipIndex, StartsEmpty) {
  SipIndex sip;
  EXPECT_TRUE(sip.empty());
  EXPECT_EQ(sip.size(), 0u);
  EXPECT_FALSE(sip.contains(0));
}

TEST(SipIndex, VectorConstructorDeduplicates) {
  SipIndex sip(std::vector<Lba>{1, 2, 2, 3, 1});
  EXPECT_EQ(sip.size(), 3u);
  EXPECT_TRUE(sip.contains(1));
  EXPECT_TRUE(sip.contains(3));
  EXPECT_FALSE(sip.contains(4));
}

TEST(SipIndex, InsertAndClear) {
  SipIndex sip;
  sip.insert(42);
  EXPECT_TRUE(sip.contains(42));
  sip.clear();
  EXPECT_TRUE(sip.empty());
}

TEST(SipIndex, AssignReplacesWholeList) {
  SipIndex sip(std::vector<Lba>{1, 2, 3});
  sip.assign({7, 8});
  EXPECT_EQ(sip.size(), 2u);
  EXPECT_FALSE(sip.contains(1));
  EXPECT_TRUE(sip.contains(8));
  sip.assign({});
  EXPECT_TRUE(sip.empty());
}

TEST(SipIndex, SortedListsMembersAscending) {
  SipIndex sip(130);
  for (const Lba lba : {129u, 0u, 64u, 63u, 500u, 130u, 1u}) sip.insert(lba);
  EXPECT_EQ(sip.sorted(), (std::vector<Lba>{0, 1, 63, 64, 129, 130, 500}));
}

// Random operations mirrored into std::set<Lba>: membership, size and the
// sorted listing must agree at every step, for LBAs inside the bitmap's
// universe, at its edge and far beyond it.
TEST(SipIndex, MatchesStdSetAcrossUniverseEdge) {
  for (const std::uint64_t universe : {0ull, 1ull, 64ull, 100ull, 204ull}) {
    SipIndex sip(universe);
    std::set<Lba> ref;
    Rng rng(universe + 7);
    const auto pick = [&]() -> Lba {
      const double roll = rng.uniform01();
      if (roll < 0.6) return rng.uniform(universe + 1);
      if (roll < 0.8) return universe + rng.uniform(3) - (universe > 0 ? 1 : 0);
      if (roll < 0.9) return 999999;
      return rng.chance(0.5) ? UINT64_MAX - 1 : UINT64_MAX - rng.uniform(4);
    };
    for (int step = 0; step < 3000; ++step) {
      const double roll = rng.uniform01();
      const Lba lba = pick();
      if (roll < 0.40) {
        ASSERT_EQ(sip.insert(lba), ref.insert(lba).second) << "universe " << universe;
      } else if (roll < 0.70) {
        ASSERT_EQ(sip.erase(lba), ref.erase(lba) > 0) << "universe " << universe;
      } else if (roll < 0.95) {
        ASSERT_EQ(sip.contains(lba), ref.contains(lba)) << "universe " << universe;
      } else if (roll < 0.99) {
        std::vector<Lba> list;
        const auto n = rng.uniform(12);
        for (std::uint64_t i = 0; i < n; ++i) list.push_back(pick());
        sip.assign(list);
        ref = std::set<Lba>(list.begin(), list.end());
      } else {
        sip.clear();
        ref.clear();
      }
      ASSERT_EQ(sip.size(), ref.size()) << "universe " << universe << " step " << step;
      ASSERT_EQ(sip.empty(), ref.empty());
      if (step % 50 == 0) {
        ASSERT_EQ(sip.sorted(), std::vector<Lba>(ref.begin(), ref.end()));
      }
    }
    ASSERT_EQ(sip.sorted(), std::vector<Lba>(ref.begin(), ref.end()));
  }
}

FtlConfig tiny_ftl_config() {
  FtlConfig cfg;
  cfg.geometry = nand::Geometry{.channels = 1,
                                .dies_per_channel = 1,
                                .planes_per_die = 1,
                                .blocks_per_plane = 32,
                                .pages_per_block = 8,
                                .page_size = 4 * KiB};
  cfg.timing = nand::timing_20nm_mlc();
  cfg.op_ratio = 0.25;
  cfg.min_free_blocks = 2;
  cfg.enable_sip_filter = true;
  return cfg;
}

std::string saved(const Ftl& ftl) {
  BinaryWriter w;
  ftl.save_state(w);
  return w.take();
}

// The snapshot lists SIP membership in a fixed order, so the same members
// installed in any order, by full resync or by deltas, save the same bytes.
TEST(SipIndex, FtlSnapshotIndependentOfInsertionOrder) {
  const std::vector<Lba> members{3, 17, 64, 65, 120, 203, 999999, UINT64_MAX - 1};
  const std::vector<Lba> shuffled{UINT64_MAX - 1, 203, 3, 999999, 65, 120, 17, 64};

  Ftl ascending(tiny_ftl_config());
  Ftl reordered(tiny_ftl_config());
  Ftl by_delta(tiny_ftl_config());
  for (Ftl* ftl : {&ascending, &reordered, &by_delta}) {
    for (Lba lba = 0; lba < 150; ++lba) ftl->write(lba);
  }
  ascending.set_sip_list(members);
  reordered.set_sip_list(shuffled);
  by_delta.apply_sip_delta({203, 120, 999999, 5}, {});
  by_delta.apply_sip_delta({UINT64_MAX - 1, 64, 3, 65, 17}, {5});

  const std::string bytes = saved(ascending);
  EXPECT_EQ(saved(reordered), bytes);
  EXPECT_EQ(saved(by_delta), bytes);

  Ftl restored(tiny_ftl_config());
  BinaryReader r(bytes);
  restored.restore_state(r);
  EXPECT_EQ(restored.sip_index().sorted(), members);
  EXPECT_EQ(saved(restored), bytes);
}

}  // namespace
}  // namespace jitgc::ftl
