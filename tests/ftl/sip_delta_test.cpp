// The incremental SIP update must be indistinguishable from a full list
// replacement: twin FTLs fed the identical op stream — one receiving
// apply_sip_delta, the other set_sip_list with the same resulting list —
// must agree on every per-block SIP count and every victim choice, at the
// update instants and between them. Both must also match an independent
// recount of the SIP list through the mapping at every step, so the counts
// stay exact as host writes, trims and GC move SIP pages around.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/rng.h"
#include "ftl/ftl.h"
#include "ftl/sip_recount.h"

namespace jitgc::ftl {
namespace {

FtlConfig twin_config() {
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
  cfg.victim_policy = VictimPolicyKind::kGreedy;
  cfg.enable_sip_filter = true;
  cfg.verify_victim_selection = true;
  return cfg;
}

void expect_same_sip_state(const Ftl& delta_ftl, const Ftl& resync_ftl, int step) {
  ASSERT_TRUE(testing_util::sip_counts_exact(delta_ftl)) << "step " << step;
  ASSERT_TRUE(testing_util::sip_counts_exact(resync_ftl)) << "step " << step;
  for (std::uint32_t b = 0; b < delta_ftl.nand().num_blocks(); ++b) {
    ASSERT_EQ(delta_ftl.block_sip_count(b), resync_ftl.block_sip_count(b))
        << "block " << b << " at step " << step;
  }
  const auto a = delta_ftl.select_victim_indexed();
  const auto c = resync_ftl.select_victim_indexed();
  ASSERT_EQ(a.block, c.block) << "step " << step;
  ASSERT_EQ(a.sip_filtered, c.sip_filtered) << "step " << step;
}

TEST(SipDelta, MatchesFullRebuildAcrossInterleavings) {
  Ftl delta_ftl(twin_config());
  Ftl resync_ftl(twin_config());
  Rng rng(0x51BD);
  const Lba user_pages = delta_ftl.user_pages();
  ASSERT_EQ(user_pages, resync_ftl.user_pages());

  // The host-side model of the SIP list both devices should converge to.
  std::set<Lba> model;

  auto both_write = [&](Lba lba) {
    delta_ftl.write(lba);
    resync_ftl.write(lba);
  };

  for (Lba lba = 0; lba < user_pages; ++lba) both_write(lba);

  for (int step = 0; step < 1500; ++step) {
    const std::uint64_t dice = rng.uniform(100);
    if (dice < 60) {
      both_write(rng.uniform(user_pages));
    } else if (dice < 70) {
      const Lba lba = rng.uniform(user_pages);
      delta_ftl.trim(lba);
      resync_ftl.trim(lba);
    } else if (dice < 85) {
      const auto pages = 1 + static_cast<std::uint32_t>(rng.uniform(8));
      delta_ftl.background_collect_step(pages);
      resync_ftl.background_collect_step(pages);
    } else {
      // SIP update instant: the delta device gets the net change, the
      // resync device the whole resulting list. Like the page cache's
      // tracker, toggles of the same LBA cancel pairwise, keeping `added`
      // and `removed` disjoint (the delta contract).
      std::set<Lba> toggled;
      const std::uint64_t churn = rng.uniform(24);
      for (std::uint64_t i = 0; i < churn; ++i) {
        const Lba lba = rng.uniform(user_pages);
        if (!toggled.insert(lba).second) toggled.erase(lba);
      }
      std::vector<Lba> added;
      std::vector<Lba> removed;
      for (const Lba lba : toggled) {
        if (model.contains(lba)) {
          model.erase(lba);
          removed.push_back(lba);
        } else {
          model.insert(lba);
          added.push_back(lba);
        }
      }
      delta_ftl.apply_sip_delta(added, removed);
      resync_ftl.set_sip_list(std::vector<Lba>(model.begin(), model.end()));
    }
    expect_same_sip_state(delta_ftl, resync_ftl, step);
  }
}

TEST(SipDelta, RedundantEntriesAreIgnored) {
  Ftl ftl(twin_config());
  for (Lba lba = 0; lba < 64; ++lba) ftl.write(lba);

  // Adding an LBA twice, or removing one that is absent, must not skew the
  // counters (SipIndex reports membership change; the counters follow it).
  ftl.apply_sip_delta({5, 5, 7}, {});
  ftl.apply_sip_delta({}, {7, 7, 9});
  ASSERT_TRUE(ftl.sip_index().contains(5));
  ASSERT_FALSE(ftl.sip_index().contains(7));
  ASSERT_FALSE(ftl.sip_index().contains(9));

  Ftl reference(twin_config());
  for (Lba lba = 0; lba < 64; ++lba) reference.write(lba);
  reference.set_sip_list({5});
  for (std::uint32_t b = 0; b < ftl.nand().num_blocks(); ++b) {
    ASSERT_EQ(ftl.block_sip_count(b), reference.block_sip_count(b)) << "block " << b;
  }
}

TEST(SipDelta, OutOfRangeAndUnmappedLbasAreSafe) {
  Ftl ftl(twin_config());
  for (Lba lba = 0; lba < 32; ++lba) ftl.write(lba);

  const Lba unmapped = ftl.user_pages() - 1;  // never written
  const Lba out_of_range = ftl.user_pages() + 100;
  ftl.apply_sip_delta({unmapped, out_of_range, 3}, {});
  ftl.apply_sip_delta({}, {unmapped, out_of_range});
  // Only the mapped LBA contributes to a block's count.
  std::uint64_t total = 0;
  for (std::uint32_t b = 0; b < ftl.nand().num_blocks(); ++b) total += ftl.block_sip_count(b);
  EXPECT_EQ(total, 1u);
}

}  // namespace
}  // namespace jitgc::ftl
