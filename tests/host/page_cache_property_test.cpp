// Reference-model fuzz of the page cache: random writes / ticks / discards
// are mirrored into a naive map<lba, last_update>, and the cache must agree
// with the reference's view at every step — including exactly which pages the
// flusher evicts and in what order.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <vector>

#include "common/rng.h"
#include "host/page_cache.h"
#include "host/page_cache_probe.h"

namespace jitgc::host {
namespace {

struct Reference {
  // lba -> (last_update, insertion seq), mirroring the cache's age order.
  std::map<Lba, std::pair<TimeUs, std::uint64_t>> dirty;
  std::uint64_t seq = 0;

  void write(Lba lba, TimeUs now) { dirty[lba] = {now, seq++}; }

  std::vector<std::pair<std::pair<TimeUs, std::uint64_t>, Lba>> oldest_first() const {
    std::vector<std::pair<std::pair<TimeUs, std::uint64_t>, Lba>> order;
    for (const auto& [lba, key] : dirty) order.push_back({key, lba});
    std::sort(order.begin(), order.end());
    return order;
  }

  std::vector<Lba> flusher_tick(const PageCacheConfig& cfg, TimeUs now, std::size_t max_pages) {
    std::vector<Lba> out;
    // Condition 1: expired pages, oldest first.
    for (const auto& [key, lba] : oldest_first()) {
      if (out.size() >= max_pages) break;
      if (now - key.first < cfg.tau_expire) break;
      out.push_back(lba);
      dirty.erase(lba);
    }
    // Condition 2: over-threshold, oldest first.
    while (dirty.size() * cfg.page_size > cfg.tau_flush_bytes() && out.size() < max_pages) {
      const auto order = oldest_first();
      out.push_back(order.front().second);
      dirty.erase(order.front().second);
    }
    return out;
  }

  void discard(Lba lba, std::uint64_t pages) {
    for (std::uint64_t i = 0; i < pages; ++i) dirty.erase(lba + i);
  }

  std::vector<Lba> evict_oldest(std::size_t max_pages) {
    std::vector<Lba> out;
    for (const auto& [key, lba] : oldest_first()) {
      if (out.size() >= max_pages) break;
      out.push_back(lba);
      dirty.erase(lba);
    }
    return out;
  }

  std::set<Lba> members() const {
    std::set<Lba> out;
    for (const auto& [lba, key] : dirty) out.insert(lba);
    return out;
  }

  /// Partition `partition`'s pages counted by ceil(last_update / period).
  std::map<std::uint64_t, std::uint64_t> histogram(TimeUs period, const LbaPartitions& partitions,
                                                   std::uint32_t partition) const {
    std::map<std::uint64_t, std::uint64_t> out;
    for (const auto& [lba, key] : dirty) {
      if (partitions.of(lba) != partition) continue;
      ++out[static_cast<std::uint64_t>((key.first + period - 1) / period)];
    }
    return out;
  }
};

// Not a multiple of 64: the last bitmap word is partial.
constexpr Lba kUniverse = 700;

PageCacheConfig fuzz_config() {
  PageCacheConfig cfg;
  cfg.page_size = 4 * KiB;
  cfg.capacity = 2 * MiB;  // 512 pages
  cfg.tau_expire = seconds(30);
  cfg.tau_flush_fraction = 0.25;  // 128 pages
  cfg.flush_period = seconds(5);
  return cfg;
}

/// Mostly uniform LBAs, with the bitmap-word and universe edges drawn often.
Lba draw_lba(Rng& rng) {
  static constexpr Lba kEdges[] = {0, 1, 63, 64, 127, 128, kUniverse - 64, kUniverse - 1};
  if (rng.chance(0.2)) return kEdges[rng.uniform(std::size(kEdges))];
  return rng.uniform(kUniverse);
}

/// The cache's full state against the reference: the age order (LBA and
/// last update per rank) and every partition's interval histogram.
void expect_matches(const PageCache& cache, const Reference& ref, int step) {
  const auto scan = dirty_oldest_first(cache);
  const auto order = ref.oldest_first();
  ASSERT_EQ(cache.dirty_pages(), ref.dirty.size()) << "step " << step;
  ASSERT_EQ(scan.size(), order.size()) << "step " << step;
  for (std::size_t i = 0; i < scan.size(); ++i) {
    ASSERT_EQ(scan[i].lba, order[i].second) << "step " << step << " rank " << i;
    ASSERT_EQ(scan[i].last_update, order[i].first.first) << "step " << step << " rank " << i;
  }
  for (std::uint32_t q = 0; q < cache.partitions().count; ++q) {
    ASSERT_EQ(histogram_map(cache, q), ref.histogram(cache.config().flush_period,
                                                     cache.partitions(), q))
        << "step " << step << " partition " << q;
  }
}

/// The cache's pending SIP delta against the reference's net membership
/// change since `checkpoint`.
void expect_delta(const PageCache& cache, const Reference& ref, const std::set<Lba>& checkpoint,
                  int step) {
  const SipDelta delta = cache.pending_sip_delta();
  const std::set<Lba> current = ref.members();
  std::vector<Lba> added;
  std::vector<Lba> removed;
  std::set_difference(current.begin(), current.end(), checkpoint.begin(), checkpoint.end(),
                      std::back_inserter(added));
  std::set_difference(checkpoint.begin(), checkpoint.end(), current.begin(), current.end(),
                      std::back_inserter(removed));
  ASSERT_EQ(delta.added, added) << "step " << step;
  ASSERT_EQ(delta.removed, removed) << "step " << step;
}

class PageCacheFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PageCacheFuzz, AgreesWithReferenceModel) {
  const PageCacheConfig cfg = fuzz_config();
  PageCache cache(cfg, kUniverse);
  Reference ref;
  Rng rng(GetParam());
  TimeUs now = 0;

  for (int step = 0; step < 4000; ++step) {
    const double roll = rng.uniform01();
    if (roll < 0.70) {
      const Lba lba = draw_lba(rng);
      now += static_cast<TimeUs>(rng.uniform(50'000));
      cache.write(lba, now);
      ref.write(lba, now);
    } else if (roll < 0.85) {
      // Advance to the next tick boundary and flush with a random budget.
      now += static_cast<TimeUs>(rng.uniform(seconds(10)));
      const std::size_t budget = rng.chance(0.3) ? rng.uniform(64) : SIZE_MAX;
      const auto got = cache.flusher_tick(now, budget);
      const auto want = ref.flusher_tick(cfg, now, budget);
      ASSERT_EQ(got, want) << "step " << step;
    } else if (roll < 0.95) {
      const Lba lba = rng.uniform(kUniverse - 8);
      const auto pages = rng.uniform_range(1, 8);
      const auto dropped = cache.discard(lba, pages);
      ref.discard(lba, pages);
      ASSERT_LE(dropped, pages);
    } else {
      // Cross-check the scan.
      const auto scan = dirty_oldest_first(cache);
      ASSERT_EQ(scan.size(), ref.dirty.size()) << "step " << step;
      for (const auto& dp : scan) {
        const auto it = ref.dirty.find(dp.lba);
        ASSERT_NE(it, ref.dirty.end());
        ASSERT_EQ(dp.last_update, it->second.first);
      }
    }
    ASSERT_EQ(cache.dirty_pages(), ref.dirty.size());
  }
}

// Write times that step backwards or repeat, interleaved with monotone ones:
// the age order must still be exactly (last_update, insertion order). Also
// checks evict_oldest / flush_all order, the SIP delta against the
// reference's net membership change since the last checkpoint, and each
// partition's interval histogram against a recount.
TEST_P(PageCacheFuzz, BackdatedWritesEvictionsAndSipDelta) {
  const PageCacheConfig cfg = fuzz_config();
  PageCache cache(cfg, kUniverse);
  cache.set_partitions(LbaPartitions::equal_share(kUniverse, 3));
  Reference ref;
  Rng rng(GetParam());
  TimeUs now = seconds(60);

  // Some dirty pages predate the checkpoint: they belong to the base set,
  // not to any delta.
  for (Lba lba = 0; lba < 40; ++lba) {
    cache.write(lba * 7, now);
    ref.write(lba * 7, now);
  }
  cache.commit_sip_checkpoint();
  std::set<Lba> checkpoint = ref.members();

  for (int step = 0; step < 4000; ++step) {
    const double roll = rng.uniform01();
    if (roll < 0.60) {
      const Lba lba = draw_lba(rng);
      TimeUs at = now;
      const double kind = rng.uniform01();
      if (kind < 0.25) {
        // Backdated, possibly far enough to reorder across many pages.
        at = now - static_cast<TimeUs>(rng.uniform(seconds(40)));
      } else if (kind < 0.45) {
        // Equal timestamp: FIFO among ties.
      } else {
        now += static_cast<TimeUs>(rng.uniform(50'000));
        at = now;
      }
      cache.write(lba, at);
      ref.write(lba, at);
    } else if (roll < 0.70) {
      now += static_cast<TimeUs>(rng.uniform(seconds(10)));
      const std::size_t budget = rng.chance(0.3) ? rng.uniform(64) : SIZE_MAX;
      ASSERT_EQ(cache.flusher_tick(now, budget), ref.flusher_tick(cfg, now, budget))
          << "step " << step;
    } else if (roll < 0.78) {
      const std::size_t n = rng.uniform(24);
      ASSERT_EQ(cache.evict_oldest(n), ref.evict_oldest(n)) << "step " << step;
    } else if (roll < 0.79) {
      ASSERT_EQ(cache.flush_all(), ref.evict_oldest(SIZE_MAX)) << "step " << step;
    } else if (roll < 0.87) {
      const Lba lba = rng.uniform(kUniverse - 8);
      const auto pages = rng.uniform_range(1, 8);
      std::size_t want = 0;
      for (std::uint64_t i = 0; i < pages; ++i) want += ref.dirty.count(lba + i);
      ASSERT_EQ(cache.discard(lba, pages), want) << "step " << step;
      ref.discard(lba, pages);
    } else if (roll < 0.95) {
      expect_delta(cache, ref, checkpoint, step);
      if (rng.chance(0.5)) {
        cache.commit_sip_checkpoint();
        checkpoint = ref.members();
      }
    } else {
      expect_matches(cache, ref, step);
    }
    ASSERT_EQ(cache.dirty_pages(), ref.dirty.size());
    for (std::uint32_t q = 0; q < 3; ++q) {
      ASSERT_EQ(histogram_map(cache, q), ref.histogram(cfg.flush_period, cache.partitions(), q))
          << "step " << step << " partition " << q;
    }
  }
}

// A delta is taken and committed at every one of many consecutive
// checkpoints, with a few random operations — writes at the bitmap-word
// edges, writebacks, discards — between them. Each delta must be exactly
// the net membership change since the previous checkpoint, and reading it
// twice must not disturb it.
TEST_P(PageCacheFuzz, SipDeltaOverConsecutiveCheckpoints) {
  const PageCacheConfig cfg = fuzz_config();
  PageCache cache(cfg, kUniverse);
  Reference ref;
  Rng rng(GetParam());
  TimeUs now = 0;
  std::set<Lba> checkpoint;

  for (int step = 0; step < 3000; ++step) {
    const auto ops = rng.uniform(12);
    for (std::uint64_t i = 0; i < ops; ++i) {
      const double roll = rng.uniform01();
      if (roll < 0.70) {
        const Lba lba = draw_lba(rng);
        now += static_cast<TimeUs>(rng.uniform(200'000));
        cache.write(lba, now);
        ref.write(lba, now);
      } else if (roll < 0.85) {
        const std::size_t n = rng.uniform(6);
        ASSERT_EQ(cache.evict_oldest(n), ref.evict_oldest(n)) << "step " << step;
      } else if (roll < 0.95) {
        const Lba lba = rng.uniform(kUniverse - 4);
        const auto pages = rng.uniform_range(1, 4);
        cache.discard(lba, pages);
        ref.discard(lba, pages);
      } else {
        ASSERT_EQ(cache.flusher_tick(now), ref.flusher_tick(cfg, now, SIZE_MAX))
            << "step " << step;
      }
    }
    expect_delta(cache, ref, checkpoint, step);
    if (rng.chance(0.1)) expect_delta(cache, ref, checkpoint, step);
    cache.commit_sip_checkpoint();
    checkpoint = ref.members();
  }
}

// Freed age-list nodes are recycled: after evictions and discards free
// nodes in the middle and at both ends of the list, new writes (including
// backdated ones that land between surviving pages) reuse them, and the
// order, histograms and SIP delta stay exact through several rounds.
TEST_P(PageCacheFuzz, NodeReuseAfterEviction) {
  const PageCacheConfig cfg = fuzz_config();
  PageCache cache(cfg, kUniverse);
  cache.set_partitions(LbaPartitions::equal_share(kUniverse, 2));
  Reference ref;
  Rng rng(GetParam());
  TimeUs now = seconds(100);
  std::set<Lba> checkpoint;

  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 60; ++i) {
      const Lba lba = draw_lba(rng);
      const TimeUs at = rng.chance(0.3) ? now - static_cast<TimeUs>(rng.uniform(seconds(20)))
                                        : (now += static_cast<TimeUs>(rng.uniform(100'000)));
      cache.write(lba, at);
      ref.write(lba, at);
    }
    expect_matches(cache, ref, round);
    const std::size_t n = rng.uniform(ref.dirty.size() + 1);
    ASSERT_EQ(cache.evict_oldest(n), ref.evict_oldest(n)) << "round " << round;
    const Lba lba = rng.uniform(kUniverse - 32);
    cache.discard(lba, 32);
    ref.discard(lba, 32);
    expect_matches(cache, ref, round);
    expect_delta(cache, ref, checkpoint, round);
    if (round % 3 == 0) {
      cache.commit_sip_checkpoint();
      checkpoint = ref.members();
    }
    if (round % 10 == 9) {
      ASSERT_EQ(cache.flush_all(), ref.evict_oldest(SIZE_MAX)) << "round " << round;
    }
  }
}

// Backdated overwrites at the two positions the tail back-walk treats
// specially: the overwritten page is the tail itself (the walk steps past
// it), or it is the node the walk stops at (it keeps its place). Both must
// land exactly where (last_update, insertion order) puts them.
TEST_P(PageCacheFuzz, BackdatedOverwriteOfTailAndStopNode) {
  const PageCacheConfig cfg = fuzz_config();
  Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    PageCache cache(cfg, kUniverse);
    Reference ref;
    TimeUs now = seconds(60);
    const auto n = rng.uniform_range(1, 12);
    for (std::uint64_t i = 0; i < n; ++i) {
      const Lba lba = draw_lba(rng);
      now += static_cast<TimeUs>(rng.uniform(3)) * seconds(1);  // ties too
      cache.write(lba, now);
      ref.write(lba, now);
    }
    const auto order = ref.oldest_first();

    // The tail, overwritten at a time at or before its own.
    const auto& tail = order.back();
    const TimeUs tail_at = tail.first.first - static_cast<TimeUs>(rng.uniform(4)) * seconds(1);
    cache.write(tail.second, tail_at);
    ref.write(tail.second, tail_at);
    expect_matches(cache, ref, trial);

    // A node the walk stops at: every newer page is strictly later than the
    // new time, and the node's own old time is at or before it.
    const auto now_order = ref.oldest_first();
    const std::size_t rank = rng.uniform(now_order.size());
    const TimeUs own = now_order[rank].first.first;
    TimeUs limit = own + seconds(10);
    for (std::size_t r = rank + 1; r < now_order.size(); ++r) {
      limit = std::min(limit, now_order[r].first.first);
    }
    if (limit > own) {
      const TimeUs at =
          own + static_cast<TimeUs>(rng.uniform(static_cast<std::uint64_t>(limit - own)));
      cache.write(now_order[rank].second, at);
      ref.write(now_order[rank].second, at);
      expect_matches(cache, ref, trial);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageCacheFuzz, ::testing::Values(1u, 17u, 523u, 99991u));

}  // namespace
}  // namespace jitgc::host
