// Reference-model fuzz of the page cache: random writes / ticks / discards
// are mirrored into a naive map<lba, last_update>, and the cache must agree
// with the reference's view at every step — including exactly which pages the
// flusher evicts and in what order.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <set>

#include "common/rng.h"
#include "host/page_cache.h"

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

  std::map<std::uint64_t, std::uint64_t> histogram(TimeUs period) const {
    std::map<std::uint64_t, std::uint64_t> out;
    for (const auto& [lba, key] : dirty) {
      ++out[static_cast<std::uint64_t>((key.first + period - 1) / period)];
    }
    return out;
  }
};

class PageCacheFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PageCacheFuzz, AgreesWithReferenceModel) {
  PageCacheConfig cfg;
  cfg.page_size = 4 * KiB;
  cfg.capacity = 2 * MiB;  // 512 pages
  cfg.tau_expire = seconds(30);
  cfg.tau_flush_fraction = 0.25;  // 128 pages
  cfg.flush_period = seconds(5);

  PageCache cache(cfg);
  Reference ref;
  Rng rng(GetParam());
  TimeUs now = 0;

  for (int step = 0; step < 4000; ++step) {
    const double roll = rng.uniform01();
    if (roll < 0.70) {
      const Lba lba = rng.uniform(600);
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
      const Lba lba = rng.uniform(600);
      const auto pages = rng.uniform_range(1, 8);
      const auto dropped = cache.discard(lba, pages);
      ref.discard(lba, pages);
      ASSERT_LE(dropped, pages);
    } else {
      // Cross-check the scan.
      const auto scan = cache.scan_dirty();
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
// reference's net membership change since the last checkpoint, and the
// interval histogram against a recount.
TEST_P(PageCacheFuzz, BackdatedWritesEvictionsAndSipDelta) {
  PageCacheConfig cfg;
  cfg.page_size = 4 * KiB;
  cfg.capacity = 2 * MiB;  // 512 pages
  cfg.tau_expire = seconds(30);
  cfg.tau_flush_fraction = 0.25;  // 128 pages
  cfg.flush_period = seconds(5);

  PageCache cache(cfg);
  Reference ref;
  Rng rng(GetParam());
  TimeUs now = seconds(60);

  // Some dirty pages predate tracking: they belong to the base set, not to
  // any delta.
  for (Lba lba = 0; lba < 40; ++lba) {
    cache.write(lba * 7, now);
    ref.write(lba * 7, now);
  }
  cache.enable_sip_tracking();
  std::set<Lba> checkpoint = ref.members();

  for (int step = 0; step < 4000; ++step) {
    const double roll = rng.uniform01();
    if (roll < 0.60) {
      const Lba lba = rng.uniform(600);
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
      const Lba lba = rng.uniform(600);
      const auto pages = rng.uniform_range(1, 8);
      std::size_t want = 0;
      for (std::uint64_t i = 0; i < pages; ++i) want += ref.dirty.count(lba + i);
      ASSERT_EQ(cache.discard(lba, pages), want) << "step " << step;
      ref.discard(lba, pages);
    } else if (roll < 0.95) {
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
      if (rng.chance(0.5)) {
        cache.commit_sip_checkpoint();
        checkpoint = current;
      }
    } else {
      const auto scan = cache.scan_dirty();
      const auto order = ref.oldest_first();
      ASSERT_EQ(scan.size(), order.size()) << "step " << step;
      for (std::size_t i = 0; i < scan.size(); ++i) {
        ASSERT_EQ(scan[i].lba, order[i].second) << "step " << step << " rank " << i;
        ASSERT_EQ(scan[i].last_update, order[i].first.first) << "step " << step;
      }
    }
    ASSERT_EQ(cache.dirty_pages(), ref.dirty.size());
    ASSERT_EQ(cache.dirty_interval_histogram(), ref.histogram(cfg.flush_period))
        << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageCacheFuzz, ::testing::Values(1u, 17u, 523u, 99991u));

}  // namespace
}  // namespace jitgc::host
