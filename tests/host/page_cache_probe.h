// Test-side views of a host::PageCache: its dirty pages as a vector, oldest
// first, and one partition's dirty-interval histogram as an ordered map.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "host/page_cache.h"

namespace jitgc::host {

inline std::vector<DirtyPage> dirty_oldest_first(const PageCache& cache) {
  std::vector<DirtyPage> out;
  cache.for_each_dirty([&](const DirtyPage& page) { out.push_back(page); });
  return out;
}

inline std::map<std::uint64_t, std::uint64_t> histogram_map(const PageCache& cache,
                                                            std::uint32_t partition = 0) {
  std::map<std::uint64_t, std::uint64_t> out;
  cache.interval_histogram(partition).for_each(
      [&](std::uint64_t key, std::uint64_t count) { out.emplace(key, count); });
  return out;
}

}  // namespace jitgc::host
