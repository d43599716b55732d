// Soon-to-be-Invalidated Page (SIP) index.
//
// The buffered-write predictor scans the page cache and reports the LBAs of
// dirty data (paper §3.2.1): the on-SSD versions of those LBAs will be
// overwritten when the cache flushes, so migrating them during GC is wasted
// work. The extended garbage collector consults this index when picking
// victims (§3.3, Table 3).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace jitgc::ftl {

/// A set of LBAs expected to be invalidated shortly. Updated incrementally
/// (`insert`/`erase`, the delta protocol) or by a full replacement
/// (`assign`, the reference the delta path is tested against).
///
/// Membership of LBAs in [0, universe) is one bit each, so every lookup is
/// O(1); the bitmap is allocated on the first in-range insert, so an index
/// that never receives a SIP list costs nothing. LBAs at or beyond the
/// universe (a host may name them; the FTL ignores them for accounting) are
/// kept in a small sorted spill vector, so `size()` and `contains()` count
/// them like any other member.
class SipIndex {
 public:
  SipIndex() = default;
  explicit SipIndex(std::uint64_t universe) : universe_(universe) {}
  explicit SipIndex(const std::vector<Lba>& lbas) { assign(lbas); }

  /// Returns whether the LBA was newly inserted.
  bool insert(Lba lba) {
    if (lba >= universe_) {
      const auto it = std::lower_bound(spill_.begin(), spill_.end(), lba);
      if (it != spill_.end() && *it == lba) return false;
      spill_.insert(it, lba);
    } else {
      if (bits_.empty()) bits_.resize((universe_ + 63) / 64, 0);
      std::uint64_t& word = bits_[lba >> 6];
      const std::uint64_t bit = std::uint64_t{1} << (lba & 63);
      if (word & bit) return false;
      word |= bit;
    }
    ++size_;
    return true;
  }

  /// Returns whether the LBA was present.
  bool erase(Lba lba) {
    if (lba >= universe_) {
      const auto it = std::lower_bound(spill_.begin(), spill_.end(), lba);
      if (it == spill_.end() || *it != lba) return false;
      spill_.erase(it);
    } else {
      if (bits_.empty()) return false;
      std::uint64_t& word = bits_[lba >> 6];
      const std::uint64_t bit = std::uint64_t{1} << (lba & 63);
      if (!(word & bit)) return false;
      word &= ~bit;
    }
    --size_;
    return true;
  }

  bool contains(Lba lba) const {
    if (lba < universe_) return !bits_.empty() && (bits_[lba >> 6] >> (lba & 63) & 1);
    return std::binary_search(spill_.begin(), spill_.end(), lba);
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void clear() {
    std::fill(bits_.begin(), bits_.end(), std::uint64_t{0});
    spill_.clear();
    size_ = 0;
  }

  /// Replaces the whole list.
  void assign(const std::vector<Lba>& lbas) {
    clear();
    for (const Lba lba : lbas) insert(lba);
  }

  /// All members, ascending: O(universe / 64 + size()).
  std::vector<Lba> sorted() const {
    std::vector<Lba> out;
    out.reserve(size_);
    for (std::size_t w = 0; w < bits_.size(); ++w) {
      for (std::uint64_t word = bits_[w]; word != 0; word &= word - 1) {
        out.push_back(static_cast<Lba>(w) * 64 + static_cast<Lba>(std::countr_zero(word)));
      }
    }
    out.insert(out.end(), spill_.begin(), spill_.end());
    return out;
  }

 private:
  std::uint64_t universe_ = 0;
  /// Bit `lba` set iff `lba` (< universe_) is a member; empty until the
  /// first in-range insert.
  std::vector<std::uint64_t> bits_;
  /// Members at or beyond universe_, ascending.
  std::vector<Lba> spill_;
  std::size_t size_ = 0;
};

}  // namespace jitgc::ftl
