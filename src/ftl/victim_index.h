// Incrementally maintained victim-selection index.
//
// The reference collector scans every block per GC decision; at production
// device sizes that O(num_blocks) inner loop dominates simulation cost. This
// index keeps the candidate set (fully-programmed blocks with something to
// reclaim) bucketed by valid-page count — once under the raw count and once
// under the SIP-penalty-adjusted count — so every policy's argmin is
// answerable without touching non-candidates. Each bucket is an id-ordered
// bitset (IdBuckets), so update() re-buckets a block with two bit flips per
// family, O(1); only the cost-benefit and FIFO order sets cost O(log N), and
// only under those policies. Selection walks the set words of the bitsets in
// ascending id order:
//
//   greedy         first id in the lowest non-empty bucket           O(ppb + N/64)
//   sampled greedy first in-sample candidate in (valid, id) order    O(1/f) exp.
//   cost-benefit   one representative per bucket, <= ppb+1 scored    O(ppb)
//   FIFO           head of a (fill_seq, id) set                      O(log N)
//   random         scores every candidate (hash is per-candidate by
//                  construction; excluded from scan-free guarantees) O(C)
//
// Memory: (pages_per_block + 1) * num_blocks / 8 bytes per bucket family,
// two families (about 33 KB each at 1024 blocks x 256 pages).
//
// Exactness contract: select() returns the lexicographic (score, block_id)
// minimum over eligible candidates — precisely the block the reference
// linear scan's strict `<` argmin picks, so simulation output stays
// byte-identical. The cost-benefit representative per bucket exploits that,
// at fixed valid count, the score is strictly increasing in last_update_seq
// — except in the constant-score buckets valid == 0 (all -inf) and
// valid == pages_per_block (zero benefit), where the representative must be
// the minimum id instead. Candidates handed to the policy carry
// sip_pages = 0: no policy reads it (the SIP penalty is already folded into
// the adjusted bucket's valid count), and the debug cross-check in
// Ftl::select_victim would catch a policy that starts to.
//
// Blocks under an active write stream stay in the index; queries skip the
// (at most three) excluded ids so activation/deactivation costs nothing.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "ftl/victim_policy.h"

namespace jitgc::ftl {

/// Block ids in [0, num_ids) kept in `num_buckets` buckets, each an
/// id-ordered bitset: one uint64_t word per 64 ids plus a member count,
/// stored flat, bucket after bucket. insert/erase flip one bit; walk()
/// visits a bucket's members in ascending id order, the order a
/// std::set<std::uint32_t> iterates in.
class IdBuckets {
 public:
  static constexpr std::uint32_t kNone = UINT32_MAX;

  IdBuckets(std::uint32_t num_buckets, std::uint32_t num_ids)
      : words_per_bucket_((num_ids + 63) / 64),
        words_(static_cast<std::size_t>(num_buckets) * words_per_bucket_, 0),
        sizes_(num_buckets, 0) {}

  void insert(std::uint32_t bucket, std::uint32_t id) {
    std::uint64_t& w = word(bucket, id);
    const std::uint64_t bit = std::uint64_t{1} << (id & 63);
    sizes_[bucket] += (w & bit) == 0;
    w |= bit;
  }
  void erase(std::uint32_t bucket, std::uint32_t id) {
    std::uint64_t& w = word(bucket, id);
    const std::uint64_t bit = std::uint64_t{1} << (id & 63);
    sizes_[bucket] -= (w & bit) != 0;
    w &= ~bit;
  }
  std::uint32_t size(std::uint32_t bucket) const { return sizes_[bucket]; }

  /// Calls `visit(id)` on each member of `bucket` in ascending id order until
  /// it returns true; returns that id, or kNone when no call did.
  template <typename Visit>
  std::uint32_t walk(std::uint32_t bucket, Visit&& visit) const {
    const std::uint64_t* words = &words_[static_cast<std::size_t>(bucket) * words_per_bucket_];
    std::uint32_t left = sizes_[bucket];
    for (std::uint32_t w = 0; left != 0; ++w) {
      for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
        const std::uint32_t id = w * 64 + static_cast<std::uint32_t>(__builtin_ctzll(bits));
        if (visit(id)) return id;
        --left;
      }
    }
    return kNone;
  }

 private:
  std::uint64_t& word(std::uint32_t bucket, std::uint32_t id) {
    return words_[static_cast<std::size_t>(bucket) * words_per_bucket_ + (id >> 6)];
  }

  std::uint32_t words_per_bucket_;
  std::vector<std::uint64_t> words_;
  std::vector<std::uint32_t> sizes_;
};

class VictimIndex {
 public:
  static constexpr std::uint32_t kNoBlock = UINT32_MAX;

  /// Which order sets the owning FTL's configuration can ever read. The FTL
  /// passes only what its fixed victim policy reaches, so update() skips the
  /// dead tree traffic. Queries against a structure declared unneeded are a
  /// correctness bug, guarded where cheap.
  struct Needs {
    /// Within-bucket (last_update_seq, id) order — cost-benefit only.
    bool by_recency = true;
    /// Global (fill_seq, id) order — FIFO only.
    bool by_fill = true;
  };

  VictimIndex(std::uint32_t num_blocks, std::uint32_t pages_per_block, Needs needs);

  /// The indexed facts about one block. `candidate` mirrors the collector's
  /// eligibility rule (fully programmed, something invalid); `wl_candidate`
  /// the static wear-leveler's source rule (fully programmed, fully valid).
  struct BlockState {
    bool candidate = false;
    bool wl_candidate = false;
    std::uint32_t valid = 0;
    /// Valid count after the SIP penalty (== valid when no SIP pages).
    std::uint32_t adjusted_valid = 0;
    std::uint64_t last_update_seq = 0;
    std::uint64_t fill_seq = 0;
    std::uint64_t erase_count = 0;

    friend bool operator==(const BlockState&, const BlockState&) = default;
  };

  /// Re-declares block `b`'s state in the candidate buckets, replacing
  /// whatever was indexed for it. O(1) bucket moves (plus O(log N) for the
  /// needed order sets); no-op when nothing changed. Throws, leaving the
  /// index untouched, on an out-of-range block or valid count.
  /// Does NOT touch the wear-level tracker — that is update_wl()'s job, so
  /// the FTL's deferred maintenance can settle the (per-write-queried)
  /// wear-level set without paying the full bucket update.
  void update(std::uint32_t b, const BlockState& s);

  /// Re-declares block `b`'s wear-level facts (fully-valid full block +
  /// erase count) against a shadow independent of update()'s BlockState, so
  /// either half can be settled first. O(log N); no-op when unchanged.
  void update_wl(std::uint32_t b, bool wl_candidate, std::uint64_t erase_count);

  /// Blocks queries must skip (the active write streams); kNoBlock entries
  /// are harmless.
  using Excluded = std::array<std::uint32_t, 3>;

  struct Selection {
    std::uint32_t block = kNoBlock;
    /// Candidates examined answering the query (the boundedness metric the
    /// no-full-scan unit test asserts on).
    std::uint64_t visited = 0;
  };

  /// Scan-free equivalent of the reference linear scan for `kind`:
  /// the lexicographic (score, block_id) minimum over eligible candidates.
  /// `adjusted` selects the SIP-penalty-adjusted buckets.
  Selection select(const VictimPolicy& policy, VictimPolicyKind kind, std::uint64_t now_seq,
                   bool adjusted, const Excluded& excluded) const;

  /// Least-worn fully-valid block (the static wear-leveler's coldest
  /// source), ties broken by lowest id — the reference scan's strict `<`.
  Selection select_coldest_full(const Excluded& excluded) const;

  std::uint32_t pages_per_block() const { return ppb_; }
  const BlockState& state(std::uint32_t b) const { return state_[b]; }

 private:
  /// Candidates bucketed by one valid count (raw or SIP-adjusted); ppb + 1
  /// buckets, since the adjusted count saturates at pages_per_block.
  struct Family {
    Family(std::uint32_t ppb, std::uint32_t num_blocks, bool by_recency)
        : by_id(ppb + 1, num_blocks), by_recency(by_recency ? ppb + 1 : 0) {}
    IdBuckets by_id;
    /// Per bucket, (last_update_seq, id): cost-benefit's within-bucket score
    /// order. Empty unless Needs::by_recency.
    std::vector<std::set<std::pair<std::uint64_t, std::uint32_t>>> by_recency;
  };

  static bool is_excluded(std::uint32_t b, const Excluded& e) {
    return b == e[0] || b == e[1] || b == e[2];
  }

  Selection select_bucket_min(const Family& family, const Excluded& excluded) const;
  Selection select_cost_benefit(const VictimPolicy& policy, const Family& family,
                                std::uint64_t now_seq, const Excluded& excluded) const;
  Selection select_fifo(const Excluded& excluded) const;
  Selection select_scored_all(const VictimPolicy& policy, std::uint64_t now_seq,
                              const Excluded& excluded) const;
  Selection select_sampled(const SampledGreedyVictimPolicy& policy, const Family& family,
                           std::uint64_t now_seq, const Excluded& excluded) const;

  std::uint32_t ppb_;
  Needs needs_;
  std::vector<BlockState> state_;
  Family raw_;
  Family adj_;
  /// All candidates by (fill_seq, id): FIFO's global order.
  std::set<std::pair<std::uint64_t, std::uint32_t>> by_fill_;
  /// Fully-valid full blocks by (erase_count, id): the wear-level tracker.
  std::set<std::pair<std::uint64_t, std::uint32_t>> wl_;
  /// What wl_ currently says about each block (update_wl's change filter).
  struct WlState {
    bool candidate = false;
    std::uint64_t erase_count = 0;
  };
  std::vector<WlState> wl_state_;
};

}  // namespace jitgc::ftl
