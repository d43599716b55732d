#include "ftl/victim_index.h"

#include <limits>

#include "common/ensure.h"

namespace jitgc::ftl {

VictimIndex::VictimIndex(std::uint32_t num_blocks, std::uint32_t pages_per_block, Needs needs)
    : ppb_(pages_per_block),
      needs_(needs),
      state_(num_blocks),
      raw_(pages_per_block, num_blocks, needs.by_recency),
      adj_(pages_per_block, num_blocks, needs.by_recency),
      wl_state_(num_blocks) {}

void VictimIndex::update(std::uint32_t b, const BlockState& s) {
  // Validate first: a rejected state must leave the index as it was.
  JITGC_ENSURE(b < state_.size() &&
               (!s.candidate || (s.valid <= ppb_ && s.adjusted_valid <= ppb_)));
  BlockState& old = state_[b];
  if (old == s) return;

  if (old.candidate) {
    raw_.by_id.erase(old.valid, b);
    adj_.by_id.erase(old.adjusted_valid, b);
    if (needs_.by_recency) {
      raw_.by_recency[old.valid].erase({old.last_update_seq, b});
      adj_.by_recency[old.adjusted_valid].erase({old.last_update_seq, b});
    }
    if (needs_.by_fill) by_fill_.erase({old.fill_seq, b});
  }

  old = s;

  if (s.candidate) {
    raw_.by_id.insert(s.valid, b);
    adj_.by_id.insert(s.adjusted_valid, b);
    if (needs_.by_recency) {
      raw_.by_recency[s.valid].insert({s.last_update_seq, b});
      adj_.by_recency[s.adjusted_valid].insert({s.last_update_seq, b});
    }
    if (needs_.by_fill) by_fill_.insert({s.fill_seq, b});
  }
}

void VictimIndex::update_wl(std::uint32_t b, bool wl_candidate, std::uint64_t erase_count) {
  WlState& old = wl_state_[b];
  if (old.candidate == wl_candidate && old.erase_count == erase_count) return;
  if (old.candidate) wl_.erase({old.erase_count, b});
  if (wl_candidate) wl_.insert({erase_count, b});
  old = WlState{wl_candidate, erase_count};
}

VictimIndex::Selection VictimIndex::select(const VictimPolicy& policy, VictimPolicyKind kind,
                                           std::uint64_t now_seq, bool adjusted,
                                           const Excluded& excluded) const {
  const Family& family = adjusted ? adj_ : raw_;
  switch (kind) {
    case VictimPolicyKind::kGreedy:
      return select_bucket_min(family, excluded);
    case VictimPolicyKind::kCostBenefit:
      JITGC_ENSURE_MSG(needs_.by_recency, "cost-benefit queried without by_recency maintenance");
      return select_cost_benefit(policy, family, now_seq, excluded);
    case VictimPolicyKind::kFifo:
      // The score ignores valid_pages: adjusted == raw by construction.
      JITGC_ENSURE_MSG(needs_.by_fill, "FIFO queried without by_fill maintenance");
      return select_fifo(excluded);
    case VictimPolicyKind::kRandom:
      // Ditto; and the hash is per-candidate, so all candidates are scored.
      return select_scored_all(policy, now_seq, excluded);
    case VictimPolicyKind::kSampledGreedy:
      return select_sampled(static_cast<const SampledGreedyVictimPolicy&>(policy),
                            family, now_seq, excluded);
  }
  JITGC_ENSURE_MSG(false, "unknown victim policy kind");
  return Selection{};
}

VictimIndex::Selection VictimIndex::select_bucket_min(const Family& family,
                                                      const Excluded& excluded) const {
  // Greedy's score IS the bucket index, so the winner is the first
  // non-excluded id in the lowest non-empty bucket.
  Selection sel;
  for (std::uint32_t v = 0; v <= ppb_; ++v) {
    sel.block = family.by_id.walk(v, [&](std::uint32_t id) {
      ++sel.visited;
      return !is_excluded(id, excluded);
    });
    if (sel.block != kNoBlock) return sel;
  }
  return sel;
}

VictimIndex::Selection VictimIndex::select_cost_benefit(const VictimPolicy& policy,
                                                        const Family& family,
                                                        std::uint64_t now_seq,
                                                        const Excluded& excluded) const {
  // One representative per bucket: at fixed valid count the score is
  // strictly increasing in last_update_seq, so the by_recency head is the
  // bucket's (score, id) minimum — except in the constant-score buckets
  // (valid == 0: all -inf; valid == ppb: zero benefit) where ties must fall
  // back to the scan's id order.
  Selection sel;
  double best = std::numeric_limits<double>::infinity();
  for (std::uint32_t v = 0; v <= ppb_; ++v) {
    std::uint32_t rep = kNoBlock;
    if (v == 0 || v == ppb_) {
      rep = family.by_id.walk(v, [&](std::uint32_t id) {
        ++sel.visited;
        return !is_excluded(id, excluded);
      });
    } else {
      for (const auto& [seq, id] : family.by_recency[v]) {
        ++sel.visited;
        if (is_excluded(id, excluded)) continue;
        rep = id;
        break;
      }
    }
    if (rep == kNoBlock) continue;
    const BlockState& s = state_[rep];
    const VictimCandidate cand{.block_id = rep,
                               .valid_pages = v,
                               .pages_per_block = ppb_,
                               .last_update_seq = s.last_update_seq,
                               .fill_seq = s.fill_seq,
                               .sip_pages = 0};
    const double score = policy.score(cand, now_seq);
    if (score < best || (score == best && rep < sel.block)) {
      best = score;
      sel.block = rep;
    }
  }
  return sel;
}

VictimIndex::Selection VictimIndex::select_fifo(const Excluded& excluded) const {
  Selection sel;
  for (const auto& [fill_seq, id] : by_fill_) {
    ++sel.visited;
    if (is_excluded(id, excluded)) continue;
    sel.block = id;
    return sel;
  }
  return sel;
}

VictimIndex::Selection VictimIndex::select_scored_all(const VictimPolicy& policy,
                                                      std::uint64_t now_seq,
                                                      const Excluded& excluded) const {
  Selection sel;
  double best = std::numeric_limits<double>::infinity();
  for (std::uint32_t v = 0; v <= ppb_; ++v) {
    raw_.by_id.walk(v, [&](std::uint32_t id) {
      ++sel.visited;
      if (is_excluded(id, excluded)) return false;
      const BlockState& s = state_[id];
      const VictimCandidate cand{.block_id = id,
                                 .valid_pages = v,
                                 .pages_per_block = ppb_,
                                 .last_update_seq = s.last_update_seq,
                                 .fill_seq = s.fill_seq,
                                 .sip_pages = 0};
      const double score = policy.score(cand, now_seq);
      if (score < best || (score == best && id < sel.block)) {
        best = score;
        sel.block = id;
      }
      return false;
    });
  }
  return sel;
}

VictimIndex::Selection VictimIndex::select_sampled(const SampledGreedyVictimPolicy& policy,
                                                   const Family& family, std::uint64_t now_seq,
                                                   const Excluded& excluded) const {
  // Walk candidates in (valid, id) == (score-within-sample, id) order; the
  // first in-sample hit is the winner (the out-of-sample offset guarantees
  // no out-of-sample block can beat it). If the sample is empty, every score
  // carries the same offset, so the overall (valid, id) minimum — the first
  // candidate seen — wins.
  Selection sel;
  std::uint32_t fallback = kNoBlock;
  for (std::uint32_t v = 0; v <= ppb_; ++v) {
    sel.block = family.by_id.walk(v, [&](std::uint32_t id) {
      ++sel.visited;
      if (is_excluded(id, excluded)) return false;
      if (fallback == kNoBlock) fallback = id;
      return policy.is_sampled(id, now_seq);
    });
    if (sel.block != kNoBlock) return sel;
  }
  sel.block = fallback;
  return sel;
}

VictimIndex::Selection VictimIndex::select_coldest_full(const Excluded& excluded) const {
  Selection sel;
  for (const auto& [erase_count, id] : wl_) {
    ++sel.visited;
    if (is_excluded(id, excluded)) continue;
    sel.block = id;
    return sel;
  }
  return sel;
}

}  // namespace jitgc::ftl
