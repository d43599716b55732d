#include "host/frontend/dwrr.h"

#include <algorithm>
#include <cmath>

#include "common/ensure.h"

namespace jitgc::frontend {

DeficitScheduler::DeficitScheduler(std::vector<double> weights, Bytes quantum_bytes)
    : weights_(std::move(weights)),
      quantum_(static_cast<double>(quantum_bytes)),
      deficit_(weights_.size(), 0.0),
      visited_(weights_.size(), 0) {
  JITGC_ENSURE_MSG(!weights_.empty(), "DWRR needs at least one queue");
  JITGC_ENSURE_MSG(quantum_bytes > 0, "DWRR quantum must be positive");
  for (const double w : weights_) {
    JITGC_ENSURE_MSG(w > 0.0, "DWRR weights must be positive");
  }
}

void DeficitScheduler::zero_credit() {
  std::fill(deficit_.begin(), deficit_.end(), 0.0);
  std::fill(visited_.begin(), visited_.end(), 0);
  credited_ = false;
}

int DeficitScheduler::pick(const std::vector<Bytes>& head_cost,
                           const std::vector<std::uint8_t>& ready,
                           const std::vector<std::uint8_t>& backlogged) {
  const std::size_t n = weights_.size();
  JITGC_ENSURE_MSG(head_cost.size() == n && ready.size() == n && backlogged.size() == n,
                   "DWRR pick() vectors must match the queue count");
  credited_ = true;

  bool any_ready = false;
  for (std::size_t i = 0; i < n; ++i) {
    if (!backlogged[i]) {
      // An emptied queue forfeits its deficit (the DRR rule that stops idle
      // queues from hoarding credit); a blocked-but-backlogged one keeps it.
      deficit_[i] = 0.0;
      visited_[i] = 0;
    }
    if (ready[i]) any_ready = true;
  }
  if (!any_ready) return -1;

  // One round from the cursor: the first ready queue whose deficit (after
  // its per-round top-up) covers its head op wins and keeps the floor.
  for (std::size_t pass = 0; pass < n; ++pass) {
    const std::size_t i = (cursor_ + pass) % n;
    if (!ready[i]) continue;
    if (!visited_[i]) {
      deficit_[i] += quantum_ * weights_[i];
      visited_[i] = 1;
    }
    if (deficit_[i] >= static_cast<double>(head_cost[i])) {
      deficit_[i] -= static_cast<double>(head_cost[i]);
      cursor_ = i;
      return static_cast<int>(i);
    }
    // This queue's turn is over; its next visit tops it up again.
    visited_[i] = 0;
  }

  // No ready queue could cover its head in a single round (cost far above
  // quantum * weight). Grant whole rounds at once: the minimum round count
  // that lets some queue serve, keeping per-pick work O(n) even for
  // arbitrarily small weights.
  double min_rounds = 0.0;
  bool first = true;
  for (std::size_t i = 0; i < n; ++i) {
    if (!ready[i]) continue;
    const double need = static_cast<double>(head_cost[i]) - deficit_[i];
    const double rounds = std::ceil(std::max(need, 0.0) / (quantum_ * weights_[i]));
    if (first || rounds < min_rounds) min_rounds = rounds;
    first = false;
  }
  if (min_rounds < 1.0) min_rounds = 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (ready[i]) deficit_[i] += min_rounds * quantum_ * weights_[i];
  }
  for (std::size_t pass = 0; pass < n; ++pass) {
    const std::size_t i = (cursor_ + pass) % n;
    if (!ready[i]) continue;
    if (deficit_[i] >= static_cast<double>(head_cost[i])) {
      deficit_[i] -= static_cast<double>(head_cost[i]);
      visited_[i] = 1;
      cursor_ = i;
      return static_cast<int>(i);
    }
  }
  // Unreachable: the bulk top-up made at least one ready queue solvent.
  JITGC_ENSURE_MSG(false, "DWRR bulk top-up failed to make any queue solvent");
  return -1;
}

}  // namespace jitgc::frontend
