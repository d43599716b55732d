// Deficit-weighted round robin over the per-tenant submission queues.
//
// Standard DRR (Shreedhar & Varghese) with per-queue weights: every time the
// round-robin cursor visits a backlogged queue it tops the queue's deficit up
// by quantum * weight, and the queue may dispatch head ops while its deficit
// covers their cost. A queue that empties forfeits its deficit (the DRR
// fairness rule); a queue that is merely blocked (rate cap, admission window)
// keeps it. Service is therefore work-conserving, throughput under
// saturation is proportional to the weights, and any positive-weight queue
// is served in bounded time regardless of how small its weight is (pick()
// advances whole top-up rounds at once instead of looping).
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace jitgc::frontend {

class DeficitScheduler {
 public:
  /// `weights` must all be positive; `quantum_bytes` is the per-round
  /// deficit top-up for a weight-1.0 queue.
  DeficitScheduler(std::vector<double> weights, Bytes quantum_bytes);

  /// Picks the next queue to serve, or -1 when none is ready.
  ///
  /// `head_cost[i]`: cost (bytes) of the op at the head of queue i (ignored
  /// when the queue is not ready). `ready[i]`: queue i has a head op that
  /// may be dispatched right now. `backlogged[i]`: queue i holds work, ready
  /// or not (a rate-blocked queue is backlogged but not ready — it keeps its
  /// deficit). On success the pick's cost is charged against the queue's
  /// deficit and the cursor stays on it, so a queue with deficit left keeps
  /// the floor until the deficit runs out.
  int pick(const std::vector<Bytes>& head_cost, const std::vector<std::uint8_t>& ready,
           const std::vector<std::uint8_t>& backlogged);

  /// Exactly what pick() does when no queue is backlogged: every queue
  /// forfeits its deficit and its top-up for the round. O(1) when no pick()
  /// ran since the last forfeit (the state is already all zero).
  void forfeit_all() {
    if (credited_) zero_credit();
  }

  std::size_t queues() const { return weights_.size(); }
  double deficit(std::size_t i) const { return deficit_[i]; }

 private:
  void zero_credit();

  std::vector<double> weights_;
  double quantum_;
  std::vector<double> deficit_;
  /// Whether the queue already received its top-up in the current round.
  std::vector<std::uint8_t> visited_;
  std::size_t cursor_ = 0;
  /// False while every deficit and visit flag is zero (since forfeit_all()).
  bool credited_ = false;
};

}  // namespace jitgc::frontend
