// Multi-tenant NVMe-style host front-end: per-tenant submission queues
// drained by a deficit-weighted-round-robin scheduler.
//
// Structure (modelled on the FEMU/NVMeVirt multi-queue dispatch loop, see
// ROADMAP): each tenant owns a submission queue fed by its own workload
// generator on an independently derived seed, and a completion stream the
// front-end tracks in a min-heap. The shared measured-run loop
// (sim/run_loop.h) drives it as its second arrival source — kTenantArrival
// admits due arrivals into the queues, the dispatch step drains queues
// through the DWRR scheduler into the device while the global admission
// window has room, and kOpComplete retires completions (closing the loop for
// closed-loop tenants). The front-end is pure queue state plus bookkeeping.
//
// LBA space is partitioned: tenant t of N owns the contiguous range
// [t * (user_pages / N), ...), the last tenant taking the remainder, so
// tenant_of_lba() is O(1) and per-tenant predictors can attribute any dirty
// page to its stream.
//
// HostFrontend implements wl::WorkloadGenerator so the simulators'
// preconditioning (footprint fill + working-set scramble) and snapshot
// fingerprints work unchanged; next() is never called in tenant mode.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "host/frontend/dwrr.h"
#include "host/frontend/tenant_config.h"
#include "host/page_cache.h"
#include "workload/workload.h"

namespace jitgc::frontend {

/// Builds tenant `tenant`'s workload generator: `partition_pages` is the
/// tenant's share of the LBA space (the generator's user-page budget) and
/// `seed` its independently derived RNG seed.
using GeneratorFactory = std::function<std::unique_ptr<wl::WorkloadGenerator>(
    const TenantSpec& spec, std::uint32_t tenant, Lba partition_pages, std::uint64_t seed)>;

/// An op handed to the device by the scheduler. Latency is measured from
/// `enqueued_at` (the arrival instant), so queueing delay — the thing the
/// scheduler controls — is part of every tenant's tail.
struct DispatchedOp {
  std::uint32_t tenant = 0;
  wl::AppOp op;
  TimeUs enqueued_at = 0;
};

/// Per-tenant counters for the interval that just closed.
struct TenantIntervalStats {
  std::uint64_t ops = 0;     ///< completed dispatches
  std::uint64_t queued = 0;  ///< arrivals admitted to the queue
  Bytes write_bytes = 0;
  Bytes read_bytes = 0;
  double p50_latency_us = 0.0;
  double p99_latency_us = 0.0;
  double max_latency_us = 0.0;
  double write_p99_latency_us = 0.0;
};

/// Per-tenant totals over the whole measured run.
struct TenantRunStats {
  std::uint64_t ops = 0;
  Bytes write_bytes = 0;
  Bytes read_bytes = 0;
  double mean_latency_us = 0.0;
  double p99_latency_us = 0.0;
  double max_latency_us = 0.0;
  double read_p99_latency_us = 0.0;
  double write_p99_latency_us = 0.0;
};

class HostFrontend final : public wl::WorkloadGenerator {
 public:
  /// `user_pages` is the device's logical capacity (the LBA space being
  /// partitioned) and `page_size` its page size (op costs for the scheduler
  /// and rate buckets). `seed` keys every tenant's derived generator seed.
  HostFrontend(const FrontendConfig& config, Lba user_pages, Bytes page_size,
               std::uint64_t seed, const GeneratorFactory& factory);

  // -- wl::WorkloadGenerator facade (preconditioning / fingerprints) ---------
  std::string name() const override;
  /// Never called in tenant mode; the event loop pulls via admit/dispatch.
  std::optional<wl::AppOp> next() override { return std::nullopt; }
  Lba footprint_pages() const override { return footprint_pages_; }
  Lba working_set_pages() const override { return working_set_pages_; }

  // -- topology --------------------------------------------------------------
  std::uint32_t tenant_count() const { return static_cast<std::uint32_t>(tenants_.size()); }
  const TenantSpec& spec(std::uint32_t tenant) const { return tenants_[tenant].spec; }
  std::uint32_t queue_depth() const { return config_.queue_depth; }
  /// The contiguous equal-share partition, one partition per tenant.
  const host::LbaPartitions& partitions() const { return partitions_; }
  /// The tenant owning `lba` under the partition.
  std::uint32_t tenant_of_lba(Lba lba) const { return partitions_.of(lba); }
  Lba partition_pages(std::uint32_t tenant) const;
  Lba partition_offset(std::uint32_t tenant) const {
    return static_cast<Lba>(tenant) * partitions_.share;
  }

  // -- event-loop interface --------------------------------------------------
  /// Moves every arrival due at or before `now` into its tenant's queue and
  /// stages the follow-up arrival (open loop) or parks until completion
  /// (closed loop).
  void admit_arrivals(TimeUs now);
  /// Earliest staged arrival instant, or nullopt when every tenant is
  /// drained or waiting on a completion.
  std::optional<TimeUs> next_arrival() const;
  /// One DWRR pick honoring rate caps; nullopt when no queue is ready. The
  /// caller must respect the admission window (outstanding() < queue_depth).
  /// A pass over empty queues returns at once, leaving the state the full
  /// pass would: rate buckets refilled at `now` and DWRR's forfeit applied.
  std::optional<DispatchedOp> pop_dispatch(TimeUs now) {
    // Buckets refill at every pass, empty or not: the token arithmetic is
    // floating-point, so skipping a refill instant would change later sums.
    for (const std::uint32_t t : rate_capped_) refill_tokens(tenants_[t], now);
    if (queued_ == 0) {
      scheduler_.forfeit_all();  // what pick() does with nothing backlogged
      return std::nullopt;
    }
    return pick_backlogged();
  }
  /// Earliest instant a rate-blocked backlogged tenant becomes eligible
  /// (strictly after `now`), or nullopt when nothing is rate-blocked.
  std::optional<TimeUs> next_rate_eligible(TimeUs now) const;
  /// Registers a dispatched op's completion time: occupies an admission
  /// slot until retired and records the op's latency into the tenant's
  /// interval/run trackers.
  void note_issued(const DispatchedOp& dispatched, TimeUs completion);
  /// Earliest outstanding completion, or nullopt when none are in flight.
  std::optional<TimeUs> next_completion() const;
  /// Retires completions due at or before `now`, freeing admission slots
  /// and staging closed-loop tenants' next arrivals.
  void retire_completions(TimeUs now);
  std::uint32_t outstanding() const { return outstanding_; }
  /// Any tenant holding a queued (admitted, undispatched) op.
  bool backlog() const { return queued_ != 0; }

  // -- metrics ---------------------------------------------------------------
  TenantIntervalStats interval_stats(std::uint32_t tenant) const;
  /// Direct-write bytes dispatched for `tenant` in the open interval (the
  /// per-tenant CDH observation).
  Bytes interval_direct_bytes(std::uint32_t tenant) const {
    return tenants_[tenant].interval_direct_bytes;
  }
  /// Closes the interval: clears every tenant's interval trackers.
  void reset_interval_stats();
  TenantRunStats run_stats(std::uint32_t tenant) const;

  // -- scheduler state (tests) -----------------------------------------------
  const DeficitScheduler& scheduler() const { return scheduler_; }
  /// Tenant's rate-cap bucket, in bytes, as of its last refill.
  double tokens(std::uint32_t tenant) const { return tenants_[tenant].tokens; }

 private:
  struct QueuedOp {
    wl::AppOp op;
    TimeUs arrived_at = 0;
  };

  /// FIFO of queued ops in one vector: slots before `head` are spent, and
  /// the vector is emptied whenever the queue drains (or compacted once half
  /// spent), so a queue that hovers near empty keeps reusing the same
  /// memory instead of walking through fresh deque nodes.
  class OpQueue {
   public:
    bool empty() const { return head_ == ops_.size(); }
    const QueuedOp& front() const { return ops_[head_]; }
    QueuedOp& emplace_back() { return ops_.emplace_back(); }
    void pop_front() {
      if (++head_ == ops_.size()) {
        ops_.clear();
        head_ = 0;
      } else if (2 * head_ >= ops_.size()) {
        ops_.erase(ops_.begin(), ops_.begin() + static_cast<std::ptrdiff_t>(head_));
        head_ = 0;
      }
    }

   private:
    std::vector<QueuedOp> ops_;
    std::size_t head_ = 0;
  };

  struct Tenant {
    TenantSpec spec;
    std::unique_ptr<wl::WorkloadGenerator> generator;
    Lba offset = 0;
    Lba pages = 0;
    /// Next op not yet arrived; arrival_at_ holds its arrival instant.
    std::optional<wl::AppOp> staged;
    /// Closed loop: the next arrival is staged when the in-flight op
    /// completes, not before.
    bool waiting_completion = false;
    OpQueue queue;
    /// Rate-cap token bucket (engaged when spec.rate_bps > 0).
    double tokens = 0.0;
    TimeUs tokens_at = 0;
    // Interval accumulators (reset each flusher tick).
    TailTracker interval_latencies;
    TailTracker interval_write_latencies;
    std::uint64_t interval_ops = 0;
    std::uint64_t interval_queued = 0;
    Bytes interval_write_bytes = 0;
    Bytes interval_read_bytes = 0;
    Bytes interval_direct_bytes = 0;
    // Run-level totals.
    TailTracker latencies = TailTracker::run_level();
    TailTracker write_latencies = TailTracker::run_level();
    TailTracker read_latencies = TailTracker::run_level();
    std::uint64_t ops = 0;
    Bytes write_bytes = 0;
    Bytes read_bytes = 0;
  };

  /// In-flight completion; `seq` makes (at, seq) a total order, so pops are
  /// deterministic under ties.
  struct Completion {
    TimeUs at = 0;
    std::uint64_t seq = 0;
    std::uint32_t tenant = 0;
    bool operator>(const Completion& o) const {
      if (at != o.at) return at > o.at;
      return seq > o.seq;
    }
  };

  /// Stages tenant `t`'s next op to arrive its think time after `reference`.
  void stage_next(std::uint32_t t, TimeUs reference);
  /// The full dispatch pass, over queues holding at least one op.
  std::optional<DispatchedOp> pick_backlogged();
  /// Tops a rate-capped tenant's bucket up to `now`.
  void refill_tokens(Tenant& tenant, TimeUs now);
  double bucket_capacity(const Tenant& tenant) const;
  bool rate_ok(const Tenant& tenant, Bytes cost) const;

  FrontendConfig config_;
  Bytes page_size_;
  Lba user_pages_ = 0;
  host::LbaPartitions partitions_;  ///< equal share (last tenant takes the remainder)
  Lba footprint_pages_ = 0;
  Lba working_set_pages_ = 0;
  std::vector<Tenant> tenants_;
  /// Each tenant's staged arrival instant, kNoArrival when none is staged
  /// (drained, or closed loop waiting on its completion). Kept apart from
  /// the large Tenant records so next_arrival() scans one dense array.
  static constexpr TimeUs kNoArrival = std::numeric_limits<TimeUs>::max();
  std::vector<TimeUs> arrival_at_;
  DeficitScheduler scheduler_;
  /// In-flight completions sorted latest-first, so the earliest pops from
  /// the back; the admission window caps it at queue_depth entries.
  std::vector<Completion> completions_;
  std::uint64_t completion_seq_ = 0;
  std::uint32_t outstanding_ = 0;
  /// Ops admitted to a queue and not yet dispatched, over every tenant.
  std::uint64_t queued_ = 0;
  /// Tenants with a rate cap (spec.rate_bps > 0), the only ones refilled.
  std::vector<std::uint32_t> rate_capped_;
  // Scratch vectors for pick_backlogged (avoid per-pick allocation).
  std::vector<Bytes> head_cost_;
  std::vector<std::uint8_t> ready_;
  std::vector<std::uint8_t> backlogged_;
};

}  // namespace jitgc::frontend
