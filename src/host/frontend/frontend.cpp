#include "host/frontend/frontend.h"

#include <algorithm>
#include <cmath>

#include "common/ensure.h"
#include "common/rng.h"

namespace jitgc::frontend {
namespace {

/// Keys the per-tenant seed derivation off the run seed so tenant streams
/// are independent of each other and of the run's other RNG consumers.
constexpr std::uint64_t kTenantSeedSalt = 0x7E4A47;

std::vector<double> tenant_weights(const FrontendConfig& config) {
  std::vector<double> weights;
  weights.reserve(config.tenants.size());
  for (const TenantSpec& spec : config.tenants) weights.push_back(spec.weight);
  return weights;
}

}  // namespace

HostFrontend::HostFrontend(const FrontendConfig& config, Lba user_pages, Bytes page_size,
                           std::uint64_t seed, const GeneratorFactory& factory)
    : config_(config),
      page_size_(page_size),
      tenants_(config.tenants.size()),
      arrival_at_(config.tenants.size(), kNoArrival),
      scheduler_(tenant_weights(config), config.quantum_bytes) {
  const auto n = static_cast<Lba>(config.tenants.size());
  JITGC_ENSURE_MSG(n > 0, "the front-end needs at least one tenant");
  JITGC_ENSURE_MSG(config_.queue_depth > 0, "the admission window must be positive");
  JITGC_ENSURE_MSG(user_pages >= n, "device too small to partition across tenants");
  user_pages_ = user_pages;
  partitions_ = host::LbaPartitions::equal_share(user_pages, static_cast<std::uint32_t>(n));

  for (std::uint32_t t = 0; t < tenants_.size(); ++t) {
    Tenant& tenant = tenants_[t];
    tenant.spec = config.tenants[t];
    JITGC_ENSURE_MSG(tenant.spec.weight > 0.0, "tenant weights must be positive");
    tenant.offset = partition_offset(t);
    tenant.pages = partition_pages(t);
    tenant.generator =
        factory(tenant.spec, t, tenant.pages, derive_seed(seed ^ kTenantSeedSalt, t));
    JITGC_ENSURE_MSG(tenant.generator != nullptr, "tenant generator factory returned null");
    tenant.tokens = bucket_capacity(tenant);
    if (tenant.spec.rate_bps > 0.0) rate_capped_.push_back(t);
    stage_next(t, 0);

    const Lba fp = std::min<Lba>(tenant.generator->footprint_pages(), tenant.pages);
    footprint_pages_ = std::max(footprint_pages_, tenant.offset + fp);
    working_set_pages_ += std::min<Lba>(tenant.generator->working_set_pages(), tenant.pages);
  }
  working_set_pages_ = std::min(working_set_pages_, footprint_pages_);

  completions_.reserve(config_.queue_depth);
  head_cost_.resize(tenants_.size());
  ready_.resize(tenants_.size());
  backlogged_.resize(tenants_.size());
}

std::string HostFrontend::name() const {
  std::string out = "mt" + std::to_string(tenants_.size()) + "[";
  for (std::size_t t = 0; t < tenants_.size(); ++t) {
    if (t > 0) out += '+';
    out += tenants_[t].spec.mix;
  }
  out += ']';
  return out;
}

Lba HostFrontend::partition_pages(std::uint32_t tenant) const {
  // The last tenant absorbs the division remainder.
  if (tenant + 1 == tenants_.size()) {
    return user_pages_ - static_cast<Lba>(tenants_.size() - 1) * partitions_.share;
  }
  return partitions_.share;
}

void HostFrontend::stage_next(std::uint32_t t, TimeUs reference) {
  Tenant& tenant = tenants_[t];
  tenant.staged = tenant.generator->next();
  arrival_at_[t] = tenant.staged ? reference + tenant.staged->think_us : kNoArrival;
}

void HostFrontend::admit_arrivals(TimeUs now) {
  for (std::uint32_t t = 0; t < tenants_.size(); ++t) {
    Tenant& tenant = tenants_[t];
    while (arrival_at_[t] <= now) {
      QueuedOp& queued = tenant.queue.emplace_back();
      queued.op = *tenant.staged;
      queued.arrived_at = arrival_at_[t];
      // Remap into the tenant's contiguous partition; ops never cross the
      // partition boundary (clamped, mirroring the generators' own wrap).
      queued.op.lba = tenant.offset + (queued.op.lba % tenant.pages);
      const Lba end = tenant.offset + tenant.pages;
      if (queued.op.lba + queued.op.pages > end) {
        queued.op.pages = static_cast<std::uint32_t>(end - queued.op.lba);
      }
      ++queued_;
      ++tenant.interval_queued;
      if (tenant.spec.closed_loop) {
        // The next arrival is staged when this op completes.
        tenant.staged.reset();
        tenant.waiting_completion = true;
        arrival_at_[t] = kNoArrival;
      } else {
        stage_next(t, queued.arrived_at);
      }
    }
  }
}

std::optional<TimeUs> HostFrontend::next_arrival() const {
  const TimeUs best = *std::min_element(arrival_at_.begin(), arrival_at_.end());
  if (best == kNoArrival) return std::nullopt;
  return best;
}

double HostFrontend::bucket_capacity(const Tenant& tenant) const {
  // Big enough that a burst of a few ops can pass, small enough that the
  // cap bites within a fraction of a second.
  return std::max(static_cast<double>(config_.quantum_bytes), tenant.spec.rate_bps * 0.05);
}

void HostFrontend::refill_tokens(Tenant& tenant, TimeUs now) {
  if (now <= tenant.tokens_at) return;
  const double dt_s = static_cast<double>(now - tenant.tokens_at) / 1e6;
  tenant.tokens = std::min(bucket_capacity(tenant), tenant.tokens + tenant.spec.rate_bps * dt_s);
  tenant.tokens_at = now;
}

bool HostFrontend::rate_ok(const Tenant& tenant, Bytes cost) const {
  if (tenant.spec.rate_bps <= 0.0) return true;
  // An op bigger than the whole bucket passes on a full bucket (tokens go
  // negative and throttle what follows) — the cap can never deadlock.
  return tenant.tokens >= std::min(static_cast<double>(cost), bucket_capacity(tenant));
}

std::optional<DispatchedOp> HostFrontend::pick_backlogged() {
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    const Tenant& tenant = tenants_[i];
    backlogged_[i] = !tenant.queue.empty();
    if (backlogged_[i]) {
      head_cost_[i] = tenant.queue.front().op.bytes(page_size_);
      ready_[i] = rate_ok(tenant, head_cost_[i]);
    } else {
      head_cost_[i] = 0;
      ready_[i] = false;
    }
  }
  const int pick = scheduler_.pick(head_cost_, ready_, backlogged_);
  if (pick < 0) return std::nullopt;

  Tenant& tenant = tenants_[static_cast<std::size_t>(pick)];
  // Filled in the caller's slot (named return value), not copied into it.
  std::optional<DispatchedOp> dispatched(std::in_place);
  dispatched->tenant = static_cast<std::uint32_t>(pick);
  dispatched->op = tenant.queue.front().op;
  dispatched->enqueued_at = tenant.queue.front().arrived_at;
  tenant.queue.pop_front();
  --queued_;
  if (tenant.spec.rate_bps > 0.0) {
    tenant.tokens -= static_cast<double>(dispatched->op.bytes(page_size_));
  }
  return dispatched;
}

std::optional<TimeUs> HostFrontend::next_rate_eligible(TimeUs now) const {
  std::optional<TimeUs> best;
  for (const Tenant& tenant : tenants_) {
    if (tenant.queue.empty() || tenant.spec.rate_bps <= 0.0) continue;
    const double cap = bucket_capacity(tenant);
    const double dt_s = now > tenant.tokens_at
                            ? static_cast<double>(now - tenant.tokens_at) / 1e6
                            : 0.0;
    const double tokens_now = std::min(cap, tenant.tokens + tenant.spec.rate_bps * dt_s);
    const double cost = std::min(
        static_cast<double>(tenant.queue.front().op.bytes(page_size_)), cap);
    const double need = cost - tokens_now;
    if (need <= 0.0) continue;  // eligible already; not rate-blocked
    const auto wait_us =
        static_cast<TimeUs>(std::ceil(need / tenant.spec.rate_bps * 1e6));
    const TimeUs at = now + std::max<TimeUs>(wait_us, 1);
    if (!best || at < *best) best = at;
  }
  return best;
}

void HostFrontend::note_issued(const DispatchedOp& dispatched, TimeUs completion) {
  Tenant& tenant = tenants_[dispatched.tenant];
  const auto latency = static_cast<double>(completion - dispatched.enqueued_at);
  const Bytes bytes = dispatched.op.bytes(page_size_);

  tenant.latencies.add(latency);
  tenant.interval_latencies.add(latency);
  ++tenant.ops;
  ++tenant.interval_ops;
  switch (dispatched.op.type) {
    case wl::OpType::kWrite:
      tenant.write_latencies.add(latency);
      tenant.interval_write_latencies.add(latency);
      tenant.write_bytes += bytes;
      tenant.interval_write_bytes += bytes;
      if (dispatched.op.direct) tenant.interval_direct_bytes += bytes;
      break;
    case wl::OpType::kRead:
      tenant.read_latencies.add(latency);
      tenant.read_bytes += bytes;
      tenant.interval_read_bytes += bytes;
      break;
    case wl::OpType::kTrim:
      break;
  }

  const Completion entry{completion, completion_seq_++, dispatched.tenant};
  completions_.insert(std::upper_bound(completions_.begin(), completions_.end(), entry,
                                       std::greater<>()),
                      entry);
  ++outstanding_;
}

std::optional<TimeUs> HostFrontend::next_completion() const {
  if (completions_.empty()) return std::nullopt;
  return completions_.back().at;
}

void HostFrontend::retire_completions(TimeUs now) {
  while (!completions_.empty() && completions_.back().at <= now) {
    const Completion done = completions_.back();
    completions_.pop_back();
    JITGC_ENSURE_MSG(outstanding_ > 0, "completion retired with no op outstanding");
    --outstanding_;
    Tenant& tenant = tenants_[done.tenant];
    if (tenant.spec.closed_loop && tenant.waiting_completion) {
      tenant.waiting_completion = false;
      stage_next(done.tenant, done.at);
    }
  }
}

TenantIntervalStats HostFrontend::interval_stats(std::uint32_t tenant) const {
  const Tenant& t = tenants_[tenant];
  TenantIntervalStats stats;
  stats.ops = t.interval_ops;
  stats.queued = t.interval_queued;
  stats.write_bytes = t.interval_write_bytes;
  stats.read_bytes = t.interval_read_bytes;
  stats.p50_latency_us = t.interval_latencies.percentile(50.0);
  stats.p99_latency_us = t.interval_latencies.percentile(99.0);
  stats.max_latency_us = t.interval_latencies.percentile(100.0);
  stats.write_p99_latency_us = t.interval_write_latencies.percentile(99.0);
  return stats;
}

void HostFrontend::reset_interval_stats() {
  for (Tenant& tenant : tenants_) {
    tenant.interval_latencies.clear();
    tenant.interval_write_latencies.clear();
    tenant.interval_ops = 0;
    tenant.interval_queued = 0;
    tenant.interval_write_bytes = 0;
    tenant.interval_read_bytes = 0;
    tenant.interval_direct_bytes = 0;
  }
}

TenantRunStats HostFrontend::run_stats(std::uint32_t tenant) const {
  const Tenant& t = tenants_[tenant];
  TenantRunStats stats;
  stats.ops = t.ops;
  stats.write_bytes = t.write_bytes;
  stats.read_bytes = t.read_bytes;
  stats.mean_latency_us = t.latencies.mean();
  stats.p99_latency_us = t.latencies.percentile(99.0);
  stats.max_latency_us = t.latencies.percentile(100.0);
  stats.read_p99_latency_us = t.read_latencies.percentile(99.0);
  stats.write_p99_latency_us = t.write_latencies.percentile(99.0);
  return stats;
}

}  // namespace jitgc::frontend
