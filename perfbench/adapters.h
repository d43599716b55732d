// Outside-in timing adapters for the perfbench driver.
//
// Each adapter wraps one public extension interface of the simulator
// (wl::WorkloadGenerator, core::BgcPolicy, sim::MetricsSink) and forwards
// every virtual unchanged, so a wrapped run simulates exactly what the bare
// run simulates. What the adapters add is host wall-clock bookkeeping in a
// shared Probe:
//
//  * the instant of the first next() call after Probe::arm() — the start of
//    the measured run (preconditioning never pulls ops, and a HostFrontend
//    stages its first arrivals in its constructor, before arm());
//  * with Probe::timed set, the summed duration of every wrapped call
//    (spans), which the driver subtracts from measured wall time to get the
//    engine's self time;
//  * for the sink, the host instant of every tick record plus a caller-
//    supplied device counter sample, the raw material of the steady-state
//    evidence (host ms and WAF per simulated interval).
//
// HostFrontend is deliberately not wrapped: the simulators downcast their
// workload to it in tenant mode. A wrapped multi-stream policy hides from the
// simulator's dynamic_cast, which only drops the tenant_interval attribution
// fields; run-level output is unchanged.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/bgc_policy.h"
#include "host/frontend/frontend.h"
#include "sim/metrics_sink.h"
#include "workload/workload.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Summed wall time of one kind of wrapped call.
struct Span {
  std::int64_t ns = 0;
  std::uint64_t calls = 0;
  void add(Clock::time_point start, Clock::time_point end) {
    ns += std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count();
    ++calls;
  }
};

/// Host-side observations shared by all adapters of one run.
struct Probe {
  /// Time every wrapped call (traced run). Off, only the measured-run start
  /// is stamped, at the cost of one branch per op.
  bool timed = false;
  bool armed = false;
  std::optional<Clock::time_point> measured_start;
  Span next;
  Span policy;
  Span sink;

  /// Called right before run(): the next next() call starts the measured run.
  void arm() { armed = true; }
};

class ProbedGenerator final : public jitgc::wl::WorkloadGenerator {
 public:
  ProbedGenerator(std::unique_ptr<jitgc::wl::WorkloadGenerator> inner, Probe& probe)
      : inner_(std::move(inner)), probe_(probe) {}

  std::string name() const override { return inner_->name(); }
  std::optional<jitgc::wl::AppOp> next() override {
    if (!probe_.measured_start) {
      if (probe_.armed) probe_.measured_start = Clock::now();
      return inner_->next();
    }
    if (!probe_.timed) return inner_->next();
    const Clock::time_point start = Clock::now();
    std::optional<jitgc::wl::AppOp> op = inner_->next();
    probe_.next.add(start, Clock::now());
    return op;
  }
  jitgc::Lba footprint_pages() const override { return inner_->footprint_pages(); }
  jitgc::Lba working_set_pages() const override { return inner_->working_set_pages(); }

 private:
  std::unique_ptr<jitgc::wl::WorkloadGenerator> inner_;
  Probe& probe_;
};

/// Wraps every generator a frontend::GeneratorFactory builds.
inline jitgc::frontend::GeneratorFactory probed_factory(jitgc::frontend::GeneratorFactory inner,
                                                        Probe& probe) {
  return [inner = std::move(inner), &probe](const jitgc::frontend::TenantSpec& spec,
                                            std::uint32_t tenant, jitgc::Lba partition_pages,
                                            std::uint64_t seed)
             -> std::unique_ptr<jitgc::wl::WorkloadGenerator> {
    return std::make_unique<ProbedGenerator>(inner(spec, tenant, partition_pages, seed), probe);
  };
}

class ProbedPolicy final : public jitgc::core::BgcPolicy {
 public:
  ProbedPolicy(jitgc::core::BgcPolicy& inner, Probe& probe) : inner_(inner), probe_(probe) {}

  std::string name() const override { return inner_.name(); }
  jitgc::core::PolicyDecision on_interval(const jitgc::core::PolicyContext& ctx) override {
    const Clock::time_point start = Clock::now();
    jitgc::core::PolicyDecision decision = inner_.on_interval(ctx);
    probe_.policy.add(start, Clock::now());
    return decision;
  }
  bool wants_sip_filter() const override { return inner_.wants_sip_filter(); }
  std::uint32_t custom_commands_per_interval() const override {
    return inner_.custom_commands_per_interval();
  }

 private:
  jitgc::core::BgcPolicy& inner_;
  Probe& probe_;
};

/// One tick as the host saw it: when the record arrived, and the device
/// counters (NAND programs, host pages written) sampled at that instant.
struct TickSample {
  Clock::time_point at;
  std::uint64_t programs = 0;
  std::uint64_t host_pages = 0;
};

class ProbedSink final : public jitgc::sim::MetricsSink {
 public:
  /// `counters` returns cumulative (programs, host pages written) over the
  /// simulated devices; it is sampled once per tick record.
  using Counters = std::function<std::pair<std::uint64_t, std::uint64_t>()>;

  ProbedSink(jitgc::sim::MetricsSink& inner, Probe& probe, Counters counters)
      : inner_(inner), probe_(probe), counters_(std::move(counters)) {}

  const std::vector<TickSample>& ticks() const { return ticks_; }

  void on_interval(const jitgc::sim::IntervalRecord& r) override {
    tick();
    forward([&] { inner_.on_interval(r); });
  }
  void on_tenant_interval(const jitgc::sim::TenantIntervalRecord& r) override {
    forward([&] { inner_.on_tenant_interval(r); });
  }
  void on_fault(const jitgc::sim::FaultRecord& r) override {
    forward([&] { inner_.on_fault(r); });
  }
  void on_array_interval(const jitgc::sim::ArrayIntervalRecord& r) override {
    tick();
    forward([&] { inner_.on_array_interval(r); });
  }
  void on_device_interval(const jitgc::sim::DeviceIntervalRecord& r) override {
    forward([&] { inner_.on_device_interval(r); });
  }
  void on_rebuild_progress(const jitgc::sim::RebuildProgressRecord& r) override {
    forward([&] { inner_.on_rebuild_progress(r); });
  }
  void on_array_state(const jitgc::sim::ArrayStateRecord& r) override {
    forward([&] { inner_.on_array_state(r); });
  }
  void on_recovery(const jitgc::sim::RecoveryRecord& r) override {
    forward([&] { inner_.on_recovery(r); });
  }
  void on_run_end(const jitgc::sim::SimReport& r) override {
    forward([&] { inner_.on_run_end(r); });
  }

 private:
  void tick() {
    const Clock::time_point at = Clock::now();
    const auto [programs, host_pages] = counters_();
    ticks_.push_back(TickSample{at, programs, host_pages});
    probe_.sink.add(at, Clock::now());
  }
  template <typename Call>
  void forward(Call&& call) {
    const Clock::time_point start = Clock::now();
    call();
    probe_.sink.add(start, Clock::now());
  }

  jitgc::sim::MetricsSink& inner_;
  Probe& probe_;
  Counters counters_;
  std::vector<TickSample> ticks_;
};

}  // namespace perfbench
