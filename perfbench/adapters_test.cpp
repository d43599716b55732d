// Checks that every perfbench timing adapter forwards every virtual of the
// interface it wraps, unchanged, and stamps the measured-run start only
// after arm().
//
//   perfbench_adapters_test   (exit 0 = pass)
#include <cstdio>
#include <memory>

#include "adapters.h"

namespace {

using namespace jitgc;
using namespace perfbench;

int failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, __LINE__, #cond); \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

class FakeGenerator final : public wl::WorkloadGenerator {
 public:
  std::string name() const override { return "fake"; }
  std::optional<wl::AppOp> next() override {
    ++calls;
    if (calls > 3) return std::nullopt;
    wl::AppOp op;
    op.lba = calls;
    op.think_us = 10 * calls;
    return op;
  }
  Lba footprint_pages() const override { return 123; }
  Lba working_set_pages() const override { return 45; }
  int calls = 0;
};

class FakePolicy final : public core::BgcPolicy {
 public:
  std::string name() const override { return "fake-policy"; }
  core::PolicyDecision on_interval(const core::PolicyContext& ctx) override {
    core::PolicyDecision d;
    d.reclaim_bytes = ctx.c_free * 2;
    d.urgent_reclaim_bytes = 5;
    d.predicted_horizon_bytes = 9.5;
    return d;
  }
  bool wants_sip_filter() const override { return true; }
  std::uint32_t custom_commands_per_interval() const override { return 7; }
};

void generator_forwards_and_stamps() {
  Probe probe;
  probe.timed = true;
  auto fake = std::make_unique<FakeGenerator>();
  FakeGenerator& inner = *fake;
  ProbedGenerator gen(std::move(fake), probe);
  CHECK(gen.name() == "fake");
  CHECK(gen.footprint_pages() == 123);
  CHECK(gen.working_set_pages() == 45);

  // A pull before arm() (a front-end staging its first arrivals) is set-up.
  CHECK(gen.next()->lba == 1);
  CHECK(!probe.measured_start);
  probe.arm();
  const auto op = gen.next();
  CHECK(op && op->lba == 2 && op->think_us == 20);
  CHECK(probe.measured_start.has_value());
  CHECK(probe.next.calls == 0);  // the stamping call is not a timed span
  CHECK(gen.next()->lba == 3);
  CHECK(!gen.next().has_value());  // exhaustion is forwarded too
  CHECK(probe.next.calls == 2);
  CHECK(inner.calls == 4);
}

void untimed_generator_only_stamps() {
  Probe probe;
  ProbedGenerator gen(std::make_unique<FakeGenerator>(), probe);
  probe.arm();
  gen.next();
  gen.next();
  CHECK(probe.measured_start.has_value());
  CHECK(probe.next.calls == 0);
}

void factory_wraps_every_generator() {
  Probe probe;
  int built = 0;
  frontend::GeneratorFactory inner = [&built](const frontend::TenantSpec&, std::uint32_t, Lba,
                                              std::uint64_t) {
    ++built;
    return std::unique_ptr<wl::WorkloadGenerator>(std::make_unique<FakeGenerator>());
  };
  const frontend::GeneratorFactory probed = probed_factory(inner, probe);
  auto gen = probed(frontend::TenantSpec{}, 0, 100, 1);
  CHECK(built == 1);
  CHECK(dynamic_cast<ProbedGenerator*>(gen.get()) != nullptr);
  CHECK(gen->name() == "fake");
  probe.arm();
  gen->next();
  CHECK(probe.measured_start.has_value());
}

void policy_forwards() {
  Probe probe;
  FakePolicy inner;
  ProbedPolicy policy(inner, probe);
  CHECK(policy.name() == "fake-policy");
  CHECK(policy.wants_sip_filter());
  CHECK(policy.custom_commands_per_interval() == 7);
  core::PolicyContext ctx;
  ctx.c_free = 21;
  const core::PolicyDecision d = policy.on_interval(ctx);
  CHECK(d.reclaim_bytes == 42);
  CHECK(d.urgent_reclaim_bytes == 5);
  CHECK(d.predicted_horizon_bytes == 9.5);
  CHECK(probe.policy.calls == 1);
}

void sink_forwards_every_record() {
  Probe probe;
  sim::RecordingMetricsSink inner;
  std::uint64_t samples = 0;
  ProbedSink sink(inner, probe, [&samples] {
    ++samples;
    return std::pair<std::uint64_t, std::uint64_t>{10 * samples, 5 * samples};
  });
  sim::IntervalRecord interval;
  interval.interval = 3;
  sink.on_interval(interval);
  sink.on_tenant_interval(sim::TenantIntervalRecord{});
  sink.on_fault(sim::FaultRecord{});
  sim::ArrayIntervalRecord array_interval;
  array_interval.gc_devices = 2;
  sink.on_array_interval(array_interval);
  sink.on_device_interval(sim::DeviceIntervalRecord{});
  sink.on_rebuild_progress(sim::RebuildProgressRecord{});
  sink.on_array_state(sim::ArrayStateRecord{});
  sink.on_recovery(sim::RecoveryRecord{});
  sim::SimReport report;
  report.ops_completed = 77;
  sink.on_run_end(report);

  CHECK(inner.intervals().size() == 1 && inner.intervals()[0].interval == 3);
  CHECK(inner.tenant_intervals().size() == 1);
  CHECK(inner.faults().size() == 1);
  CHECK(inner.array_intervals().size() == 1 && inner.array_intervals()[0].gc_devices == 2);
  CHECK(inner.device_intervals().size() == 1);
  CHECK(inner.rebuild_progress().size() == 1);
  CHECK(inner.array_states().size() == 1);
  CHECK(inner.recoveries().size() == 1);
  CHECK(inner.has_report() && inner.report().ops_completed == 77);
  // One tick sample per tick record (single-SSD interval or array interval).
  CHECK(sink.ticks().size() == 2 && samples == 2);
  CHECK(sink.ticks()[1].programs == 20 && sink.ticks()[1].host_pages == 10);
  CHECK(probe.sink.calls > 0);
}

}  // namespace

int main() {
  generator_forwards_and_stamps();
  untimed_generator_only_stamps();
  factory_wraps_every_generator();
  policy_forwards();
  sink_forwards_every_record();
  if (failures != 0) {
    std::fprintf(stderr, "perfbench_adapters_test: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench_adapters_test: all checks passed\n");
  return 0;
}
