#include "sim/cli_options.h"

#include <cstdio>

#include "temp_path.h"
#include "workload/trace.h"

#include <gtest/gtest.h>

namespace jitgc::sim {
namespace {

std::optional<CliOptions> parse(std::initializer_list<const char*> args, std::string* err = nullptr) {
  std::vector<std::string> v(args.begin(), args.end());
  std::string error;
  const auto opt = parse_cli(v, error);
  if (err) *err = error;
  return opt;
}

TEST(CliOptions, DefaultsWhenEmpty) {
  const auto opt = parse({});
  ASSERT_TRUE(opt);
  EXPECT_EQ(opt->workload, "ycsb");
  EXPECT_EQ(opt->policy, PolicyKind::kJit);
  EXPECT_DOUBLE_EQ(opt->seconds, 300.0);
  EXPECT_FALSE(opt->csv);
}

TEST(CliOptions, ParsesFullCommandLine) {
  const auto opt = parse({"--workload=tpcc", "--policy=fixed", "--reserve=1.25",
                          "--seconds=120", "--seed=9", "--blocks-per-plane=128",
                          "--pages-per-block=64", "--op-ratio=0.1", "--endurance=500",
                          "--victim=cost-benefit", "--hot-cold", "--no-sip",
                          "--percentile=0.9", "--csv-header"});
  ASSERT_TRUE(opt);
  EXPECT_EQ(opt->workload, "tpcc");
  EXPECT_EQ(opt->policy, PolicyKind::kFixedReserve);
  EXPECT_DOUBLE_EQ(opt->fixed_reserve_multiple, 1.25);
  EXPECT_DOUBLE_EQ(opt->seconds, 120.0);
  EXPECT_EQ(opt->seed, 9u);
  EXPECT_EQ(opt->blocks_per_plane, 128u);
  EXPECT_EQ(opt->pages_per_block, 64u);
  EXPECT_DOUBLE_EQ(opt->op_ratio, 0.1);
  EXPECT_EQ(opt->endurance_pe_cycles, 500u);
  EXPECT_EQ(opt->victim_policy, ftl::VictimPolicyKind::kCostBenefit);
  EXPECT_TRUE(opt->hot_cold_separation);
  EXPECT_FALSE(opt->use_sip_list);
  EXPECT_DOUBLE_EQ(opt->direct_quantile, 0.9);
  EXPECT_TRUE(opt->csv);
  EXPECT_TRUE(opt->csv_header);
}

TEST(CliOptions, PolicyAliases) {
  EXPECT_EQ(parse({"--policy=l-bgc"})->policy, PolicyKind::kLazy);
  EXPECT_EQ(parse({"--policy=a-bgc"})->policy, PolicyKind::kAggressive);
  EXPECT_EQ(parse({"--policy=adp-gc"})->policy, PolicyKind::kAdaptive);
  EXPECT_EQ(parse({"--policy=jit-gc"})->policy, PolicyKind::kJit);
}

TEST(CliOptions, RejectsUnknownOption) {
  std::string err;
  EXPECT_FALSE(parse({"--bogus=1"}, &err));
  EXPECT_NE(err.find("--bogus"), std::string::npos);
  // The retired engine selector is gone, not a no-op.
  EXPECT_FALSE(parse({"--engine=event"}, &err));
  EXPECT_NE(err.find("unknown option '--engine'"), std::string::npos);
}

TEST(CliOptions, RejectsUnknownPolicy) {
  std::string err;
  EXPECT_FALSE(parse({"--policy=superlazy"}, &err));
  EXPECT_NE(err.find("superlazy"), std::string::npos);
}

TEST(CliOptions, RejectsBadNumbers) {
  EXPECT_FALSE(parse({"--seconds=abc"}));
  EXPECT_FALSE(parse({"--seconds=-5"}));
  EXPECT_FALSE(parse({"--seed=12x"}));
  EXPECT_FALSE(parse({"--percentile=1.5"}));
  EXPECT_FALSE(parse({"--reserve=0"}));
  EXPECT_FALSE(parse({"--blocks-per-plane=0"}));
}

TEST(CliOptions, ParsesFaultInjectionFlags) {
  const auto opt = parse({"--fault-program=0.01", "--fault-erase=0.005", "--fault-wear=0.5",
                          "--spare-blocks=12"});
  ASSERT_TRUE(opt);
  EXPECT_DOUBLE_EQ(opt->fault_program_fail_prob, 0.01);
  EXPECT_DOUBLE_EQ(opt->fault_erase_fail_prob, 0.005);
  EXPECT_DOUBLE_EQ(opt->fault_wear_fail_prob, 0.5);
  EXPECT_EQ(opt->spare_blocks, 12u);
}

TEST(CliOptions, RejectsOutOfRangeProbabilities) {
  // Every rejection is a one-line error naming the offending flag.
  const auto rejects = [](std::initializer_list<const char*> args, const char* flag) {
    std::string err;
    EXPECT_FALSE(parse(args, &err)) << flag;
    EXPECT_NE(err.find(flag), std::string::npos) << err;
    EXPECT_EQ(err.find('\n'), std::string::npos) << err;  // one line
  };
  rejects({"--fault-program=1.5"}, "--fault-program");
  rejects({"--fault-program=-0.1"}, "--fault-program");
  rejects({"--fault-erase=2"}, "--fault-erase");
  rejects({"--fault-wear=nan"}, "--fault-wear");
  rejects({"--trace-buffered=1.5"}, "--trace-buffered");
  rejects({"--trace-buffered=-1"}, "--trace-buffered");
  rejects({"--op-ratio=1"}, "--op-ratio");
  rejects({"--op-ratio=0"}, "--op-ratio");
  rejects({"--spare-blocks=many"}, "--spare-blocks");
  rejects({"--seconds=0"}, "--seconds");
  rejects({"--pages-per-block=0"}, "--pages-per-block");
  rejects({"--bgc-rate-limit=-1"}, "--bgc-rate-limit");
  rejects({"--service-queues=x"}, "--service-queues");
  // NaN fails every ordered comparison, so each range check is written in
  // the negated form; infinity is no duration either.
  rejects({"--seconds=nan"}, "--seconds");
  rejects({"--seconds=inf"}, "--seconds");
  rejects({"--seconds=10abc"}, "--seconds");
  rejects({"--reserve=nan"}, "--reserve");
  rejects({"--bgc-rate-limit=nan"}, "--bgc-rate-limit");
  rejects({"--rebuild-rate-floor=nan"}, "--rebuild-rate-floor");
  rejects({"--array-kill-at=nan"}, "--array-kill-at");
  rejects({"--array-outage-at=nan"}, "--array-outage-at");
  rejects({"--array-outage-restore-at=nan"}, "--array-outage-restore-at");
  rejects({"--percentile=nan"}, "--percentile");
  rejects({"--tenants=-1"}, "--tenants");
  // 2^32 + 256 must not wrap to 256, and a geometry whose packed 32-bit
  // page address overflows (4 planes x 2^24 blocks x 256 pages) is refused.
  rejects({"--blocks-per-plane=4294967552"}, "--blocks-per-plane");
  rejects({"--pages-per-block=4294967552"}, "--pages-per-block");
  rejects({"--spare-blocks=4294967552"}, "--spare-blocks");
  rejects({"--blocks-per-plane=16777216"}, "--blocks-per-plane");
  rejects({"--blocks-per-plane=4194304", "--pages-per-block=257"}, "--pages-per-block");
}

TEST(CliOptions, RequiresValues) {
  std::string err;
  EXPECT_FALSE(parse({"--workload"}, &err));
  EXPECT_NE(err.find("requires a value"), std::string::npos);
}

TEST(CliOptions, HelpFlag) {
  const auto opt = parse({"--help"});
  ASSERT_TRUE(opt);
  EXPECT_TRUE(opt->show_help);
  EXPECT_FALSE(cli_usage().empty());
}

TEST(CliOptions, RunFromCliSmoke) {
  CliOptions opt;
  opt.workload = "ycsb";
  opt.policy = PolicyKind::kLazy;
  opt.seconds = 20.0;
  opt.blocks_per_plane = 64;
  opt.pages_per_block = 128;
  const SimReport r = run_from_cli(opt);
  EXPECT_EQ(r.workload, "YCSB");
  EXPECT_GT(r.ops_completed, 0u);
}

TEST(CliOptions, RunFromCliWorkloadAliases) {
  CliOptions opt;
  opt.seconds = 10.0;
  opt.blocks_per_plane = 64;
  opt.pages_per_block = 128;
  for (const char* name : {"bonnie", "bonnie++", "tpc-c", "tpcc", "mail-server"}) {
    opt.workload = name;
    EXPECT_NO_THROW(run_from_cli(opt)) << name;
  }
  opt.workload = "no-such-benchmark";
  EXPECT_THROW(run_from_cli(opt), std::runtime_error);
}

TEST(CliOptions, NewModelFlags) {
  const auto opt = parse({"--service-queues=0", "--measured-idle", "--bgc-rate-limit=1e6",
                          "--victim=sampled-greedy"});
  ASSERT_TRUE(opt);
  EXPECT_EQ(opt->service_queues, 0u);
  EXPECT_TRUE(opt->use_measured_idle);
  EXPECT_DOUBLE_EQ(opt->bgc_rate_limit_bps, 1e6);
  EXPECT_EQ(opt->victim_policy, ftl::VictimPolicyKind::kSampledGreedy);
  EXPECT_FALSE(parse({"--bgc-rate-limit=-1"}));
  EXPECT_FALSE(parse({"--service-queues=x"}));
}

TEST(CliOptions, JsonFlagAndOutputShape) {
  const auto opt = parse({"--json"});
  ASSERT_TRUE(opt);
  EXPECT_TRUE(opt->json);

  SimReport r;
  r.workload = "YCSB";
  r.policy = "JIT-GC";
  r.iops = 123.0;
  const std::string json = format_json(r);
  EXPECT_NE(json.find("\"workload\": \"YCSB\""), std::string::npos);
  EXPECT_NE(json.find("\"policy\": \"JIT-GC\""), std::string::npos);
  EXPECT_NE(json.find("\"iops\": 123"), std::string::npos);
  EXPECT_NE(json.find("\"worn_out\": false"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(CliOptions, RunFromCliReplaysTraceFile) {
  // End-to-end: synthesize a tiny trace, write it, and run it via the CLI
  // path with a buffered re-synthesis fraction.
  const std::string path = testing_util::unique_temp_path("trace.csv");
  std::vector<wl::TraceRecord> records;
  for (int i = 0; i < 2000; ++i) {
    records.push_back(
        {i * 5000, i % 3 ? wl::OpType::kWrite : wl::OpType::kRead,
         static_cast<Bytes>((i * 37) % 5000) * 4096, 4096});
  }
  wl::write_msr_trace(path, records);

  CliOptions opt;
  opt.trace_path = path;
  opt.trace_buffered_fraction = 0.5;
  opt.seconds = 30.0;
  opt.blocks_per_plane = 64;
  opt.pages_per_block = 128;
  const SimReport r = run_from_cli(opt);
  EXPECT_EQ(r.workload, path);
  EXPECT_GT(r.ops_completed, 500u);
  std::remove(path.c_str());

  opt.trace_path = "/nonexistent/trace.csv";
  EXPECT_THROW(run_from_cli(opt), std::runtime_error);
}

TEST(CliOptions, CsvRowMatchesHeaderArity) {
  CliOptions opt;
  opt.seconds = 10.0;
  opt.blocks_per_plane = 64;
  opt.pages_per_block = 128;
  const SimReport r = run_from_cli(opt);
  const std::string header = csv_header_row();
  const std::string row = format_csv_row(r);
  const auto count = [](const std::string& s) {
    return std::count(s.begin(), s.end(), ',');
  };
  EXPECT_EQ(count(header), count(row));
}

}  // namespace
}  // namespace jitgc::sim
