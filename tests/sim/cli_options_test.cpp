#include "sim/cli_options.h"

#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>

#include "ftl/ftl.h"
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

/// User pages of the default device, read from a built FTL.
Lba default_volume_pages() {
  return ftl::Ftl(default_sim_config().ssd.ftl).user_pages();
}

/// A 4-device parity array of default devices (8-page chunks): three data
/// slots of whole chunks.
Lba parity4_volume_pages() { return 3 * (default_volume_pages() / 8 * 8); }

TEST(CliOptions, AcceptsOneTenantPerVolumePage) {
  const std::string one_ssd = "--tenants=" + std::to_string(default_volume_pages());
  const std::string parity = "--tenants=" + std::to_string(parity4_volume_pages());
  EXPECT_TRUE(parse({one_ssd.c_str(), "--tenant-mix=ycsb"}));
  EXPECT_TRUE(parse({"--array-devices=4", "--array-redundancy=parity", parity.c_str()}));
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
                          "--spare-blocks=12", "--endurance=3000"});
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
  // Every flag that fills a 32-bit field refuses 2^32 instead of wrapping
  // (to 0 tenants, a 1-device array, slot 1, volume 0 ...); a slot index
  // also refuses 2^32 - 1, which wrapped to -1 and turned the fault off.
  rejects({"--tenants=4294967296", "--tenant-mix=ycsb"}, "--tenants");
  rejects({"--tenants=2", "--tenant-queue-depth=4294967296"}, "--tenant-queue-depth");
  rejects({"--service-queues=4294967296"}, "--service-queues");
  rejects({"--array-devices=4294967297"}, "--array-devices");
  rejects({"--stripe-chunk=4294967296"}, "--stripe-chunk");
  rejects({"--array-max-concurrent-gc=4294967296"}, "--array-max-concurrent-gc");
  rejects({"--array-spares=4294967296"}, "--array-spares");
  rejects({"--tenants=1", "--trace=t.csv", "--trace-volume-map=4294967296"},
          "--trace-volume-map");
  rejects({"--array-devices=4", "--array-kill-device=4294967297"}, "--array-kill-device");
  rejects({"--array-devices=4", "--array-kill-device=4294967295"}, "--array-kill-device");
  rejects({"--array-devices=4", "--array-outage-device=4294967296"}, "--array-outage-device");
  rejects({"--array-devices=4", "--array-spo-device=4294967296"}, "--array-spo-device");
  // Each tenant needs a page of the volume: a larger count is refused here,
  // before a tenant list is built (one SSD's user pages, or the array's
  // capacity under its layout), and so is the largest 32-bit count.
  const std::string one_ssd_over = "--tenants=" + std::to_string(default_volume_pages() + 1);
  rejects({one_ssd_over.c_str(), "--tenant-mix=ycsb"}, "--tenants");
  rejects({"--tenants=4294967295", "--tenant-mix=ycsb"}, "--tenants");
  const std::string parity_over = "--tenants=" + std::to_string(parity4_volume_pages() + 1);
  rejects({"--array-devices=4", "--array-redundancy=parity", parity_over.c_str()}, "--tenants");
  rejects({"--array-devices=4", "--tenants=4294967295"}, "--tenants");
  rejects({"--tenants=4294967295"}, "--tenants");
  // The layout rules that size the volume are named at parse time too.
  rejects({"--array-devices=3", "--array-redundancy=mirror"}, "--array-redundancy");
  rejects({"--array-devices=2", "--array-redundancy=parity"}, "--array-redundancy");
  rejects({"--array-devices=2", "--stripe-chunk=4294967295"}, "--stripe-chunk");
  // A slot at or above --array-devices is a parse error, not a run-time ENSURE.
  rejects({"--array-devices=4", "--array-kill-device=4"}, "--array-kill-device");
  rejects({"--array-devices=4", "--array-outage-device=7"}, "--array-outage-device");
  rejects({"--array-devices=2", "--array-spo-device=2"}, "--array-spo-device");
  // Wear failures ramp up towards the endurance rating; without one they
  // would silently never happen.
  rejects({"--fault-wear=0.5"}, "--fault-wear");
  // A switch given a value is refused, never read as "on".
  rejects({"--no-sip=false"}, "--no-sip");
  rejects({"--hot-cold=0"}, "--hot-cold");
  rejects({"--csv=no"}, "--csv");
  rejects({"--json=0"}, "--json");
  rejects({"--measured-idle=off"}, "--measured-idle");
  // A flag only the other mode's runner reads is refused, never ignored: the
  // kill used to be dropped from a single-SSD run, and the array used to run
  // without the policy, rate limit, SIP switch and power cut it was given.
  rejects({"--array-kill-device=3", "--policy=lazy", "--seconds=10"}, "--array-kill-device");
  rejects({"--array-devices=2", "--policy=lazy", "--bgc-rate-limit=5", "--no-sip", "--spo-at=3"},
          "--policy");
  rejects({"--array-devices=2", "--bgc-rate-limit=5"},
          "--bgc-rate-limit applies only in single-SSD mode");
  rejects({"--jobs=2"}, "--jobs applies only in array mode (--array-devices)");
}

TEST(CliOptions, AcceptsSlotsBelowTheDeviceCount) {
  const auto opt = parse({"--array-devices=4", "--array-kill-device=3",
                          "--array-outage-device=0", "--array-spo-device=2"});
  ASSERT_TRUE(opt);
  EXPECT_EQ(opt->array_kill_slot, 3);
  EXPECT_EQ(opt->array_outage_slot, 0);
  EXPECT_EQ(opt->array_spo_slot, 2);
  EXPECT_TRUE(parse({"--array-devices=4294967295"}));
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

// -- jitgc_sweep's command line -------------------------------------------------

std::optional<SweepCliOptions> parse_sweep(std::initializer_list<const char*> args,
                                           std::string* err = nullptr) {
  std::string error;
  const auto opt = parse_sweep_cli(std::vector<std::string>(args.begin(), args.end()), error);
  if (err) *err = error;
  return opt;
}

TEST(SweepCli, DefaultsRunTheFullFig7MatrixOnTheDefaultDevice) {
  const auto opt = parse_sweep({});
  ASSERT_TRUE(opt);
  SweepOptions expected;
  expected.base = default_sim_config();
  EXPECT_EQ(sweep_fingerprint(opt->options, opt->cells),
            sweep_fingerprint(expected, paper_matrix_cells()));
  // Checkpoints written before these two became constants must still resume.
  EXPECT_NE(sweep_fingerprint(opt->options, opt->cells)
                .find(" overwrite_factor=1 bgc_idle_detect_us=100000 "),
            std::string::npos);
  EXPECT_EQ(opt->options.format, SweepFormat::kJsonl);
  EXPECT_FALSE(opt->options.base.frontend.enabled());
}

TEST(SweepCli, SharedRowsFillTheBaseConfig) {
  const auto opt = parse_sweep({"--matrix=fig2", "--workload=YCSB", "--seconds=20", "--seeds=2",
                                "--threads=3", "--format=csv", "--intervals",
                                "--fault-program=0.01", "--fault-wear=0.5", "--endurance=3000",
                                "--spare-blocks=16", "--tenants=2", "--tenant-weight=2,1",
                                "--tenant-arrival=closed", "--snapshot-cache=snap"});
  ASSERT_TRUE(opt);
  ASSERT_EQ(opt->cells.size(), 3u);  // fig2's three reserves, YCSB only
  for (const SweepCell& cell : opt->cells) EXPECT_EQ(cell.workload.name, "YCSB");
  const SweepOptions& o = opt->options;
  EXPECT_EQ(o.seeds, 2u);
  EXPECT_EQ(o.threads, 3u);
  EXPECT_EQ(o.format, SweepFormat::kCsv);
  EXPECT_TRUE(o.emit_intervals);
  EXPECT_EQ(o.snapshot_cache_dir, "snap");
  EXPECT_EQ(o.base.duration, seconds(20.0));
  EXPECT_DOUBLE_EQ(o.base.ssd.ftl.fault.program_fail_prob, 0.01);
  EXPECT_DOUBLE_EQ(o.base.ssd.ftl.fault.wear_fail_prob_at_limit, 0.5);
  EXPECT_TRUE(o.base.ssd.ftl.enforce_endurance);
  EXPECT_EQ(o.base.ssd.ftl.spare_blocks, 16u);
  ASSERT_EQ(o.base.frontend.tenants.size(), 2u);
  EXPECT_DOUBLE_EQ(o.base.frontend.tenants[0].weight, 2.0);
  EXPECT_DOUBLE_EQ(o.base.frontend.tenants[1].weight, 1.0);
  for (const auto& tenant : o.base.frontend.tenants) {
    // No --tenant-mix: each tenant inherits its cell's benchmark, whatever
    // --workload filtered.
    EXPECT_EQ(tenant.mix, "");
    EXPECT_TRUE(tenant.closed_loop);
  }
}

TEST(SweepCli, RejectsWrapsEmptyValuesAndBrokenCombinations) {
  const auto rejects = [](std::initializer_list<const char*> args, const char* flag) {
    std::string err;
    EXPECT_FALSE(parse_sweep(args, &err)) << flag;
    EXPECT_NE(err.find(flag), std::string::npos) << err;
    EXPECT_EQ(err.find('\n'), std::string::npos) << err;
  };
  // 2^32 + 256 ran with 256 spares; 2^32 tenants threw std::bad_alloc.
  rejects({"--spare-blocks=4294967552"}, "--spare-blocks");
  rejects({"--tenants=2", "--tenant-queue-depth=4294967296"}, "--tenant-queue-depth");
  rejects({"--tenants=4294967296"}, "--tenants");
  // An empty value is no longer "no filter" / "no directory".
  rejects({"--workload="}, "--workload");
  rejects({"--checkpoint="}, "--checkpoint");
  rejects({"--snapshot-cache="}, "--snapshot-cache");
  rejects({"--matrix=fig9"}, "--matrix");
  rejects({"--format=xml"}, "--format");
  rejects({"--workload=mail-server"}, "--workload");
  rejects({"--resume"}, "--resume");
  rejects({"--intervals=1"}, "--intervals");
  rejects({"--fault-wear=0.5"}, "--fault-wear");
  rejects({"--tenant-mix=ycsb"}, "--tenant-mix");
  rejects({"--tenants=3", "--tenant-weight=1,2"}, "--tenant-weight");
  rejects({"--tenants=2", "--tenant-mix=ycsb,nosuch"}, "--tenant-mix");
}

// -- Both flag tables, walked row by row ------------------------------------------

struct ToolTable {
  std::string tool;
  std::vector<Flag> flags;  // bound to scratch options; only names and kinds are read
  std::string help;
  std::function<bool(const std::vector<std::string>&, std::string&)> parses;
};

std::vector<ToolTable> tool_tables() {
  static CliOptions cli_scratch;
  static SweepCliOptions sweep_scratch;
  return {
      {"jitgc_cli", cli_flags(cli_scratch), cli_usage(),
       [](const std::vector<std::string>& args, std::string& error) {
         return parse_cli(args, error).has_value();
       }},
      {"jitgc_sweep", sweep_flags(sweep_scratch), sweep_usage(),
       [](const std::vector<std::string>& args, std::string& error) {
         return parse_sweep_cli(args, error).has_value();
       }},
  };
}

TEST(FlagTables, DeclareEveryFlagOfBothTools) {
  const auto names = [](const ToolTable& table) {
    std::string joined;
    for (const Flag& flag : table.flags) joined += flag.name + " ";
    return joined;
  };
  const auto tables = tool_tables();
  EXPECT_EQ(names(tables[0]),
            "--workload --trace --trace-buffered --policy --reserve --seed --seconds "
            "--snapshot-cache --tenants --tenant-mix --tenant-weight --tenant-rate "
            "--tenant-qos-p99 --tenant-arrival --tenant-queue-depth --endurance "
            "--fault-program --fault-erase --fault-wear --spare-blocks --help "
            "--trace-volume-map --snapshot-cache-limit --spo-at --spo-every "
            "--spo-precondition-writes --checkpoint-every-erases --arrival --blocks-per-plane "
            "--pages-per-block --op-ratio --victim --hot-cold --measured-idle --service-queues "
            "--bgc-rate-limit --array-devices --stripe-chunk --array-gc-mode "
            "--array-max-concurrent-gc --array-redundancy --array-spares --rebuild-rate-floor "
            "--array-kill-device --array-kill-at --array-outage-device --array-outage-at "
            "--array-outage-restore-at --array-spo-device --array-spo-at --jobs --no-sip "
            "--percentile --metrics --csv --csv-header --json ");
  EXPECT_EQ(names(tables[1]),
            "--matrix --workload --seeds --base-seed --threads --format --intervals --retries "
            "--checkpoint --resume --seconds --snapshot-cache --tenants --tenant-mix "
            "--tenant-weight --tenant-rate --tenant-qos-p99 --tenant-arrival "
            "--tenant-queue-depth --endurance --fault-program --fault-erase --fault-wear "
            "--spare-blocks --help ");
}

TEST(FlagTables, JitgcCliRowsNameTheModeThatReadsThem) {
  // run_from_cli reads the single-SSD rows, run_array_from_cli the array rows;
  // every other row is read by both. jitgc_sweep has one mode.
  const auto names = [](const ToolTable& table, FlagMode mode) {
    std::string joined;
    for (const Flag& flag : table.flags) {
      if (flag.mode == mode) joined += flag.name + " ";
    }
    return joined;
  };
  const auto tables = tool_tables();
  EXPECT_EQ(names(tables[0], FlagMode::kSingleSsd),
            "--policy --reserve --spo-at --spo-every --spo-precondition-writes --arrival "
            "--measured-idle --bgc-rate-limit --no-sip --percentile ");
  EXPECT_EQ(names(tables[0], FlagMode::kArray),
            "--stripe-chunk --array-gc-mode --array-max-concurrent-gc --array-redundancy "
            "--array-spares --rebuild-rate-floor --array-kill-device --array-kill-at "
            "--array-outage-device --array-outage-at --array-outage-restore-at "
            "--array-spo-device --array-spo-at --jobs ");
  for (const Flag& flag : tables[1].flags) EXPECT_EQ(flag.mode, FlagMode::kAny) << flag.name;
}

TEST(FlagTables, MutationPassRefusesEveryMalformedValueNamingTheFlag) {
  std::size_t probes = 0;
  for (const ToolTable& table : tool_tables()) {
    for (const Flag& flag : table.flags) {
      SCOPED_TRACE(table.tool + " " + flag.name);
      const bool is_switch = flag.kind == FlagKind::kSwitch;
      EXPECT_NE(table.help.find("\n  " + flag.name + (is_switch ? " " : "=")), std::string::npos);
      std::vector<std::string> bad = {is_switch ? "=1" : "="};
      if (flag.kind == FlagKind::kReal || flag.kind == FlagKind::kCount ||
          flag.kind == FlagKind::kCount32) {
        bad.insert(bad.end(), {"=nan", "=inf", "=-1", "=1e400", "=10abc"});
      }
      if (flag.kind == FlagKind::kCount32) bad.push_back("=4294967296");
      for (const std::string& suffix : bad) {
        std::string err;
        EXPECT_FALSE(table.parses({flag.name + suffix}, err)) << suffix;
        EXPECT_NE(err.find(flag.name), std::string::npos) << err;
        EXPECT_EQ(err.find('\n'), std::string::npos) << err;
        ++probes;
      }
    }
  }
  EXPECT_GT(probes, 300u);
}

// Every `--name` on a ./build/tools/jitgc_cli or jitgc_sweep command line in
// the docs must be a row of that tool's table, of the line's mode (names
// only: values such as $K are not checked).
TEST(FlagTables, DocumentedCommandLinesUseOnlyTableRows) {
  std::map<std::string, std::map<std::string, FlagMode>> rows;
  for (const ToolTable& table : tool_tables()) {
    for (const Flag& flag : table.flags) rows[table.tool][flag.name] = flag.mode;
  }
  std::size_t checked = 0;
  for (const char* doc : {"README.md", "EXPERIMENTS.md"}) {
    std::ifstream in(std::string(JITGC_SOURCE_DIR) + "/" + doc);
    ASSERT_TRUE(in) << doc;
    std::string line;
    std::string command;
    while (std::getline(in, line)) {
      command += line;
      if (!command.empty() && command.back() == '\\') {
        command.back() = ' ';
        continue;
      }
      for (const auto& [tool, names] : rows) {
        const std::size_t at = command.find("./build/tools/" + tool + " ");
        if (at == std::string::npos) continue;
        // The tool's own arguments end at a comment, pipe or redirection.
        const std::string args =
            command.substr(at, command.find_first_of("#|>;", at) - at);
        const bool array_mode = args.find("--array-devices=") != std::string::npos;
        std::istringstream words(args);
        for (std::string word; words >> word;) {
          if (!word.starts_with("--")) continue;
          const std::string name = word.substr(0, word.find('='));
          const auto row = names.find(name);
          ++checked;
          if (row == names.end()) {
            ADD_FAILURE() << doc << ": " << tool << " has no " << name;
            continue;
          }
          EXPECT_NE(row->second, array_mode ? FlagMode::kSingleSsd : FlagMode::kArray)
              << doc << ": " << name << " in the wrong mode: " << args;
        }
      }
      command.clear();
    }
  }
  EXPECT_GT(checked, 20u);
}

}  // namespace
}  // namespace jitgc::sim
