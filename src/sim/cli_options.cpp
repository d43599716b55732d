#include "sim/cli_options.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "ftl/ftl.h"
#include "nand/geometry.h"
#include "sim/metrics_sink.h"
#include "workload/file_workload.h"
#include "workload/specs.h"
#include "workload/trace.h"

namespace jitgc::sim {

namespace {

// Strict value parsing: only a value that parses whole is accepted (no sign
// on an unsigned value, no leading space, no trailing text).
bool parse_double(const std::string& value, double& out) {
  const auto [ptr, ec] = std::from_chars(value.data(), value.data() + value.size(), out);
  return ec == std::errc{} && ptr == value.data() + value.size();
}

bool parse_u64(const std::string& value, std::uint64_t& out) {
  const auto [ptr, ec] = std::from_chars(value.data(), value.data() + value.size(), out);
  return ec == std::errc{} && ptr == value.data() + value.size();
}

/// Splits on commas, keeping empty items ("a,,b" gives three).
std::vector<std::string> split_list(const std::string& value) {
  std::vector<std::string> items;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = value.find(',', start);
    items.push_back(comma == std::string::npos ? value.substr(start)
                                               : value.substr(start, comma - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return items;
}

// "Bonnie++" / "bonnie" / "TPC-C" / "tpcc" all compare equal.
std::string normalized(const std::string& name) {
  std::string out;
  for (const char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      out.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    }
  }
  return out;
}

// -- Row builders ---------------------------------------------------------------
// A builder pairs a value kind with the field it fills. A std::vector field
// takes a comma-separated list whose every item is checked alike.

template <typename T>
struct Items {
  using Item = T;
  static constexpr bool kList = false;
};
template <typename T>
struct Items<std::vector<T>> {
  using Item = T;
  static constexpr bool kList = true;
};

template <typename Field, typename ParseItem>
Flag row(const char* name, const char* metavar, FlagKind kind, Field& out, std::string needs,
         const char* help, ParseItem parse_item) {
  return Flag{name, metavar, kind, std::move(needs), help,
              [&out, parse_item](const std::string& value) {
                Field parsed{};
                if constexpr (Items<Field>::kList) {
                  for (const std::string& item : split_list(value)) {
                    if (!parse_item(item, parsed.emplace_back())) return false;
                  }
                } else if (!parse_item(value, parsed)) {
                  return false;
                }
                out = std::move(parsed);
                return true;
              },
              FlagMode::kAny};
}

Flag on(const char* name, bool& out, const char* help, bool value = true) {
  return Flag{name, "", FlagKind::kSwitch, "", help,
              [&out, value](const std::string&) {
                out = value;
                return true;
              },
              FlagMode::kAny};
}

// Rows that only one of jitgc_cli's runners reads.
Flag single_ssd(Flag flag) {
  flag.mode = FlagMode::kSingleSsd;
  return flag;
}
Flag array_only(Flag flag) {
  flag.mode = FlagMode::kArray;
  return flag;
}

// Text is never empty; only a list can hold a bad (empty) item.
template <typename Field>  // std::string or a std::vector of them
Flag text(const char* name, const char* metavar, Field& out, const char* help,
          const char* needs = "a value") {
  return row(name, metavar, FlagKind::kText, out, needs, help,
             [](const std::string& item, std::string& v) {
               v = item;
               return !item.empty();
             });
}

template <typename T>
Flag choice(const char* name, const char* metavar, T& out,
            std::vector<std::pair<std::string, T>> words, const char* help) {
  std::string needs;
  for (const auto& word : words) needs += (needs.empty() ? "one of " : "|") + word.first;
  return row(name, metavar, FlagKind::kChoice, out, needs, help,
             [words = std::move(words)](const std::string& item, T& v) {
               for (const auto& [word, value] : words) {
                 if (word == item) {
                   v = value;
                   return true;
                 }
               }
               return false;
             });
}

// A choice stored as the word itself.
Flag keyword(const char* name, const char* metavar, std::string& out,
             std::initializer_list<const char*> words, const char* help) {
  std::vector<std::pair<std::string, std::string>> pairs;
  for (const char* word : words) pairs.emplace_back(word, word);
  return choice(name, metavar, out, std::move(pairs), help);
}

// [lo, hi], either end optionally open. Every accepted value is finite, and
// the test is written to accept (NaN fails every comparison), not to reject.
struct Range {
  double lo = 0.0;
  double hi = std::numeric_limits<double>::max();
  bool lo_open = false;
  bool hi_open = false;

  bool holds(double v) const {
    return std::isfinite(v) && (lo_open ? v > lo : v >= lo) && (hi_open ? v < hi : v <= hi);
  }
};
constexpr Range kNonNegative{};
constexpr Range kPositive{.lo_open = true};
constexpr Range kUnitInterval{.hi = 1.0};

template <typename Field>  // double or a std::vector of them
Flag real(const char* name, const char* metavar, Field& out, Range range, const char* needs,
          const char* help) {
  return row(name, metavar, FlagKind::kReal, out, needs, help,
             [range](const std::string& item, double& v) {
               return parse_double(item, v) && range.holds(v);
             });
}

// An unsigned count at least `min` that fits the field's own type, so a
// 32-bit field refuses 2^32 and a slot index (int32) refuses 2^31.
template <typename Field>  // an integer or a std::vector of them
Flag count(const char* name, const char* metavar, Field& out, std::uint64_t min, const char* needs,
           const char* help) {
  using Int = typename Items<Field>::Item;
  constexpr auto kMax = static_cast<std::uint64_t>(std::numeric_limits<Int>::max());
  return row(name, metavar, kMax <= UINT32_MAX ? FlagKind::kCount32 : FlagKind::kCount, out, needs,
             help, [min](const std::string& item, Int& v) {
               std::uint64_t x = 0;
               if (!parse_u64(item, x) || x < min || x > kMax) return false;
               v = static_cast<Int>(x);
               return true;
             });
}

// -- The tables ------------------------------------------------------------------

// The rows jitgc_cli and jitgc_sweep both take.
std::vector<Flag> shared_flags(CliOptions& o) {
  return {
      real("--seconds", "<s>", o.seconds, kPositive, "a finite positive duration",
           "measured duration                    (default 300)"),
      text("--snapshot-cache", "<dir>", o.snapshot_cache_dir,
           "reuse post-precondition device state across runs\n"
           "(byte-identical output; cold miss fills the cache)"),
      count("--tenants", "<n>", o.tenants, 1, "a positive 32-bit tenant count",
            "multi-tenant front-end with n queues  (default off)"),
      text("--tenant-mix", "<a,b,..>", o.tenant_mix,
           "per-tenant workload mixes (one shared, or one per tenant;\n"
           "default: every tenant runs the run's workload)",
           "comma-separated workload names"),
      real("--tenant-weight", "<w,..>", o.tenant_weight, kPositive,
           "finite weights > 0, comma-separated",
           "per-tenant DWRR weights, > 0          (default 1)"),
      real("--tenant-rate", "<b,..>", o.tenant_rate, kNonNegative,
           "finite rates in bytes/s (0 = uncapped), comma-separated",
           "per-tenant submission caps, bytes/s (0 = uncapped)"),
      real("--tenant-qos-p99", "<ms,..>", o.tenant_qos_p99_ms, kNonNegative,
           "finite targets in ms (0 = ungraded), comma-separated",
           "per-tenant p99 targets, ms (0 = ungraded)"),
      keyword("--tenant-arrival", "<m>", o.tenant_arrival, {"open", "closed"},
              "open|closed arrivals for every tenant (default open)"),
      count("--tenant-queue-depth", "<n>", o.tenant_queue_depth, 1,
            "a positive 32-bit admission-window size",
            "global admission window            (default 32)"),
      count("--endurance", "<pe>", o.endurance_pe_cycles, 0, "a P/E cycle count",
            "enforce endurance at this P/E rating (default off)"),
      real("--fault-program", "<p>", o.fault_program_fail_prob, kUnitInterval,
           "a probability in [0,1]", "NAND program-failure probability     (default 0)"),
      real("--fault-erase", "<p>", o.fault_erase_fail_prob, kUnitInterval,
           "a probability in [0,1]", "NAND erase-failure probability       (default 0)"),
      real("--fault-wear", "<p>", o.fault_wear_fail_prob, kUnitInterval, "a probability in [0,1]",
           "extra failure probability at the endurance limit\n"
           "(ramps up from 90% of it; needs --endurance)"),
      count("--spare-blocks", "<n>", o.spare_blocks, 0, "a 32-bit block count",
            "factory spares for bad-block management (default 0)"),
      on("--help", o.show_help, "print this list and exit (also -h)"),
  };
}

/// One device's user pages under the options' device knobs.
Lba device_user_pages(const CliOptions& o) {
  SsdConfig ssd = default_sim_config(o.seed).ssd;
  apply_device_options(o, ssd);
  return ftl::Ftl::user_pages_for(ssd.ftl);
}

// Rules over several shared flags, written once for both tools. `given`
// lists the flags on the command line, in order.
bool check_shared_rules(const CliOptions& o, const std::vector<std::string>& given,
                        std::string& error) {
  // FaultModel anchors the wear ramp at the endurance rating; without one
  // the probability would silently inject nothing.
  if (o.fault_wear_fail_prob > 0.0 && o.endurance_pe_cycles == 0) {
    error = "--fault-wear needs --endurance=<pe> (the ramp anchor)";
    return false;
  }
  if (o.tenants == 0) {
    for (const std::string& flag : given) {
      if (flag.starts_with("--tenant-")) {
        error = flag + " requires --tenants";
        return false;
      }
    }
    return true;
  }
  // The broadcast rule: one shared value, or exactly one per tenant.
  const std::pair<const char*, std::size_t> tenant_lists[] = {
      {"--tenant-mix", o.tenant_mix.size()},
      {"--tenant-weight", o.tenant_weight.size()},
      {"--tenant-rate", o.tenant_rate.size()},
      {"--tenant-qos-p99", o.tenant_qos_p99_ms.size()},
  };
  for (const auto& [flag, n] : tenant_lists) {
    if (n > 1 && n != o.tenants) {
      error = std::string(flag) + " got " + std::to_string(n) + " values for " +
              std::to_string(o.tenants) + " tenants (give one shared value or one per tenant)";
      return false;
    }
  }
  // Each tenant owns at least one page of the volume; refusing here also
  // keeps a huge count from building its tenant list.
  const Lba pages = volume_user_pages(o);
  if (o.tenants > pages) {
    error = "--tenants=" + std::to_string(o.tenants) + " exceeds the volume's " +
            std::to_string(pages) + " user pages (each tenant needs at least one)";
    return false;
  }
  return true;
}

// Runs the table over the arguments; `given` collects the flags seen.
bool parse_flags(const std::vector<std::string>& args, const std::vector<Flag>& flags,
                 std::vector<std::string>& given, std::string& error) {
  for (const std::string& arg : args) {
    const std::size_t eq = arg.find('=');
    const std::string key = arg == "-h" ? "--help" : arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    const auto flag =
        std::find_if(flags.begin(), flags.end(), [&](const Flag& f) { return f.name == key; });
    if (flag == flags.end()) {
      error = "unknown option '" + key + "'";
      return false;
    }
    if (flag->kind == FlagKind::kSwitch && eq != std::string::npos) {
      error = key + " takes no value, got '" + value + "'";
      return false;
    }
    if (flag->kind != FlagKind::kSwitch && value.empty()) {
      error = key + " requires a value (use " + key + "=" + flag->metavar + ")";
      return false;
    }
    if (!flag->set(value)) {
      error = key + " needs " + flag->needs + ", got '" + value + "'";
      return false;
    }
    given.push_back(key);
  }
  return true;
}

std::string usage(const char* tool, const std::vector<Flag>& flags) {
  constexpr std::size_t kHelpColumn = 25;
  std::string out = std::string("usage: ") + tool + " [options]\n";
  for (const Flag& flag : flags) {
    std::string line = "  " + flag.name + (flag.metavar.empty() ? "" : "=" + flag.metavar);
    line += line.size() < kHelpColumn ? std::string(kHelpColumn - line.size(), ' ') : "  ";
    for (const char c : flag.help) {
      line += c;
      if (c == '\n') line += std::string(kHelpColumn, ' ');
    }
    out += line + "\n";
  }
  return out;
}

}  // namespace

std::optional<wl::WorkloadSpec> find_benchmark_spec(const std::string& name) {
  auto specs = wl::paper_benchmark_specs();
  const auto core = wl::ycsb_core_specs();  // tenant mixes: ycsb-a .. ycsb-f
  specs.insert(specs.end(), core.begin(), core.end());
  for (const auto& spec : specs) {
    if (normalized(spec.name) == normalized(name)) return spec;
  }
  return std::nullopt;
}

std::vector<Flag> cli_flags(CliOptions& o) {
  using ftl::VictimPolicyKind;
  std::vector<Flag> flags = {
      text("--workload", "<name>", o.workload,
           "ycsb|postmark|filebench|bonnie|tiobench|tpcc|\n"
           "mail-server|file-server        (default ycsb)"),
      text("--trace", "<file>", o.trace_path, "replay an MSR-format block trace instead"),
      real("--trace-buffered", "<f>", o.trace_buffered_fraction, kUnitInterval,
           "a fraction in [0,1]", "re-synthesize this fraction of trace writes as buffered"),
      single_ssd(choice("--policy", "<name>", o.policy,
                        {{"lazy", PolicyKind::kLazy},
                         {"l-bgc", PolicyKind::kLazy},
                         {"aggressive", PolicyKind::kAggressive},
                         {"a-bgc", PolicyKind::kAggressive},
                         {"adaptive", PolicyKind::kAdaptive},
                         {"adp-gc", PolicyKind::kAdaptive},
                         {"jit", PolicyKind::kJit},
                         {"jit-gc", PolicyKind::kJit},
                         {"fixed", PolicyKind::kFixedReserve}},
                        "lazy|aggressive|adaptive|jit|fixed   (default jit)")),
      single_ssd(real("--reserve", "<m>", o.fixed_reserve_multiple, kPositive,
                      "a finite positive C_resv/C_OP multiple",
                      "C_resv as a multiple of C_OP for --policy=fixed")),
      count("--seed", "<n>", o.seed, 0, "an unsigned integer",
            "RNG seed                             (default 1)"),
  };
  for (Flag& flag : shared_flags(o)) flags.push_back(std::move(flag));
  const std::vector<Flag> own = {
      count("--trace-volume-map", "<v,..>", o.trace_volume_map, 0,
            "comma-separated 32-bit MSR volume numbers",
            "MSR volume each tenant replays (trace mode)"),
      count("--snapshot-cache-limit", "<n>", o.snapshot_cache_limit, 1,
            "a positive snapshot-file count", "LRU cap on the disk cache, in snapshot files"),
      single_ssd(real("--spo-at", "<s>", o.spo_at_s, kNonNegative,
                      "a finite time in seconds (>= 0)",
                      "sudden power-off this far into the measured run;\n"
                      "the device recovers by OOB scan (default off)")),
      single_ssd(real("--spo-every", "<s>", o.spo_every_s, kPositive,
                      "a finite positive period in seconds",
                      "repeat the power cut every s seconds (needs --spo-at)")),
      single_ssd(count("--spo-precondition-writes", "<n>", o.spo_precondition_writes, 1,
                       "a positive write count", "one SPO after n preconditioning writes")),
      count("--checkpoint-every-erases", "<k>", o.checkpoint_every_erases, 0,
            "an erase count (0 = off)",
            "mapping checkpoint every k erases\n(bounds the recovery scan; 0 = full scan)"),
      single_ssd(choice("--arrival", "<m>", o.open_loop_arrivals,
                        {{"closed", false}, {"open", true}},
                        "closed|open arrival model, single-SSD (default closed)")),
      count("--blocks-per-plane", "<n>", o.blocks_per_plane, 1, "a positive 32-bit integer",
            "device scale                         (default 256)"),
      count("--pages-per-block", "<n>", o.pages_per_block, 1, "a positive 32-bit integer",
            "                                     (default 256)"),
      real("--op-ratio", "<f>", o.op_ratio, Range{.hi = 1.0, .lo_open = true, .hi_open = true},
           "a fraction in (0,1)", "over-provisioning fraction           (default 0.07)"),
      choice("--victim", "<name>", o.victim_policy,
             {{"greedy", VictimPolicyKind::kGreedy},
              {"cost-benefit", VictimPolicyKind::kCostBenefit},
              {"fifo", VictimPolicyKind::kFifo},
              {"random", VictimPolicyKind::kRandom},
              {"sampled-greedy", VictimPolicyKind::kSampledGreedy}},
             "greedy|cost-benefit|fifo|random|sampled-greedy"),
      on("--hot-cold", o.hot_cold_separation, "enable hot/cold stream separation"),
      single_ssd(on("--measured-idle", o.use_measured_idle,
                    "JIT-GC uses measured device idle for T_idle")),
      count("--service-queues", "<n>", o.service_queues, 0,
            "0 (per-plane) or a 32-bit queue count",
            "1 = scaled single queue; 0 = one queue per plane"),
      single_ssd(real("--bgc-rate-limit", "<bps>", o.bgc_rate_limit_bps, kNonNegative,
                      "finite bytes/s (0 = unlimited)",
                      "QoS cap on background GC reclaim (0 = unlimited)")),
      count("--array-devices", "<n>", o.array_devices, 1, "a positive 32-bit device count",
            "stripe the volume over N SSDs (array mode; default off)"),
      array_only(count("--stripe-chunk", "<pages>", o.stripe_chunk_pages, 1,
                       "a positive 32-bit page count",
                       "stripe chunk size                    (default 8)")),
      array_only(keyword("--array-gc-mode", "<m>", o.array_gc_mode,
                         {"naive", "staggered", "maxk"},
                         "naive|staggered|maxk                 (default staggered)")),
      array_only(count("--array-max-concurrent-gc", "<k>", o.array_max_concurrent_gc, 1,
                       "a positive 32-bit device count",
                       "GC concurrency cap           (default 1)")),
      // The sim layer cannot call array::redundancy_scheme_names() (the
      // dependency is one-way); array_cli.cpp re-validates with that list.
      array_only(keyword("--array-redundancy", "<s>", o.array_redundancy,
                         {"none", "mirror", "parity"},
                         "none|mirror|parity                   (default none)")),
      array_only(count("--array-spares", "<n>", o.array_spares, 0, "a 32-bit spare device count",
                       "hot spares for rebuilds              (default 0)")),
      array_only(real("--rebuild-rate-floor", "<f>", o.rebuild_rate_floor, kUnitInterval,
                      "a duty fraction in [0, 1]",
                      "min rebuild duty fraction [0,1]   (default 0.1)")),
      array_only(count("--array-kill-device", "<slot>", o.array_kill_slot, 0,
                       "a slot index below 2^31", "scripted kill: retire this slot's device")),
      array_only(real("--array-kill-at", "<s>", o.array_kill_at_s, kNonNegative,
                      "a finite time in seconds (>= 0)",
                      "kill time in seconds                 (default 0)")),
      array_only(count("--array-outage-device", "<slot>", o.array_outage_slot, 0,
                       "a slot index below 2^31", "scripted transient outage: suspend this slot")),
      array_only(real("--array-outage-at", "<s>", o.array_outage_at_s, kNonNegative,
                      "a finite time in seconds (>= 0)",
                      "outage start, seconds                (default 0)")),
      array_only(real("--array-outage-restore-at", "<s>", o.array_outage_restore_at_s,
                      kNonNegative, "a finite time in seconds (>= 0)",
                      "device returns at this time")),
      array_only(count("--array-spo-device", "<slot>", o.array_spo_slot, 0,
                       "a slot index below 2^31",
                       "sudden power-off for this slot's device; it\n"
                       "recovers by OOB scan and resyncs via rebuild")),
      array_only(real("--array-spo-at", "<s>", o.array_spo_at_s, kNonNegative,
                      "a finite time in seconds (>= 0)",
                      "array SPO time in seconds             (default 0)")),
      array_only(count("--jobs", "<n>", o.jobs, 0, "a thread count (0 = hardware)",
                       "array GC fan-out threads, 0 = hardware (default 0)")),
      single_ssd(on("--no-sip", o.use_sip_list, "disable SIP victim filtering (JIT-GC)", false)),
      single_ssd(real("--percentile", "<q>", o.direct_quantile, Range{.hi = 1.0, .lo_open = true},
                      "a value in (0,1]", "CDH reserve quantile                 (default 0.8)")),
      text("--metrics", "<file>", o.metrics_path,
           "write per-interval + run JSONL records (docs/model.md)"),
      on("--csv", o.csv, "machine-readable one-line output"),
      on("--csv-header", o.csv_header, "--csv with a header line first"),
      on("--json", o.json, "machine-readable JSON object output"),
  };
  flags.insert(flags.end(), own.begin(), own.end());
  return flags;
}

std::optional<CliOptions> parse_cli(const std::vector<std::string>& args, std::string& error) {
  CliOptions opt;
  std::vector<std::string> given;
  const std::vector<Flag> flags = cli_flags(opt);
  if (!parse_flags(args, flags, given, error)) return std::nullopt;
  if (opt.show_help) return opt;
  const auto fail = [&error](std::string message) {
    error = std::move(message);
    return std::nullopt;
  };
  const bool array_mode = opt.array_devices > 0;
  for (const std::string& name : given) {
    const FlagMode mode =
        std::find_if(flags.begin(), flags.end(), [&](const Flag& f) { return f.name == name; })
            ->mode;
    if (mode == FlagMode::kArray && !array_mode) {
      return fail(name + " applies only in array mode (--array-devices)");
    }
    if (mode == FlagMode::kSingleSsd && array_mode) {
      return fail(name + " applies only in single-SSD mode (without --array-devices)");
    }
  }
  // The FTL packs every physical page address into 32 bits (nand::PpaCodec);
  // a device too large for that is refused here, naming the flags.
  nand::Geometry geometry = nand::small_geometry();
  geometry.blocks_per_plane = opt.blocks_per_plane;
  geometry.pages_per_block = opt.pages_per_block;
  if (!geometry.packed_ppa_fits()) {
    return fail(
        "--blocks-per-plane x --pages-per-block: device too large for 32-bit page addresses");
  }
  // The layout rules RedundancyLayout enforces, named before the tenant
  // bound reads the volume size they shape.
  if (opt.array_redundancy == "mirror" && opt.array_devices % 2 != 0) {
    return fail("--array-redundancy=mirror needs an even --array-devices");
  }
  if (opt.array_redundancy == "parity" && opt.array_devices < 3) {
    return fail("--array-redundancy=parity needs --array-devices >= 3");
  }
  if (const Lba device = device_user_pages(opt); array_mode && opt.stripe_chunk_pages > device) {
    return fail("--stripe-chunk=" + std::to_string(opt.stripe_chunk_pages) +
                " exceeds one device's " + std::to_string(device) + " user pages");
  }
  if (!check_shared_rules(opt, given, error)) return std::nullopt;
  if (opt.spo_every_s > 0.0 && opt.spo_at_s < 0.0) {
    return fail("--spo-every requires --spo-at (the first cut anchors the cadence)");
  }
  if (opt.snapshot_cache_limit > 0 && opt.snapshot_cache_dir.empty()) {
    return fail("--snapshot-cache-limit requires --snapshot-cache");
  }
  const std::size_t volumes = opt.trace_volume_map.size();
  if (volumes > 0 && opt.tenants == 0) {
    return fail("--trace-volume-map requires --tenants (it maps volumes onto tenants)");
  }
  if (opt.tenants > 0 && !opt.trace_path.empty() && volumes == 0) {
    return fail("--tenants with --trace requires --trace-volume-map (one MSR volume per tenant)");
  }
  if (volumes > 0 && volumes != opt.tenants) {
    return fail("--trace-volume-map got " + std::to_string(volumes) + " volumes for " +
                std::to_string(opt.tenants) + " tenants (give exactly one per tenant)");
  }
  if (volumes > 0 && opt.trace_path.empty()) return fail("--trace-volume-map requires --trace");
  const std::pair<const char*, std::int32_t> slots[] = {
      {"--array-kill-device", opt.array_kill_slot},
      {"--array-outage-device", opt.array_outage_slot},
      {"--array-spo-device", opt.array_spo_slot},
  };
  for (const auto& [flag, slot] : slots) {
    if (slot >= 0 && static_cast<std::uint32_t>(slot) >= opt.array_devices) {
      return fail(std::string(flag) + " needs a slot below --array-devices=" +
                  std::to_string(opt.array_devices) + ", got '" + std::to_string(slot) + "'");
    }
  }
  opt.csv = opt.csv || opt.csv_header;
  return opt;
}

std::string cli_usage() {
  CliOptions unused;
  return usage("jitgc_cli", cli_flags(unused));
}

std::vector<Flag> sweep_flags(SweepCliOptions& c) {
  std::vector<Flag> flags = {
      keyword("--matrix", "<name>", c.matrix, {"fig7", "fig2"},
              "fig7 (6 benchmarks x 4 policies, default) |\n"
              "fig2 (6 benchmarks x fixed reserves 0.5/1.0/1.5)"),
      text("--workload", "<name>", c.shared.workload,
           "keep only this benchmark's cells (e.g. ycsb)"),
      count("--seeds", "<n>", c.options.seeds, 1, "a positive repetition count",
            "independent repetitions per cell     (default 1)"),
      count("--base-seed", "<n>", c.options.base_seed, 0, "an unsigned integer",
            "seed-derivation base                 (default 1)"),
      count("--threads", "<n>", c.options.threads, 0, "a thread count (0 = all hardware)",
            "worker threads; 0 = all hardware     (default 0)"),
      choice("--format", "<f>", c.options.format,
             {{"jsonl", SweepFormat::kJsonl}, {"csv", SweepFormat::kCsv}},
             "jsonl (default) | csv (legacy run-level rows)"),
      on("--intervals", c.options.emit_intervals, "also emit per-interval records (jsonl only)"),
      count("--retries", "<n>", c.options.run_retries, 0, "a retry count",
            "extra attempts per failed run        (default 2)"),
      text("--checkpoint", "<dir>", c.options.checkpoint_dir,
           "write crash-safe per-run progress here"),
      on("--resume", c.options.resume, "reuse completed runs from --checkpoint dir"),
  };
  for (Flag& flag : shared_flags(c.shared)) flags.push_back(std::move(flag));
  return flags;
}

std::optional<SweepCliOptions> parse_sweep_cli(const std::vector<std::string>& args,
                                               std::string& error) {
  SweepCliOptions cli;
  cli.shared.workload.clear();
  std::vector<std::string> given;
  if (!parse_flags(args, sweep_flags(cli), given, error)) return std::nullopt;
  if (cli.shared.show_help) return cli;
  if (!check_shared_rules(cli.shared, given, error)) return std::nullopt;
  const auto fail = [&error](std::string message) {
    error = std::move(message);
    return std::nullopt;
  };
  if (cli.options.resume && cli.options.checkpoint_dir.empty()) {
    return fail("--resume needs --checkpoint=<dir>");
  }
  // Sweep tenants run benchmark specs only (no file-level workloads).
  for (const std::string& mix : cli.shared.tenant_mix) {
    if (!find_benchmark_spec(mix)) {
      return fail("--tenant-mix needs paper or YCSB benchmark names, got '" + mix + "'");
    }
  }
  cli.cells = cli.matrix == "fig2" ? fixed_reserve_cells({0.5, 1.0, 1.5}) : paper_matrix_cells();
  if (!cli.shared.workload.empty()) {
    const std::string wanted = normalized(cli.shared.workload);
    std::erase_if(cli.cells, [&](const SweepCell& cell) {
      return normalized(cell.workload.name) != wanted;
    });
    if (cli.cells.empty()) {
      return fail("--workload matches no cell of --matrix=" + cli.matrix + ", got '" +
                  cli.shared.workload + "'");
    }
  }
  SimConfig& base = cli.options.base;
  base = default_sim_config();
  base.duration = seconds(cli.shared.seconds);
  apply_device_options(cli.shared, base.ssd);
  // A tenant without a mix inherits each cell's benchmark, so the matrix
  // still varies the workload per cell; --workload only filters cells here.
  CliOptions tenants = cli.shared;
  tenants.workload.clear();
  base.frontend = frontend_config_from_cli(tenants);
  cli.options.snapshot_cache_dir = cli.shared.snapshot_cache_dir;
  return cli;
}

std::string sweep_usage() {
  SweepCliOptions unused;
  return usage("jitgc_sweep", sweep_flags(unused));
}

void apply_device_options(const CliOptions& options, SsdConfig& ssd) {
  ssd.ftl.geometry.blocks_per_plane = options.blocks_per_plane;
  ssd.ftl.geometry.pages_per_block = options.pages_per_block;
  ssd.ftl.op_ratio = options.op_ratio;
  ssd.ftl.victim_policy = options.victim_policy;
  ssd.ftl.enable_hot_cold_separation = options.hot_cold_separation;
  ssd.service_queues = options.service_queues;
  if (options.endurance_pe_cycles > 0) {
    ssd.ftl.enforce_endurance = true;
    ssd.ftl.timing.endurance_pe_cycles = options.endurance_pe_cycles;
  }
  ssd.ftl.fault.program_fail_prob = options.fault_program_fail_prob;
  ssd.ftl.fault.erase_fail_prob = options.fault_erase_fail_prob;
  ssd.ftl.fault.wear_fail_prob_at_limit = options.fault_wear_fail_prob;
  ssd.ftl.spare_blocks = options.spare_blocks;
  ssd.ftl.checkpoint_interval_erases = options.checkpoint_every_erases;
}

Lba volume_user_pages(const CliOptions& options) {
  const Lba device = device_user_pages(options);
  if (options.array_devices == 0) return device;
  // RedundancyLayout's capacity rule (the sim layer cannot call it; the
  // array runner checks that the two agree): whole chunks on every device,
  // times the slots that hold data.
  const std::uint32_t n = options.array_devices;
  const Lba data_slots = options.array_redundancy == "mirror"   ? n / 2
                         : options.array_redundancy == "parity" ? n - 1
                                                                : n;
  const Lba chunk = options.stripe_chunk_pages;
  return device / chunk * chunk * data_slots;
}

std::unique_ptr<wl::WorkloadGenerator> make_workload_from_cli(const CliOptions& options,
                                                              Lba user_pages) {
  if (!options.trace_path.empty()) {
    const auto records = wl::read_msr_trace(options.trace_path);
    wl::TraceReplayOptions trace_opts;
    trace_opts.user_pages = user_pages;
    trace_opts.buffered_fraction = options.trace_buffered_fraction;
    trace_opts.seed = options.seed;
    return std::make_unique<wl::TraceWorkload>(options.trace_path, records, trace_opts);
  }
  if (options.workload == "mail-server") {
    return std::make_unique<wl::FileWorkload>(wl::mail_server_spec(), user_pages, options.seed);
  }
  if (options.workload == "file-server") {
    return std::make_unique<wl::FileWorkload>(wl::file_server_spec(), user_pages, options.seed);
  }
  const auto spec = find_benchmark_spec(options.workload);
  if (!spec) {
    throw std::runtime_error("unknown workload: " + options.workload);
  }
  return std::make_unique<wl::SyntheticWorkload>(*spec, user_pages, options.seed);
}

frontend::FrontendConfig frontend_config_from_cli(const CliOptions& options) {
  frontend::FrontendConfig config;
  if (options.tenants == 0) return config;
  const auto pick = [](const std::vector<double>& list, std::uint32_t t, double fallback) {
    if (list.empty()) return fallback;
    return list.size() == 1 ? list[0] : list[t];
  };
  config.queue_depth = options.tenant_queue_depth;
  config.tenants.resize(options.tenants);
  for (std::uint32_t t = 0; t < options.tenants; ++t) {
    frontend::TenantSpec& spec = config.tenants[t];
    if (!options.trace_volume_map.empty()) {
      spec.mix = "vol" + std::to_string(options.trace_volume_map[t]);
    } else if (!options.tenant_mix.empty()) {
      spec.mix = options.tenant_mix.size() == 1 ? options.tenant_mix[0] : options.tenant_mix[t];
    } else {
      spec.mix = options.workload;
    }
    spec.weight = pick(options.tenant_weight, t, 1.0);
    spec.rate_bps = pick(options.tenant_rate, t, 0.0);
    spec.qos_p99_ms = pick(options.tenant_qos_p99_ms, t, 0.0);
    spec.closed_loop = options.tenant_arrival == "closed";
  }
  return config;
}

std::unique_ptr<frontend::HostFrontend> make_frontend_from_cli(const CliOptions& options,
                                                               Lba user_pages, Bytes page_size) {
  if (options.tenants == 0) {
    throw std::runtime_error("make_frontend_from_cli needs --tenants >= 1");
  }
  const frontend::FrontendConfig config = frontend_config_from_cli(options);

  frontend::GeneratorFactory factory;
  if (!options.trace_path.empty()) {
    // Parse once; every tenant replays its own volume's substream.
    const auto records = std::make_shared<const std::vector<wl::TraceRecord>>(
        wl::read_msr_trace(options.trace_path));
    const std::string path = options.trace_path;
    const double buffered = options.trace_buffered_fraction;
    const std::vector<std::uint32_t> volumes = options.trace_volume_map;
    factory = [records, path, buffered, volumes](
                  const frontend::TenantSpec& spec, std::uint32_t tenant, Lba partition_pages,
                  std::uint64_t seed) -> std::unique_ptr<wl::WorkloadGenerator> {
      wl::TraceReplayOptions trace_opts;
      trace_opts.user_pages = partition_pages;
      trace_opts.buffered_fraction = buffered;
      trace_opts.seed = seed;
      trace_opts.volume = static_cast<std::int32_t>(volumes[tenant]);
      return std::make_unique<wl::TraceWorkload>(path + ":" + spec.mix, *records, trace_opts);
    };
  } else {
    factory = [](const frontend::TenantSpec& spec, std::uint32_t /*tenant*/, Lba partition_pages,
                 std::uint64_t seed) -> std::unique_ptr<wl::WorkloadGenerator> {
      if (spec.mix == "mail-server") {
        return std::make_unique<wl::FileWorkload>(wl::mail_server_spec(), partition_pages, seed);
      }
      if (spec.mix == "file-server") {
        return std::make_unique<wl::FileWorkload>(wl::file_server_spec(), partition_pages, seed);
      }
      const auto bench = find_benchmark_spec(spec.mix);
      if (!bench) throw std::runtime_error("unknown tenant mix: " + spec.mix);
      return std::make_unique<wl::SyntheticWorkload>(*bench, partition_pages, seed);
    };
  }
  return std::make_unique<frontend::HostFrontend>(config, user_pages, page_size, options.seed,
                                                  factory);
}

SimReport run_from_cli(const CliOptions& options) {
  SimConfig config = default_sim_config(options.seed);
  config.duration = seconds(options.seconds);
  config.open_loop_arrivals = options.open_loop_arrivals;
  apply_device_options(options, config.ssd);
  config.bgc_rate_limit_bps = options.bgc_rate_limit_bps;
  config.spo_at_s = options.spo_at_s;
  config.spo_every_s = options.spo_every_s;
  config.spo_precondition_after_writes = options.spo_precondition_writes;
  config.frontend = frontend_config_from_cli(options);

  PolicyOverrides overrides;
  overrides.use_sip_list = options.use_sip_list;
  overrides.direct_quantile = options.direct_quantile;
  overrides.use_measured_idle = options.use_measured_idle;

  Simulator simulator(config);
  SnapshotCache snapshot_cache(options.snapshot_cache_dir);
  snapshot_cache.set_disk_limit(options.snapshot_cache_limit);
  if (!options.snapshot_cache_dir.empty()) simulator.set_snapshot_cache(&snapshot_cache);
  const Lba user_pages = simulator.ssd().ftl().user_pages();

  std::unique_ptr<wl::WorkloadGenerator> gen;
  std::unique_ptr<core::BgcPolicy> policy;
  if (options.tenants > 0) {
    auto fe = make_frontend_from_cli(options, user_pages, config.ssd.ftl.geometry.page_size);
    policy = make_policy(options.policy, config, options.fixed_reserve_multiple, overrides,
                         fe.get());
    gen = std::move(fe);
  } else {
    policy = make_policy(options.policy, config, options.fixed_reserve_multiple, overrides);
    gen = make_workload_from_cli(options, user_pages);
  }

  std::ofstream metrics_out;
  std::unique_ptr<JsonlMetricsSink> metrics_sink;
  if (!options.metrics_path.empty()) {
    metrics_out.open(options.metrics_path);
    if (!metrics_out) {
      throw std::runtime_error("cannot open metrics file: " + options.metrics_path);
    }
    metrics_sink = std::make_unique<JsonlMetricsSink>(metrics_out, /*run_index=*/0,
                                                      options.seed);
    simulator.set_metrics_sink(metrics_sink.get());
  }

  return simulator.run(*gen, *policy);
}

std::string csv_header_row() {
  return "workload,policy,duration_s,ops,iops,waf,mean_lat_us,p99_lat_us,read_p99_us,"
         "direct_write_p99_us,fgc_cycles,"
         "fgc_time_s,bgc_cycles,nand_programs,nand_erases,pages_migrated,"
         "prediction_accuracy,sip_filtered_fraction,direct_write_fraction,"
         "worn_out,elapsed_s,retired_blocks,tbw_bytes";
}

std::string format_json(const SimReport& r) {
  std::ostringstream out;
  out << "{\n"
      << "  \"workload\": \"" << r.workload << "\",\n"
      << "  \"policy\": \"" << r.policy << "\",\n"
      << "  \"duration_s\": " << r.duration_s << ",\n"
      << "  \"ops\": " << r.ops_completed << ",\n"
      << "  \"iops\": " << r.iops << ",\n"
      << "  \"waf\": " << r.waf << ",\n"
      << "  \"mean_latency_us\": " << r.mean_latency_us << ",\n"
      << "  \"p99_latency_us\": " << r.p99_latency_us << ",\n"
      << "  \"read_p99_latency_us\": " << r.read_p99_latency_us << ",\n"
      << "  \"direct_write_p99_latency_us\": " << r.direct_write_p99_latency_us << ",\n"
      << "  \"fgc_cycles\": " << r.fgc_cycles << ",\n"
      << "  \"fgc_time_s\": " << r.fgc_time_s << ",\n"
      << "  \"bgc_cycles\": " << r.bgc_cycles << ",\n"
      << "  \"nand_programs\": " << r.nand_programs << ",\n"
      << "  \"nand_erases\": " << r.nand_erases << ",\n"
      << "  \"pages_migrated\": " << r.pages_migrated << ",\n"
      << "  \"prediction_accuracy\": " << r.prediction_accuracy << ",\n"
      << "  \"sip_filtered_fraction\": " << r.sip_filtered_fraction << ",\n"
      << "  \"direct_write_fraction\": " << r.direct_write_fraction() << ",\n"
      << "  \"worn_out\": " << (r.device_worn_out ? "true" : "false") << ",\n"
      << "  \"elapsed_s\": " << r.elapsed_s << ",\n"
      << "  \"retired_blocks\": " << r.retired_blocks << ",\n"
      << "  \"tbw_bytes\": " << r.tbw_bytes() << "\n"
      << "}";
  return out.str();
}

std::string format_csv_row(const SimReport& r) {
  std::ostringstream out;
  out << r.workload << ',' << r.policy << ',' << r.duration_s << ',' << r.ops_completed << ','
      << r.iops << ',' << r.waf << ',' << r.mean_latency_us << ',' << r.p99_latency_us << ','
      << r.read_p99_latency_us << ',' << r.direct_write_p99_latency_us << ','
      << r.fgc_cycles << ',' << r.fgc_time_s << ',' << r.bgc_cycles << ',' << r.nand_programs
      << ',' << r.nand_erases << ',' << r.pages_migrated << ',' << r.prediction_accuracy << ','
      << r.sip_filtered_fraction << ',' << r.direct_write_fraction() << ','
      << (r.device_worn_out ? 1 : 0) << ',' << r.elapsed_s << ',' << r.retired_blocks << ','
      << r.tbw_bytes();
  return out.str();
}

}  // namespace jitgc::sim
