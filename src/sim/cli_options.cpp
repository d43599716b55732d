#include "sim/cli_options.h"

#include <charconv>
#include <cmath>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "nand/geometry.h"
#include "sim/metrics_sink.h"
#include "workload/file_workload.h"
#include "workload/specs.h"
#include "workload/trace.h"

namespace jitgc::sim {

bool parse_double(const std::string& value, double& out) {
  const auto [ptr, ec] = std::from_chars(value.data(), value.data() + value.size(), out);
  return ec == std::errc{} && ptr == value.data() + value.size();
}

bool parse_u64(const std::string& value, std::uint64_t& out) {
  const auto [ptr, ec] = std::from_chars(value.data(), value.data() + value.size(), out);
  return ec == std::errc{} && ptr == value.data() + value.size();
}

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

bool parse_double_list(const std::string& value, std::vector<double>& out) {
  out.clear();
  for (const std::string& item : split_list(value)) {
    double v = 0.0;
    if (!parse_double(item, v)) return false;
    out.push_back(v);
  }
  return !out.empty();
}

bool parse_tenant_values(const std::string& flag, const std::string& value,
                         std::vector<double>& out, std::string& error) {
  // NaN-safe like --spo-at: !(finite && in range) rejects NaN, infinities
  // and out-of-range values alike, always naming the offending flag.
  struct Rule {
    const char* flag;
    const char* list;
    const char* each;
    bool zero_ok;
  };
  static constexpr Rule kRules[] = {
      {"--tenant-weight", "comma-separated scheduling weights", "finite weights > 0", false},
      {"--tenant-rate", "comma-separated byte rates", "finite rates in bytes/s (0 = uncapped)",
       true},
      {"--tenant-qos-p99", "comma-separated millisecond targets",
       "finite targets in ms (0 = ungraded)", true},
  };
  for (const Rule& rule : kRules) {
    if (flag != rule.flag) continue;
    if (!parse_double_list(value, out)) {
      error = flag + " needs " + rule.list;
      return false;
    }
    for (const double v : out) {
      if (!(std::isfinite(v) && (v > 0.0 || (rule.zero_ok && v == 0.0)))) {
        error = flag + " needs " + rule.each;
        return false;
      }
    }
    return true;
  }
  error = "unknown per-tenant list flag '" + flag + "'";
  return false;
}

namespace {

bool parse_u32_list(const std::string& value, std::vector<std::uint32_t>& out) {
  out.clear();
  for (const std::string& item : split_list(value)) {
    std::uint64_t v = 0;
    if (!parse_u64(item, v)) return false;
    out.push_back(static_cast<std::uint32_t>(v));
  }
  return !out.empty();
}

std::optional<PolicyKind> parse_policy(const std::string& name) {
  if (name == "lazy" || name == "l-bgc") return PolicyKind::kLazy;
  if (name == "aggressive" || name == "a-bgc") return PolicyKind::kAggressive;
  if (name == "adaptive" || name == "adp-gc") return PolicyKind::kAdaptive;
  if (name == "jit" || name == "jit-gc") return PolicyKind::kJit;
  if (name == "fixed") return PolicyKind::kFixedReserve;
  return std::nullopt;
}

std::optional<ftl::VictimPolicyKind> parse_victim(const std::string& name) {
  if (name == "greedy") return ftl::VictimPolicyKind::kGreedy;
  if (name == "cost-benefit") return ftl::VictimPolicyKind::kCostBenefit;
  if (name == "fifo") return ftl::VictimPolicyKind::kFifo;
  if (name == "random") return ftl::VictimPolicyKind::kRandom;
  if (name == "sampled-greedy") return ftl::VictimPolicyKind::kSampledGreedy;
  return std::nullopt;
}

}  // namespace

std::optional<wl::WorkloadSpec> find_benchmark_spec(const std::string& name) {
  auto specs = wl::paper_benchmark_specs();
  const auto core = wl::ycsb_core_specs();  // tenant mixes: ycsb-a .. ycsb-f
  specs.insert(specs.end(), core.begin(), core.end());
  for (const auto& spec : specs) {
    std::string lowered = spec.name;
    for (char& c : lowered) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    // Accept "bonnie" for "bonnie++", "tpcc" for "tpc-c", etc.
    if (lowered == name) return spec;
    std::string stripped;
    for (const char c : lowered) {
      if (std::isalnum(static_cast<unsigned char>(c))) stripped.push_back(c);
    }
    std::string wanted;
    for (const char c : name) {
      if (std::isalnum(static_cast<unsigned char>(c))) wanted.push_back(c);
    }
    if (stripped == wanted) return spec;
  }
  return std::nullopt;
}

std::optional<CliOptions> parse_cli(const std::vector<std::string>& args, std::string& error) {
  CliOptions opt;
  // First --tenant-* flag seen, for the "requires --tenants" diagnostic.
  std::string tenant_flag_seen;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const auto eq = arg.find('=');
    const std::string key = eq == std::string::npos ? arg : arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);

    const auto need_value = [&]() -> bool {
      if (value.empty()) {
        error = key + " requires a value (use " + key + "=<value>)";
        return false;
      }
      return true;
    };

    if (key == "--help" || key == "-h") {
      opt.show_help = true;
    } else if (key == "--workload") {
      if (!need_value()) return std::nullopt;
      opt.workload = value;
    } else if (key == "--trace") {
      if (!need_value()) return std::nullopt;
      opt.trace_path = value;
    } else if (key == "--trace-buffered") {
      if (!need_value() || !parse_double(value, opt.trace_buffered_fraction) ||
          !(opt.trace_buffered_fraction >= 0.0 && opt.trace_buffered_fraction <= 1.0)) {
        error = "--trace-buffered needs a fraction in [0,1]";
        return std::nullopt;
      }
    } else if (key == "--tenants") {
      std::uint64_t v = 0;
      if (!need_value() || !parse_u64(value, v) || v == 0) {
        error = "--tenants needs a positive tenant count";
        return std::nullopt;
      }
      opt.tenants = static_cast<std::uint32_t>(v);
    } else if (key == "--tenant-mix") {
      if (!need_value()) return std::nullopt;
      opt.tenant_mix = split_list(value);
      for (const std::string& mix : opt.tenant_mix) {
        if (mix.empty()) {
          error = "--tenant-mix needs comma-separated workload names";
          return std::nullopt;
        }
      }
      tenant_flag_seen = key;
    } else if (key == "--tenant-weight" || key == "--tenant-rate" || key == "--tenant-qos-p99") {
      std::vector<double>& list = key == "--tenant-weight" ? opt.tenant_weight
                                  : key == "--tenant-rate" ? opt.tenant_rate
                                                           : opt.tenant_qos_p99_ms;
      if (!need_value() || !parse_tenant_values(key, value, list, error)) return std::nullopt;
      tenant_flag_seen = key;
    } else if (key == "--tenant-arrival") {
      if (!need_value()) return std::nullopt;
      if (value != "open" && value != "closed") {
        error = "unknown tenant arrival model '" + value + "' (open|closed)";
        return std::nullopt;
      }
      opt.tenant_arrival = value;
      tenant_flag_seen = key;
    } else if (key == "--tenant-queue-depth") {
      std::uint64_t v = 0;
      if (!need_value() || !parse_u64(value, v) || v == 0) {
        error = "--tenant-queue-depth needs a positive admission-window size";
        return std::nullopt;
      }
      opt.tenant_queue_depth = static_cast<std::uint32_t>(v);
      tenant_flag_seen = key;
    } else if (key == "--trace-volume-map") {
      if (!need_value() || !parse_u32_list(value, opt.trace_volume_map)) {
        error = "--trace-volume-map needs comma-separated MSR volume numbers";
        return std::nullopt;
      }
    } else if (key == "--policy") {
      if (!need_value()) return std::nullopt;
      const auto policy = parse_policy(value);
      if (!policy) {
        error = "unknown policy '" + value + "' (lazy|aggressive|adaptive|jit|fixed)";
        return std::nullopt;
      }
      opt.policy = *policy;
    } else if (key == "--reserve") {
      if (!need_value() || !parse_double(value, opt.fixed_reserve_multiple) ||
          !(std::isfinite(opt.fixed_reserve_multiple) && opt.fixed_reserve_multiple > 0.0)) {
        error = "--reserve needs a finite positive C_resv/C_OP multiple";
        return std::nullopt;
      }
    } else if (key == "--seconds") {
      if (!need_value() || !parse_double(value, opt.seconds) ||
          !(std::isfinite(opt.seconds) && opt.seconds > 0.0)) {
        error = "--seconds needs a finite positive duration";
        return std::nullopt;
      }
    } else if (key == "--seed") {
      if (!need_value() || !parse_u64(value, opt.seed)) {
        error = "--seed needs an unsigned integer";
        return std::nullopt;
      }
    } else if (key == "--snapshot-cache") {
      if (!need_value()) return std::nullopt;
      opt.snapshot_cache_dir = value;
    } else if (key == "--snapshot-cache-limit") {
      if (!need_value() || !parse_u64(value, opt.snapshot_cache_limit) ||
          opt.snapshot_cache_limit == 0) {
        error = "--snapshot-cache-limit needs a positive snapshot-file count";
        return std::nullopt;
      }
    } else if (key == "--spo-at") {
      // NaN-safe like the fault flags: !(finite && in-range) rejects NaN,
      // infinities, and negatives alike, always naming the offending flag.
      if (!need_value() || !parse_double(value, opt.spo_at_s) ||
          !(std::isfinite(opt.spo_at_s) && opt.spo_at_s >= 0.0)) {
        error = "--spo-at needs a finite time in seconds (>= 0)";
        return std::nullopt;
      }
    } else if (key == "--spo-every") {
      if (!need_value() || !parse_double(value, opt.spo_every_s) ||
          !(std::isfinite(opt.spo_every_s) && opt.spo_every_s > 0.0)) {
        error = "--spo-every needs a finite positive period in seconds";
        return std::nullopt;
      }
    } else if (key == "--spo-precondition-writes") {
      if (!need_value() || !parse_u64(value, opt.spo_precondition_writes) ||
          opt.spo_precondition_writes == 0) {
        error = "--spo-precondition-writes needs a positive write count";
        return std::nullopt;
      }
    } else if (key == "--checkpoint-every-erases") {
      if (!need_value() || !parse_u64(value, opt.checkpoint_every_erases)) {
        error = "--checkpoint-every-erases needs an erase count (0 = off)";
        return std::nullopt;
      }
    } else if (key == "--arrival") {
      if (!need_value()) return std::nullopt;
      if (value != "open" && value != "closed") {
        error = "unknown arrival model '" + value + "' (open|closed)";
        return std::nullopt;
      }
      opt.open_loop_arrivals = value == "open";
    } else if (key == "--blocks-per-plane") {
      std::uint64_t v = 0;
      if (!need_value() || !parse_u64(value, v) || v == 0 || v > UINT32_MAX) {
        error = "--blocks-per-plane needs a positive 32-bit integer";
        return std::nullopt;
      }
      opt.blocks_per_plane = static_cast<std::uint32_t>(v);
    } else if (key == "--pages-per-block") {
      std::uint64_t v = 0;
      if (!need_value() || !parse_u64(value, v) || v == 0 || v > UINT32_MAX) {
        error = "--pages-per-block needs a positive 32-bit integer";
        return std::nullopt;
      }
      opt.pages_per_block = static_cast<std::uint32_t>(v);
    } else if (key == "--op-ratio") {
      if (!need_value() || !parse_double(value, opt.op_ratio) || !(opt.op_ratio > 0.0 && opt.op_ratio < 1.0)) {
        error = "--op-ratio needs a fraction in (0,1)";
        return std::nullopt;
      }
    } else if (key == "--endurance") {
      if (!need_value() || !parse_u64(value, opt.endurance_pe_cycles)) {
        error = "--endurance needs a P/E cycle count";
        return std::nullopt;
      }
    } else if (key == "--fault-program") {
      if (!need_value() || !parse_double(value, opt.fault_program_fail_prob) ||
          !(opt.fault_program_fail_prob >= 0.0 && opt.fault_program_fail_prob <= 1.0)) {
        error = "--fault-program needs a probability in [0,1]";
        return std::nullopt;
      }
    } else if (key == "--fault-erase") {
      if (!need_value() || !parse_double(value, opt.fault_erase_fail_prob) ||
          !(opt.fault_erase_fail_prob >= 0.0 && opt.fault_erase_fail_prob <= 1.0)) {
        error = "--fault-erase needs a probability in [0,1]";
        return std::nullopt;
      }
    } else if (key == "--fault-wear") {
      if (!need_value() || !parse_double(value, opt.fault_wear_fail_prob) ||
          !(opt.fault_wear_fail_prob >= 0.0 && opt.fault_wear_fail_prob <= 1.0)) {
        error = "--fault-wear needs a probability in [0,1]";
        return std::nullopt;
      }
    } else if (key == "--spare-blocks") {
      std::uint64_t v = 0;
      if (!need_value() || !parse_u64(value, v) || v > UINT32_MAX) {
        error = "--spare-blocks needs a 32-bit block count";
        return std::nullopt;
      }
      opt.spare_blocks = static_cast<std::uint32_t>(v);
    } else if (key == "--victim") {
      if (!need_value()) return std::nullopt;
      const auto victim = parse_victim(value);
      if (!victim) {
        error = "unknown victim policy '" + value +
                "' (greedy|cost-benefit|fifo|random|sampled-greedy)";
        return std::nullopt;
      }
      opt.victim_policy = *victim;
    } else if (key == "--hot-cold") {
      opt.hot_cold_separation = true;
    } else if (key == "--measured-idle") {
      opt.use_measured_idle = true;
    } else if (key == "--service-queues") {
      std::uint64_t v = 0;
      if (!need_value() || !parse_u64(value, v)) {
        error = "--service-queues needs 0 (per-plane) or a queue count";
        return std::nullopt;
      }
      opt.service_queues = static_cast<std::uint32_t>(v);
    } else if (key == "--bgc-rate-limit") {
      if (!need_value() || !parse_double(value, opt.bgc_rate_limit_bps) ||
          !(std::isfinite(opt.bgc_rate_limit_bps) && opt.bgc_rate_limit_bps >= 0.0)) {
        error = "--bgc-rate-limit needs finite bytes/s (0 = unlimited)";
        return std::nullopt;
      }
    } else if (key == "--array-devices") {
      std::uint64_t v = 0;
      if (!need_value() || !parse_u64(value, v) || v == 0) {
        error = "--array-devices needs a positive device count";
        return std::nullopt;
      }
      opt.array_devices = static_cast<std::uint32_t>(v);
    } else if (key == "--stripe-chunk") {
      std::uint64_t v = 0;
      if (!need_value() || !parse_u64(value, v) || v == 0) {
        error = "--stripe-chunk needs a positive page count";
        return std::nullopt;
      }
      opt.stripe_chunk_pages = static_cast<std::uint32_t>(v);
    } else if (key == "--array-gc-mode") {
      if (!need_value()) return std::nullopt;
      if (value != "naive" && value != "staggered" && value != "maxk") {
        error = "unknown array GC mode '" + value + "' (naive|staggered|maxk)";
        return std::nullopt;
      }
      opt.array_gc_mode = value;
    } else if (key == "--array-max-concurrent-gc") {
      std::uint64_t v = 0;
      if (!need_value() || !parse_u64(value, v) || v == 0) {
        error = "--array-max-concurrent-gc needs a positive device count";
        return std::nullopt;
      }
      opt.array_max_concurrent_gc = static_cast<std::uint32_t>(v);
    } else if (key == "--array-redundancy") {
      if (!need_value()) return std::nullopt;
      // Enumerates the valid schemes inline: the sim layer cannot call
      // array::redundancy_scheme_names() (the dependency is one-way), and
      // array_cli.cpp re-validates with the authoritative list.
      if (value != "none" && value != "mirror" && value != "parity") {
        error = "unknown array redundancy scheme '" + value + "' (none|mirror|parity)";
        return std::nullopt;
      }
      opt.array_redundancy = value;
    } else if (key == "--array-spares") {
      std::uint64_t v = 0;
      if (!need_value() || !parse_u64(value, v)) {
        error = "--array-spares needs a spare device count";
        return std::nullopt;
      }
      opt.array_spares = static_cast<std::uint32_t>(v);
    } else if (key == "--rebuild-rate-floor") {
      if (!need_value() || !parse_double(value, opt.rebuild_rate_floor) ||
          !(opt.rebuild_rate_floor >= 0.0 && opt.rebuild_rate_floor <= 1.0)) {
        error = "--rebuild-rate-floor needs a duty fraction in [0, 1]";
        return std::nullopt;
      }
    } else if (key == "--array-kill-device") {
      std::uint64_t v = 0;
      if (!need_value() || !parse_u64(value, v)) {
        error = "--array-kill-device needs a slot index";
        return std::nullopt;
      }
      opt.array_kill_slot = static_cast<std::int32_t>(v);
    } else if (key == "--array-kill-at") {
      if (!need_value() || !parse_double(value, opt.array_kill_at_s) ||
          !(std::isfinite(opt.array_kill_at_s) && opt.array_kill_at_s >= 0.0)) {
        error = "--array-kill-at needs a finite time in seconds (>= 0)";
        return std::nullopt;
      }
    } else if (key == "--array-outage-device") {
      std::uint64_t v = 0;
      if (!need_value() || !parse_u64(value, v)) {
        error = "--array-outage-device needs a slot index";
        return std::nullopt;
      }
      opt.array_outage_slot = static_cast<std::int32_t>(v);
    } else if (key == "--array-outage-at") {
      if (!need_value() || !parse_double(value, opt.array_outage_at_s) ||
          !(std::isfinite(opt.array_outage_at_s) && opt.array_outage_at_s >= 0.0)) {
        error = "--array-outage-at needs a finite time in seconds (>= 0)";
        return std::nullopt;
      }
    } else if (key == "--array-outage-restore-at") {
      if (!need_value() || !parse_double(value, opt.array_outage_restore_at_s) ||
          !(std::isfinite(opt.array_outage_restore_at_s) &&
            opt.array_outage_restore_at_s >= 0.0)) {
        error = "--array-outage-restore-at needs a finite time in seconds (>= 0)";
        return std::nullopt;
      }
    } else if (key == "--array-spo-device") {
      std::uint64_t v = 0;
      if (!need_value() || !parse_u64(value, v)) {
        error = "--array-spo-device needs a slot index";
        return std::nullopt;
      }
      opt.array_spo_slot = static_cast<std::int32_t>(v);
    } else if (key == "--array-spo-at") {
      if (!need_value() || !parse_double(value, opt.array_spo_at_s) ||
          !(std::isfinite(opt.array_spo_at_s) && opt.array_spo_at_s >= 0.0)) {
        error = "--array-spo-at needs a finite time in seconds (>= 0)";
        return std::nullopt;
      }
    } else if (key == "--jobs") {
      if (!need_value() || !parse_u64(value, opt.jobs)) {
        error = "--jobs needs a thread count (0 = hardware)";
        return std::nullopt;
      }
    } else if (key == "--no-sip") {
      opt.use_sip_list = false;
    } else if (key == "--percentile") {
      if (!need_value() || !parse_double(value, opt.direct_quantile) ||
          !(opt.direct_quantile > 0.0 && opt.direct_quantile <= 1.0)) {
        error = "--percentile needs a value in (0,1]";
        return std::nullopt;
      }
    } else if (key == "--metrics") {
      if (!need_value()) return std::nullopt;
      opt.metrics_path = value;
    } else if (key == "--csv") {
      opt.csv = true;
    } else if (key == "--csv-header") {
      opt.csv = true;
      opt.csv_header = true;
    } else if (key == "--json") {
      opt.json = true;
    } else {
      error = "unknown option '" + key + "'";
      return std::nullopt;
    }
  }
  if (opt.spo_every_s > 0.0 && opt.spo_at_s < 0.0) {
    error = "--spo-every requires --spo-at (the first cut anchors the cadence)";
    return std::nullopt;
  }
  if (opt.snapshot_cache_limit > 0 && opt.snapshot_cache_dir.empty()) {
    error = "--snapshot-cache-limit requires --snapshot-cache";
    return std::nullopt;
  }
  if (opt.tenants == 0) {
    if (!tenant_flag_seen.empty()) {
      error = tenant_flag_seen + " requires --tenants";
      return std::nullopt;
    }
    if (!opt.trace_volume_map.empty()) {
      error = "--trace-volume-map requires --tenants (it maps volumes onto tenants)";
      return std::nullopt;
    }
  } else {
    const std::pair<const char*, std::size_t> tenant_lists[] = {
        {"--tenant-mix", opt.tenant_mix.size()},
        {"--tenant-weight", opt.tenant_weight.size()},
        {"--tenant-rate", opt.tenant_rate.size()},
        {"--tenant-qos-p99", opt.tenant_qos_p99_ms.size()},
    };
    for (const auto& [flag, n] : tenant_lists) {
      if (n > 1 && n != opt.tenants) {
        error = std::string(flag) + " got " + std::to_string(n) + " values for " +
                std::to_string(opt.tenants) +
                " tenants (give one shared value or one per tenant)";
        return std::nullopt;
      }
    }
    if (!opt.trace_path.empty() && opt.trace_volume_map.empty()) {
      error = "--tenants with --trace requires --trace-volume-map (one MSR volume per tenant)";
      return std::nullopt;
    }
    if (!opt.trace_volume_map.empty() && opt.trace_volume_map.size() != opt.tenants) {
      error = "--trace-volume-map got " + std::to_string(opt.trace_volume_map.size()) +
              " volumes for " + std::to_string(opt.tenants) +
              " tenants (give exactly one per tenant)";
      return std::nullopt;
    }
  }
  if (!opt.trace_volume_map.empty() && opt.trace_path.empty()) {
    error = "--trace-volume-map requires --trace";
    return std::nullopt;
  }
  // The FTL packs every physical page address into 32 bits (nand::PpaCodec);
  // a device too large for that is refused here, naming the flags.
  nand::Geometry geometry = nand::small_geometry();
  geometry.blocks_per_plane = opt.blocks_per_plane;
  geometry.pages_per_block = opt.pages_per_block;
  if (!geometry.packed_ppa_fits()) {
    error = "--blocks-per-plane x --pages-per-block: device too large for 32-bit page addresses";
    return std::nullopt;
  }
  return opt;
}

std::string cli_usage() {
  return R"(usage: jitgc_cli [options]
  --workload=<name>      ycsb|postmark|filebench|bonnie|tiobench|tpcc|
                         mail-server|file-server        (default ycsb)
  --trace=<file>         replay an MSR-format block trace instead
  --trace-buffered=<f>   re-synthesize this fraction of trace writes as buffered
  --tenants=<n>          multi-tenant front-end with n queues  (default off)
  --tenant-mix=<a,b,..>  per-tenant workload mixes (one shared, or one per tenant)
  --tenant-weight=<w,..> per-tenant DWRR weights, > 0          (default 1)
  --tenant-rate=<b,..>   per-tenant submission caps, bytes/s (0 = uncapped)
  --tenant-qos-p99=<ms,..>  per-tenant p99 targets, ms (0 = ungraded)
  --tenant-arrival=<m>   open|closed arrivals for every tenant (default open)
  --tenant-queue-depth=<n>  global admission window            (default 32)
  --trace-volume-map=<v,..>  MSR volume each tenant replays (trace mode)
  --policy=<name>        lazy|aggressive|adaptive|jit|fixed   (default jit)
  --reserve=<m>          C_resv as a multiple of C_OP for --policy=fixed
  --seconds=<s>          measured duration                    (default 300)
  --seed=<n>             RNG seed                             (default 1)
  --snapshot-cache=<dir> reuse post-precondition device state across runs
                         (byte-identical output; cold miss fills the cache)
  --snapshot-cache-limit=<n>  LRU cap on the disk cache, in snapshot files
  --spo-at=<s>           sudden power-off this far into the measured run;
                         the device recovers by OOB scan (default off)
  --spo-every=<s>        repeat the power cut every s seconds (needs --spo-at)
  --spo-precondition-writes=<n>  one SPO after n preconditioning writes
  --checkpoint-every-erases=<k>  mapping checkpoint every k erases
                         (bounds the recovery scan; 0 = full scan)
  --arrival=<m>          closed|open arrival model, single-SSD (default closed)
  --blocks-per-plane=<n> device scale                         (default 256)
  --pages-per-block=<n>                                       (default 256)
  --op-ratio=<f>         over-provisioning fraction           (default 0.07)
  --endurance=<pe>       enforce endurance at this P/E rating (default off)
  --fault-program=<p>    NAND program-failure probability     (default 0)
  --fault-erase=<p>      NAND erase-failure probability       (default 0)
  --fault-wear=<p>       extra failure probability at the endurance limit
  --spare-blocks=<n>     factory spares for bad-block management (default 0)
  --victim=<name>        greedy|cost-benefit|fifo|random|sampled-greedy
  --hot-cold             enable hot/cold stream separation
  --measured-idle        JIT-GC uses measured device idle for T_idle
  --service-queues=<n>   1 = scaled single queue; 0 = one queue per plane
  --bgc-rate-limit=<bps> QoS cap on background GC reclaim (0 = unlimited)
  --array-devices=<n>    stripe the volume over N SSDs (array mode; default off)
  --stripe-chunk=<pages> stripe chunk size                    (default 8)
  --array-gc-mode=<m>    naive|staggered|maxk                 (default staggered)
  --array-max-concurrent-gc=<k>  GC concurrency cap           (default 1)
  --array-redundancy=<s> none|mirror|parity                   (default none)
  --array-spares=<n>     hot spares for rebuilds              (default 0)
  --rebuild-rate-floor=<f>  min rebuild duty fraction [0,1]   (default 0.1)
  --array-kill-device=<slot>  scripted kill: retire this slot's device
  --array-kill-at=<s>    kill time in seconds                 (default 0)
  --array-outage-device=<slot>  scripted transient outage: suspend this slot
  --array-outage-at=<s>  outage start, seconds                (default 0)
  --array-outage-restore-at=<s>  device returns at this time
  --array-spo-device=<slot>  sudden power-off for this slot's device; it
                         recovers by OOB scan and resyncs via rebuild
  --array-spo-at=<s>     array SPO time in seconds             (default 0)
  --jobs=<n>             array GC fan-out threads, 0 = hardware (default 0)
  --no-sip               disable SIP victim filtering (JIT-GC)
  --percentile=<q>       CDH reserve quantile                 (default 0.8)
  --metrics=<file>       write per-interval + run JSONL records (docs/model.md)
  --csv / --csv-header   machine-readable one-line output
  --json                 machine-readable JSON object output
)";
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
  config.ssd.ftl.geometry.blocks_per_plane = options.blocks_per_plane;
  config.ssd.ftl.geometry.pages_per_block = options.pages_per_block;
  config.ssd.ftl.op_ratio = options.op_ratio;
  config.ssd.ftl.victim_policy = options.victim_policy;
  config.ssd.ftl.enable_hot_cold_separation = options.hot_cold_separation;
  config.ssd.service_queues = options.service_queues;
  config.bgc_rate_limit_bps = options.bgc_rate_limit_bps;
  if (options.endurance_pe_cycles > 0) {
    config.ssd.ftl.enforce_endurance = true;
    config.ssd.ftl.timing.endurance_pe_cycles = options.endurance_pe_cycles;
  }
  config.ssd.ftl.fault.program_fail_prob = options.fault_program_fail_prob;
  config.ssd.ftl.fault.erase_fail_prob = options.fault_erase_fail_prob;
  config.ssd.ftl.fault.wear_fail_prob_at_limit = options.fault_wear_fail_prob;
  config.ssd.ftl.spare_blocks = options.spare_blocks;
  config.ssd.ftl.checkpoint_interval_erases = options.checkpoint_every_erases;
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
