// jitgc_sweep — run a (workload x policy) matrix on the parallel sweep
// engine and emit structured results.
//
//   jitgc_sweep > results.jsonl
//   jitgc_sweep --seconds=120 --seeds=3 --threads=8 > results.jsonl
//   jitgc_sweep --matrix=fig2 --intervals --workload=ycsb > fig2.jsonl
//   jitgc_sweep --format=csv > results.csv            # legacy run-level CSV
//
// Output is bit-identical for any --threads value: each run derives its seed
// from (base seed, run index) and runs buffer their records independently,
// written back in run order. JSONL schema: docs/model.md §"Structured
// metrics".
#include <cctype>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "host/frontend/tenant_config.h"
#include "sim/cli_options.h"
#include "sim/sweep.h"

namespace {

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

int usage(int code) {
  std::fprintf(stderr,
               "usage: jitgc_sweep [options]\n"
               "  --matrix=<name>    fig7 (6 benchmarks x 4 policies, default) |\n"
               "                     fig2 (6 benchmarks x fixed reserves 0.5/1.0/1.5)\n"
               "  --workload=<name>  keep only this benchmark's cells (e.g. ycsb)\n"
               "  --seconds=<s>      measured duration per run        (default 300)\n"
               "  --seeds=<n>        independent repetitions per cell (default 1)\n"
               "  --base-seed=<n>    seed-derivation base             (default 1)\n"
               "  --threads=<n>      worker threads; 0 = all hardware (default 0)\n"
               "  --format=<f>      jsonl (default) | csv (legacy run-level rows)\n"
               "  --intervals        also emit per-interval records (jsonl only)\n"
               "  --retries=<n>      extra attempts per failed run    (default 2)\n"
               "  --checkpoint=<dir> write crash-safe per-run progress here\n"
               "  --resume           reuse completed runs from --checkpoint dir\n"
               "  --snapshot-cache=<dir> reuse post-precondition device state across\n"
               "                     invocations (byte-identical measured output;\n"
               "                     a cold miss fills the cache)\n"
               "  --fault-program=<p> NAND program-failure probability  (default 0)\n"
               "  --fault-erase=<p>  NAND erase-failure probability    (default 0)\n"
               "  --fault-wear=<p>   extra failure probability at the endurance\n"
               "                     limit (ramps up from 90%% of the limit)\n"
               "  --spare-blocks=<n> factory spare blocks for bad-block management\n"
               "  --endurance=<pe>   enforce endurance at this P/E rating\n"
               "  --tenants=<n>      drive every run through the multi-tenant\n"
               "                     front-end with n tenant queues\n"
               "  --tenant-mix=<a,b> benchmark per tenant (one value broadcasts;\n"
               "                     default: each tenant runs the cell's benchmark)\n"
               "  --tenant-weight=<w,..> DWRR weight per tenant (> 0, default 1)\n"
               "  --tenant-rate=<b,..>   rate cap per tenant, bytes/s (0 = uncapped)\n"
               "  --tenant-qos-p99=<ms,..> p99 target per tenant, ms (0 = ungraded)\n"
               "  --tenant-arrival=<m>  open (default) | closed arrival process\n"
               "  --tenant-queue-depth=<n> global admission window (default 32)\n");
  return code;
}

// Strict numeric flags: the whole value must parse, or the error names the
// flag. A negative count never wraps to 2^64-1 and runs nothing.
bool number_flag(const std::string& flag, const std::string& value, double& out) {
  if (jitgc::sim::parse_double(value, out)) return true;
  std::fprintf(stderr, "%s needs a number, got '%s'\n", flag.c_str(), value.c_str());
  return false;
}

bool number_flag(const std::string& flag, const std::string& value, std::uint64_t& out) {
  if (jitgc::sim::parse_u64(value, out)) return true;
  std::fprintf(stderr, "%s needs an unsigned integer, got '%s'\n", flag.c_str(), value.c_str());
  return false;
}

// The CLI broadcast rule: one shared value applies to every tenant; anything
// other than 1 or `tenants` values is an error (reported naming the flag).
bool spread(const std::vector<double>& list, std::size_t tenants, const char* flag,
            std::vector<double>& out) {
  if (list.empty()) return true;  // flag absent: keep defaults
  if (list.size() != 1 && list.size() != tenants) {
    std::fprintf(stderr, "%s got %zu values for %zu tenants (give one shared value or one per tenant)\n",
                 flag, list.size(), tenants);
    return false;
  }
  out.resize(tenants);
  for (std::size_t t = 0; t < tenants; ++t) out[t] = list[list.size() == 1 ? 0 : t];
  return true;
}

bool probability_flag(const std::string& flag, const std::string& value, double& out) {
  if (!number_flag(flag, value, out)) return false;
  if (!(out >= 0.0 && out <= 1.0)) {  // negated form also rejects NaN
    std::fprintf(stderr, "%s needs a probability in [0,1]\n", flag.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace jitgc;

  double seconds_arg = 300.0;
  std::string matrix = "fig7";
  std::string workload_filter;
  double fault_program = 0.0;
  double fault_erase = 0.0;
  double fault_wear = 0.0;
  std::uint64_t spare_blocks = 0;
  std::uint64_t endurance = 0;
  std::uint64_t tenants = 0;
  std::vector<std::string> tenant_mix;
  std::vector<double> tenant_weight;
  std::vector<double> tenant_rate;
  std::vector<double> tenant_qos;
  std::string tenant_arrival = "open";
  std::uint64_t tenant_queue_depth = 32;
  std::string tenant_flag_seen;
  sim::SweepOptions options;

  std::uint64_t seeds = options.seeds;
  std::uint64_t threads_arg = options.threads;
  std::uint64_t retries = options.run_retries;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // Value flags are spelled --key=value; a bare word matches only the
    // switches below (--resume, --intervals, --help).
    const std::size_t eq = arg.find('=');
    const std::string key = eq == std::string::npos ? "" : arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    bool ok = true;
    if (key == "--seconds") {
      ok = number_flag(key, value, seconds_arg);
    } else if (key == "--seeds") {
      ok = number_flag(key, value, seeds);
    } else if (key == "--base-seed") {
      ok = number_flag(key, value, options.base_seed);
    } else if (key == "--threads") {
      ok = number_flag(key, value, threads_arg);
    } else if (key == "--matrix") {
      matrix = value;
    } else if (key == "--workload") {
      workload_filter = value;
    } else if (key == "--retries") {
      ok = number_flag(key, value, retries);
    } else if (key == "--checkpoint") {
      options.checkpoint_dir = value;
    } else if (arg == "--resume") {
      options.resume = true;
    } else if (key == "--snapshot-cache") {
      options.snapshot_cache_dir = value;
    } else if (key == "--fault-program") {
      ok = probability_flag(key, value, fault_program);
    } else if (key == "--fault-erase") {
      ok = probability_flag(key, value, fault_erase);
    } else if (key == "--fault-wear") {
      ok = probability_flag(key, value, fault_wear);
    } else if (key == "--spare-blocks") {
      ok = number_flag(key, value, spare_blocks);
    } else if (key == "--endurance") {
      ok = number_flag(key, value, endurance);
    } else if (key == "--tenants") {
      ok = number_flag(key, value, tenants);
      if (ok && tenants == 0) {
        std::fprintf(stderr, "--tenants needs a positive tenant count\n");
        ok = false;
      }
    } else if (key == "--tenant-mix") {
      tenant_mix = sim::split_list(value);
      for (const std::string& mix : tenant_mix) {
        if (mix.empty()) {
          std::fprintf(stderr, "--tenant-mix needs comma-separated workload names\n");
          ok = false;
        }
      }
      tenant_flag_seen = key;
    } else if (key == "--tenant-weight" || key == "--tenant-rate" || key == "--tenant-qos-p99") {
      std::vector<double>& list = key == "--tenant-weight" ? tenant_weight
                                  : key == "--tenant-rate" ? tenant_rate
                                                           : tenant_qos;
      std::string error;
      ok = sim::parse_tenant_values(key, value, list, error);
      if (!ok) std::fprintf(stderr, "%s\n", error.c_str());
      tenant_flag_seen = key;
    } else if (key == "--tenant-arrival") {
      tenant_arrival = value;
      if (tenant_arrival != "open" && tenant_arrival != "closed") {
        std::fprintf(stderr, "unknown tenant arrival model '%s' (open|closed)\n",
                     tenant_arrival.c_str());
        ok = false;
      }
      tenant_flag_seen = key;
    } else if (key == "--tenant-queue-depth") {
      ok = number_flag(key, value, tenant_queue_depth);
      if (ok && tenant_queue_depth == 0) {
        std::fprintf(stderr, "--tenant-queue-depth needs a positive window\n");
        ok = false;
      }
      tenant_flag_seen = key;
    } else if (key == "--format") {
      if (value == "jsonl") {
        options.format = sim::SweepFormat::kJsonl;
      } else if (value == "csv") {
        options.format = sim::SweepFormat::kCsv;
      } else {
        std::fprintf(stderr, "unknown format '%s'\n", value.c_str());
        ok = false;
      }
    } else if (arg == "--intervals") {
      options.emit_intervals = true;
    } else if (arg == "--help" || arg == "-h") {
      return usage(0);
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      ok = false;
    }
    if (!ok) return usage(2);
  }
  if (!(std::isfinite(seconds_arg) && seconds_arg > 0.0)) {
    std::fprintf(stderr, "--seconds needs a finite positive duration\n");
    return usage(2);
  }
  if (seeds == 0) {
    std::fprintf(stderr, "--seeds needs a positive repetition count\n");
    return usage(2);
  }
  options.seeds = seeds;
  options.threads = threads_arg;
  options.run_retries = retries;
  if (options.resume && options.checkpoint_dir.empty()) {
    std::fprintf(stderr, "--resume needs --checkpoint=<dir>\n");
    return usage(2);
  }
  if (fault_wear > 0.0 && endurance == 0) {
    std::fprintf(stderr, "--fault-wear needs --endurance=<pe> (the ramp anchor)\n");
    return usage(2);
  }
  if (tenants == 0 && !tenant_flag_seen.empty()) {
    std::fprintf(stderr, "%s requires --tenants\n", tenant_flag_seen.c_str());
    return usage(2);
  }
  if (tenants > 0) {
    if (tenant_mix.size() > 1 && tenant_mix.size() != tenants) {
      std::fprintf(stderr,
                   "--tenant-mix got %zu values for %llu tenants (give one shared value or one "
                   "per tenant)\n",
                   tenant_mix.size(), static_cast<unsigned long long>(tenants));
      return usage(2);
    }
    for (const std::string& mix : tenant_mix) {
      if (!sim::find_benchmark_spec(mix)) {
        std::fprintf(stderr, "unknown tenant mix '%s'\n", mix.c_str());
        return usage(2);
      }
    }
  }

  std::vector<sim::SweepCell> cells;
  if (matrix == "fig7") {
    cells = sim::paper_matrix_cells();
  } else if (matrix == "fig2") {
    cells = sim::fixed_reserve_cells({0.5, 1.0, 1.5});
  } else {
    std::fprintf(stderr, "unknown matrix '%s'\n", matrix.c_str());
    return usage(2);
  }
  if (!workload_filter.empty()) {
    std::vector<sim::SweepCell> kept;
    const std::string wanted = normalized(workload_filter);
    for (const auto& cell : cells) {
      if (normalized(cell.workload.name) == wanted) kept.push_back(cell);
    }
    if (kept.empty()) {
      std::fprintf(stderr, "no cell matches workload '%s'\n", workload_filter.c_str());
      return 2;
    }
    cells = std::move(kept);
  }

  options.base = sim::default_sim_config();
  options.base.duration = seconds(seconds_arg);
  auto& ftl_config = options.base.ssd.ftl;
  ftl_config.fault.program_fail_prob = fault_program;
  ftl_config.fault.erase_fail_prob = fault_erase;
  ftl_config.fault.wear_fail_prob_at_limit = fault_wear;
  ftl_config.spare_blocks = static_cast<std::uint32_t>(spare_blocks);
  if (endurance > 0) {
    ftl_config.enforce_endurance = true;
    ftl_config.timing.endurance_pe_cycles = endurance;
  }
  if (tenants > 0) {
    std::vector<double> weights, rates, qos;
    if (!spread(tenant_weight, tenants, "--tenant-weight", weights) ||
        !spread(tenant_rate, tenants, "--tenant-rate", rates) ||
        !spread(tenant_qos, tenants, "--tenant-qos-p99", qos)) {
      return usage(2);
    }
    auto& fe = options.base.frontend;
    fe.queue_depth = static_cast<std::uint32_t>(tenant_queue_depth);
    fe.tenants.resize(tenants);
    for (std::size_t t = 0; t < tenants; ++t) {
      frontend::TenantSpec& spec = fe.tenants[t];
      // An empty mix makes the tenant inherit each cell's benchmark, so the
      // matrix still varies the workload per cell.
      spec.mix = tenant_mix.empty() ? std::string()
                                    : tenant_mix[tenant_mix.size() == 1 ? 0 : t];
      if (!weights.empty()) spec.weight = weights[t];
      if (!rates.empty()) spec.rate_bps = rates[t];
      if (!qos.empty()) spec.qos_p99_ms = qos[t];
      spec.closed_loop = tenant_arrival == "closed";
    }
  }

  const std::size_t threads =
      options.threads > 0 ? options.threads : ThreadPool::hardware_threads();
  std::fprintf(stderr, "jitgc_sweep: %zu runs (%zu cells x %zu seeds) on %zu threads\n",
               cells.size() * options.seeds, cells.size(), options.seeds, threads);

  try {
    sim::run_sweep_to(std::cout, options, cells);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "jitgc_sweep: %s\n", e.what());
    return 2;
  }
  return 0;
}
