#include "sim/sweep.h"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "common/ensure.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "host/frontend/frontend.h"
#include "sim/cli_options.h"
#include "sim/metrics_sink.h"
#include "sim/snapshot.h"
#include "workload/specs.h"

namespace jitgc::sim {
namespace {

namespace fs = std::filesystem;

std::string cell_label(const SweepCell& cell) {
  std::string label = "workload " + cell.workload.name + ", policy " +
                      policy_kind_name(cell.policy);
  if (cell.policy == PolicyKind::kFixedReserve) {
    char buf[32];
    std::snprintf(buf, sizeof buf, " (reserve %.6gxOP)", cell.fixed_multiple);
    label += buf;
  }
  return label;
}

// The front-end a tenant sweep run is driven by. A tenant spec whose mix is
// empty inherits the cell's benchmark, so a sweep matrix varies the workload
// per cell while keeping one shared tenant topology (weights, rates, QoS).
std::unique_ptr<frontend::HostFrontend> make_sweep_frontend(const SimConfig& config,
                                                            const SweepCell& cell,
                                                            Lba user_pages,
                                                            std::uint64_t seed) {
  frontend::FrontendConfig fe = config.frontend;
  for (frontend::TenantSpec& spec : fe.tenants) {
    if (spec.mix.empty()) spec.mix = cell.workload.name;
  }
  const frontend::GeneratorFactory factory =
      [&cell](const frontend::TenantSpec& spec, std::uint32_t /*tenant*/, Lba partition_pages,
              std::uint64_t tenant_seed) -> std::unique_ptr<wl::WorkloadGenerator> {
    wl::WorkloadSpec base = cell.workload;
    if (spec.mix != cell.workload.name) {
      const auto bench = find_benchmark_spec(spec.mix);
      if (!bench) throw std::runtime_error("unknown tenant mix: " + spec.mix);
      base = *bench;
    }
    return std::make_unique<wl::SyntheticWorkload>(base, partition_pages, tenant_seed);
  };
  return std::make_unique<frontend::HostFrontend>(fe, user_pages,
                                                  config.ssd.ftl.geometry.page_size, seed,
                                                  factory);
}

SweepRunResult execute_attempt(const SweepOptions& options, const SweepCell& cell,
                               std::uint64_t run_index, std::size_t attempt,
                               SnapshotCache* snapshots) {
  SweepRunResult result;
  result.run_index = run_index;
  result.seed = sweep_attempt_seed(options.base_seed, run_index, attempt);

  SimConfig config = options.base;
  config.seed = result.seed;
  Simulator simulator(config);
  if (snapshots != nullptr) simulator.set_snapshot_cache(snapshots);
  const Lba user_pages = simulator.ssd().ftl().user_pages();
  std::unique_ptr<wl::WorkloadGenerator> workload;
  std::unique_ptr<core::BgcPolicy> policy;
  if (config.frontend.enabled()) {
    auto fe = make_sweep_frontend(config, cell, user_pages, result.seed);
    policy = make_policy(cell.policy, config, cell.fixed_multiple, cell.overrides, fe.get());
    workload = std::move(fe);
  } else {
    workload = std::make_unique<wl::SyntheticWorkload>(cell.workload, user_pages, result.seed);
    policy = make_policy(cell.policy, config, cell.fixed_multiple, cell.overrides);
  }

  RecordingMetricsSink sink;
  simulator.set_metrics_sink(&sink);
  result.report = simulator.run(*workload, *policy);

  switch (options.format) {
    case SweepFormat::kJsonl: {
      const auto emit = [&](const auto& record) {
        result.serialized += format_jsonl(run_index, result.seed, record);
        result.serialized += '\n';
      };
      if (options.emit_intervals) {
        // Tenant interval records ride directly behind their interval, the
        // same order a JsonlMetricsSink streams them in.
        std::size_t tenant_cursor = 0;
        const auto& tenant_records = sink.tenant_intervals();
        for (const auto& record : sink.intervals()) {
          emit(record);
          while (tenant_cursor < tenant_records.size() &&
                 tenant_records[tenant_cursor].interval == record.interval) {
            emit(tenant_records[tenant_cursor++]);
          }
        }
      }
      // Fault/degradation events (rare, only under fault injection) are
      // emitted even without --intervals: a retired block is run-defining.
      for (const auto& record : sink.faults()) emit(record);
      emit(result.report);
      break;
    }
    case SweepFormat::kCsv:
      // Legacy run-level rows; per-interval output needs JSONL.
      result.serialized = format_csv_row(result.report);
      result.serialized += ',';
      result.serialized += std::to_string(result.seed);
      result.serialized += '\n';
      break;
  }
  return result;
}

SweepRunResult execute_run(const SweepOptions& options, const SweepCell& cell,
                           std::uint64_t run_index, SnapshotCache* snapshots) {
  for (std::size_t attempt = 0;; ++attempt) {
    try {
      return execute_attempt(options, cell, run_index, attempt, snapshots);
    } catch (const std::exception& e) {
      if (attempt < options.run_retries) continue;  // fresh derived seed next time
      // Surface the run's full identity: a sweep of hundreds of runs is
      // undebuggable from a bare what() alone.
      throw std::runtime_error(
          "sweep run " + std::to_string(run_index) + " (seed " +
          std::to_string(sweep_run_seed(options.base_seed, run_index)) + ", " +
          cell_label(cell) + ") failed after " + std::to_string(attempt + 1) +
          " attempt(s): " + e.what());
    }
  }
}

// -- Checkpointing ---------------------------------------------------------------
//
// Layout of checkpoint_dir:
//   manifest.txt   sweep_fingerprint() of the sweep that owns the directory
//   run_NNNNNN     the exact serialized bytes of completed run NNNNNN
// Every file is written to a ".tmp" sibling first and renamed into place, so
// a kill at any instant leaves either no file or a complete one — never a
// torn run that a resume would splice into the output.

fs::path run_checkpoint_path(const std::string& dir, std::uint64_t run_index) {
  char name[32];
  std::snprintf(name, sizeof name, "run_%06" PRIu64, run_index);
  return fs::path(dir) / name;
}

void write_file_atomic(const fs::path& path, const std::string& contents) {
  const fs::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("jitgc::sim: cannot create " + tmp.string());
    out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
    out.flush();
    if (!out) throw std::runtime_error("jitgc::sim: write failed for " + tmp.string());
  }
  fs::rename(tmp, path);  // atomic on POSIX: the final name is all-or-nothing
}

bool read_file(const fs::path& path, std::string& contents) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  contents = buffer.str();
  return true;
}

}  // namespace

std::uint64_t sweep_run_seed(std::uint64_t base_seed, std::uint64_t run_index) {
  return derive_seed(base_seed, run_index);
}

std::uint64_t sweep_attempt_seed(std::uint64_t base_seed, std::uint64_t run_index,
                                 std::size_t attempt) {
  const std::uint64_t run_seed = sweep_run_seed(base_seed, run_index);
  return attempt == 0 ? run_seed : derive_seed(run_seed, attempt);
}

std::string sweep_fingerprint(const SweepOptions& options, const std::vector<SweepCell>& cells) {
  std::ostringstream out;
  const auto& ftl = options.base.ssd.ftl;
  const auto& g = ftl.geometry;
  out << "jitgc sweep checkpoint v1\n"
      << "base_seed=" << options.base_seed << " seeds=" << options.seeds
      << " format=" << (options.format == SweepFormat::kJsonl ? "jsonl" : "csv")
      << " intervals=" << (options.emit_intervals ? 1 : 0)
      // Snapshot-cache presence adds the snapshot/precondition_wall_s run
      // fields, so a resume must not splice cache-less and cache-full runs.
      << " snapshots=" << (options.snapshot_cache_dir.empty() ? 0 : 1) << '\n'
      << "duration_us=" << options.base.duration
      << " precondition=" << (options.base.precondition ? 1 : 0)
      << " overwrite_factor=" << kPreconditionOverwriteFactor
      << " bgc_idle_detect_us=" << kBgcIdleDetect
      << " bgc_rate_limit_bps=" << options.base.bgc_rate_limit_bps << '\n'
      << "geometry=" << g.channels << 'x' << g.dies_per_channel << 'x' << g.planes_per_die
      << 'x' << g.blocks_per_plane << 'x' << g.pages_per_block << 'x' << g.page_size
      << " op_ratio=" << ftl.op_ratio << " victim=" << static_cast<int>(ftl.victim_policy)
      << " hot_cold=" << (ftl.enable_hot_cold_separation ? 1 : 0)
      << " endurance=" << (ftl.enforce_endurance ? ftl.timing.endurance_pe_cycles : 0) << '\n'
      << "fault: program=" << ftl.fault.program_fail_prob
      << " erase=" << ftl.fault.erase_fail_prob
      << " wear=" << ftl.fault.wear_fail_prob_at_limit
      << " ramp_start=" << ftl.fault.wear_ramp_start
      << " spares=" << ftl.spare_blocks << " retry_limit=" << ftl::Ftl::kProgramRetryLimit << '\n';
  // Tenant lines appear only when the front-end is on, so manifests written
  // by single-stream sweeps keep their exact legacy bytes.
  if (options.base.frontend.enabled()) {
    const auto& fe = options.base.frontend;
    out << "tenants=" << fe.tenants.size() << " queue_depth=" << fe.queue_depth
        << " quantum=" << fe.quantum_bytes << '\n';
    for (const auto& t : fe.tenants) {
      out << "tenant: mix=" << t.mix << " weight=" << t.weight << " rate=" << t.rate_bps
          << " qos=" << t.qos_p99_ms << " closed=" << (t.closed_loop ? 1 : 0) << '\n';
    }
  }
  out << "cells=" << cells.size() << '\n';
  for (const SweepCell& cell : cells) {
    out << "cell: " << cell_label(cell)
        << " sip=" << (cell.overrides.use_sip_list ? 1 : 0)
        << " quantile=" << cell.overrides.direct_quantile
        << " measured_idle=" << (cell.overrides.use_measured_idle ? 1 : 0) << '\n';
  }
  return out.str();
}

std::vector<SweepCell> paper_matrix_cells() {
  std::vector<SweepCell> cells;
  for (const auto& spec : wl::paper_benchmark_specs()) {
    for (const auto kind : {PolicyKind::kLazy, PolicyKind::kAggressive, PolicyKind::kAdaptive,
                            PolicyKind::kJit}) {
      SweepCell cell;
      cell.workload = spec;
      cell.policy = kind;
      cells.push_back(cell);
    }
  }
  return cells;
}

std::vector<SweepCell> fixed_reserve_cells(const std::vector<double>& multiples) {
  std::vector<SweepCell> cells;
  for (const auto& spec : wl::paper_benchmark_specs()) {
    for (const double m : multiples) {
      SweepCell cell;
      cell.workload = spec;
      cell.policy = PolicyKind::kFixedReserve;
      cell.fixed_multiple = m;
      cells.push_back(cell);
    }
  }
  return cells;
}

std::vector<SweepRunResult> run_sweep(const SweepOptions& options,
                                      const std::vector<SweepCell>& cells) {
  JITGC_ENSURE_MSG(!cells.empty(), "sweep needs at least one cell");
  JITGC_ENSURE_MSG(options.seeds >= 1, "sweep needs at least one seed");
  JITGC_ENSURE_MSG(!options.resume || !options.checkpoint_dir.empty(),
                   "sweep resume needs a checkpoint directory");
  const std::size_t total = options.seeds * cells.size();
  std::vector<SweepRunResult> results(total);

  const bool checkpointing = !options.checkpoint_dir.empty();
  if (checkpointing) {
    const std::string manifest = sweep_fingerprint(options, cells);
    fs::create_directories(options.checkpoint_dir);
    const fs::path manifest_path = fs::path(options.checkpoint_dir) / "manifest.txt";
    std::string existing;
    if (read_file(manifest_path, existing)) {
      if (existing != manifest) {
        if (options.resume) {
          throw std::runtime_error(
              "jitgc::sim: checkpoint manifest in '" + options.checkpoint_dir +
              "' describes a different sweep; refusing to resume (delete the "
              "directory to start over)");
        }
        // Fresh sweep over a stale directory: drop the old run files so a
        // later --resume of *this* sweep cannot splice in foreign output.
        for (const auto& entry : fs::directory_iterator(options.checkpoint_dir)) {
          if (entry.path().filename().string().rfind("run_", 0) == 0) {
            fs::remove(entry.path());
          }
        }
        write_file_atomic(manifest_path, manifest);
      }
      // Identical manifest without --resume: re-run everything but keep the
      // directory valid — completed files are simply overwritten.
    } else {
      if (options.resume) {
        throw std::runtime_error("jitgc::sim: no checkpoint manifest in '" +
                                 options.checkpoint_dir + "'; nothing to resume");
      }
      write_file_atomic(manifest_path, manifest);
    }
  }

  // One cache shared by every worker (SnapshotCache is thread-safe). Runs
  // have distinct seeds, so hits come from the disk tier filled by an earlier
  // invocation over the same matrix, never from a sibling run in this one.
  SnapshotCache snapshots(options.snapshot_cache_dir);
  SnapshotCache* snapshots_ptr = options.snapshot_cache_dir.empty() ? nullptr : &snapshots;

  ThreadPool pool(options.threads > 0 ? options.threads : ThreadPool::hardware_threads());
  pool.parallel_for(total, [&](std::size_t i) {
    // run_index = seed_idx * cells.size() + cell_idx: a run's identity (and
    // therefore its derived seed and output) depends only on its position in
    // the matrix, never on scheduling.
    if (checkpointing && options.resume) {
      std::string saved;
      if (read_file(run_checkpoint_path(options.checkpoint_dir, i), saved)) {
        results[i].run_index = i;
        results[i].seed = sweep_run_seed(options.base_seed, i);
        results[i].serialized = std::move(saved);
        results[i].resumed = true;
        return;
      }
    }
    results[i] = execute_run(options, cells[i % cells.size()], i, snapshots_ptr);
    if (checkpointing) {
      write_file_atomic(run_checkpoint_path(options.checkpoint_dir, i),
                        results[i].serialized);
    }
  });
  return results;
}

void run_sweep_to(std::ostream& out, const SweepOptions& options,
                  const std::vector<SweepCell>& cells) {
  const auto results = run_sweep(options, cells);
  if (options.format == SweepFormat::kCsv) {
    out << csv_header_row() << ",seed\n";
  }
  for (const auto& result : results) {
    out << result.serialized;
  }
}

}  // namespace jitgc::sim
