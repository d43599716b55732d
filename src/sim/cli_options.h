// Command-line configuration for the jitgc_cli and jitgc_sweep tools.
//
// Parsing lives in the library (not the tools' mains) so it is unit-testable
// and reusable by scripts embedding the simulator. Each tool declares its
// flags as one table of Flag rows; the rows both tools take are declared once.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ftl/victim_policy.h"
#include "host/frontend/frontend.h"
#include "sim/experiment.h"
#include "sim/sweep.h"
#include "workload/synthetic.h"
#include "workload/workload.h"

namespace jitgc::sim {

struct CliOptions {
  // -- What to run --------------------------------------------------------------
  /// One of the six paper benchmarks, "mail-server"/"file-server" (file-level
  /// workloads), or empty when --trace is given.
  std::string workload = "ycsb";
  /// MSR-format trace file to replay instead of a synthetic workload.
  std::string trace_path;
  double trace_buffered_fraction = 0.0;

  // -- Multi-tenant front-end (src/host/frontend) -------------------------------
  /// 0 = single-stream mode (the default); N >= 1 runs the NVMe-style
  /// front-end: N per-tenant queues behind a deficit-weighted-round-robin
  /// scheduler, per-tenant QoS metrics, per-tenant JIT-GC demand signals.
  std::uint32_t tenants = 0;
  /// Per-tenant lists (one shared value broadcast to every tenant, or one
  /// entry per tenant — anything else is a parse error).
  std::vector<std::string> tenant_mix;       ///< benchmark name per tenant
  std::vector<double> tenant_weight;         ///< DWRR weight (> 0)
  std::vector<double> tenant_rate;           ///< rate cap, bytes/s (0 = none)
  std::vector<double> tenant_qos_p99_ms;     ///< p99 target, ms (0 = none)
  /// Arrival model shared by every tenant: "open" (default) or "closed".
  std::string tenant_arrival = "open";
  /// Global admission window (outstanding ops across all tenants).
  std::uint32_t tenant_queue_depth = 32;
  /// Trace mode: MSR volume (DiskNumber) replayed by each tenant, one entry
  /// per tenant. Required when --tenants is combined with --trace.
  std::vector<std::uint32_t> trace_volume_map;

  PolicyKind policy = PolicyKind::kJit;
  /// C_resv multiple for --policy=fixed.
  double fixed_reserve_multiple = 1.0;

  // -- How long / how reproducible ------------------------------------------------
  double seconds = 300.0;
  std::uint64_t seed = 1;
  /// Arrival model for the single-SSD simulator: false = closed loop (the
  /// default, one outstanding op), true = open loop (think times are
  /// inter-arrival gaps; arrivals queue). Array mode is always open-loop.
  bool open_loop_arrivals = false;

  // -- Device shape ----------------------------------------------------------------
  std::uint32_t blocks_per_plane = 256;
  std::uint32_t pages_per_block = 256;
  double op_ratio = 0.07;
  /// 0 = endurance not enforced.
  std::uint64_t endurance_pe_cycles = 0;

  // -- Fault injection / bad-block management (docs/model.md) ---------------------
  /// Per-operation NAND failure probabilities; all 0 = fault model off.
  double fault_program_fail_prob = 0.0;
  double fault_erase_fail_prob = 0.0;
  /// Extra failure probability at the endurance limit (ramps from 90 %).
  double fault_wear_fail_prob = 0.0;
  /// Factory spare blocks replacing grown-bad retirements.
  std::uint32_t spare_blocks = 0;

  // -- FTL / policy knobs -----------------------------------------------------------
  ftl::VictimPolicyKind victim_policy = ftl::VictimPolicyKind::kGreedy;
  bool hot_cold_separation = false;
  bool use_sip_list = true;
  bool use_measured_idle = false;
  double direct_quantile = 0.8;
  /// 1 = single scaled queue (default); 0 = one queue per plane.
  std::uint32_t service_queues = 1;
  /// QoS cap on opportunistic BGC, bytes/s (0 = unlimited).
  double bgc_rate_limit_bps = 0.0;

  // -- Multi-SSD array mode (src/array) ----------------------------------------
  /// 0 = single-SSD mode (the default); N >= 1 stripes the volume over N
  /// devices and runs the array simulator instead.
  std::uint32_t array_devices = 0;
  /// Stripe chunk size in pages.
  std::uint32_t stripe_chunk_pages = 8;
  /// "naive" | "staggered" | "maxk" (validated at parse time).
  std::string array_gc_mode = "staggered";
  /// Concurrency cap k for the coordinated GC modes.
  std::uint32_t array_max_concurrent_gc = 1;
  /// "none" | "mirror" | "parity" (validated at parse time): the redundancy
  /// scheme layered on the stripe (array/redundancy.h).
  std::string array_redundancy = "none";
  /// Hot spares standing by for rebuilds (redundant schemes only).
  std::uint32_t array_spares = 0;
  /// Minimum rebuild duty per tick granted even when GC has priority, as a
  /// fraction of the flush period (clamped to [0, 1]).
  double rebuild_rate_floor = 0.1;
  /// Scripted fault injection: retire the device in this slot (-1 = off) at
  /// the first coordinator tick at or after --array-kill-at seconds.
  std::int32_t array_kill_slot = -1;
  double array_kill_at_s = 0.0;
  /// Scripted transient outage (redundant arrays): take this slot's device
  /// offline (contents preserved) at --array-outage-at and bring it back at
  /// --array-outage-restore-at (-1 = off). Exercises rebuild
  /// suspend/resume: a parked rebuild keeps its row cursor.
  std::int32_t array_outage_slot = -1;
  double array_outage_at_s = 0.0;
  double array_outage_restore_at_s = 0.0;
  /// Worker threads for the array's per-tick GC fan-out (0 = hardware).
  /// Results are byte-identical at any value — that is the determinism
  /// contract bench_smoke.sh asserts.
  std::uint64_t jobs = 0;

  // -- Sudden power-off injection (ftl/recovery.h) -------------------------------
  /// Cut power this many seconds into the measured run (< 0 = off): the
  /// device loses all volatile state and recovers by OOB scan, and the
  /// integrity oracle verifies every acknowledged write afterwards.
  double spo_at_s = -1.0;
  /// Repeat the power cut every this many seconds (<= 0 = single cut).
  /// Requires --spo-at.
  double spo_every_s = -1.0;
  /// Inject one SPO during preconditioning, after this many precondition
  /// writes (0 = off). Joins the snapshot precondition fingerprint when set.
  std::uint64_t spo_precondition_writes = 0;
  /// Mapping-checkpoint interval in erases (0 = full-scan recovery only).
  std::uint64_t checkpoint_every_erases = 0;
  /// Array mode: this slot's device suffers the SPO (-1 = off) at the first
  /// coordinator tick at or after --array-spo-at seconds. The slot recovers
  /// by OOB scan and rejoins through the degraded -> rebuilding -> restored
  /// lifecycle (redundant schemes resync missed writes via rebuild stains).
  std::int32_t array_spo_slot = -1;
  double array_spo_at_s = 0.0;

  // -- Warm-state snapshots (sim/snapshot.h) -----------------------------------
  /// Directory for the on-disk snapshot cache (empty = no cache). The first
  /// run of a precondition-equivalent cell pays the cold replay and writes a
  /// snapshot; later runs — including later process invocations — restore it
  /// and produce byte-identical measured output. Run records then carry
  /// `snapshot` / `precondition_wall_s`.
  std::string snapshot_cache_dir;
  /// LRU cap on the on-disk cache, in snapshot files (0 = unlimited).
  std::uint64_t snapshot_cache_limit = 0;

  // -- Output ------------------------------------------------------------------------
  bool csv = false;
  bool csv_header = false;
  bool json = false;
  /// Write structured JSONL metrics (per-interval + run records) here.
  std::string metrics_path;
  bool show_help = false;
};

/// How a flag's value is read. The parse loop, its errors and the --help
/// text are generated from a tool's table of Flag rows.
enum class FlagKind {
  kSwitch,   ///< `--name` alone; `--name=<value>` is refused
  kText,     ///< any non-empty text: a path or a name
  kChoice,   ///< one word of a fixed set
  kReal,     ///< finite real number in a range
  kCount,    ///< unsigned integer up to 2^64 - 1
  kCount32,  ///< unsigned integer that fits the 32-bit (or slot) field it sets
};

/// Which of jitgc_cli's two runners reads a flag: run_from_cli (one SSD) or
/// run_array_from_cli (--array-devices). A flag given in the mode that does
/// not read it is a parse error, never silently ignored.
enum class FlagMode {
  kAny,        ///< both runners; every jitgc_sweep row
  kSingleSsd,  ///< refused with --array-devices
  kArray,      ///< needs --array-devices
};

/// One row of a tool's flag table, bound to the options it fills.
struct Flag {
  std::string name;     ///< "--seconds"
  std::string metavar;  ///< "<s>"; empty for a switch
  FlagKind kind = FlagKind::kSwitch;
  /// A bad value is reported as "<name> needs <needs>, got '<value>'".
  std::string needs;
  std::string help;     ///< --help text; each '\n' starts an indented line
  /// Parses and range-checks the value, storing it only when it is valid.
  std::function<bool(const std::string& value)> set;
  FlagMode mode = FlagMode::kAny;
};

/// jitgc_cli's flag table (the rows shared with jitgc_sweep plus its own),
/// bound to `out`.
std::vector<Flag> cli_flags(CliOptions& out);

/// Parses argv-style arguments (excluding argv[0]). On failure returns
/// nullopt and writes a one-line message naming the flag to `error`.
std::optional<CliOptions> parse_cli(const std::vector<std::string>& args, std::string& error);

/// --help text, generated from cli_flags().
std::string cli_usage();

/// What jitgc_sweep's command line describes.
struct SweepCliOptions {
  /// The rows shared with jitgc_cli fill the same fields. Here `workload`
  /// filters the matrix to one benchmark's cells (parse_sweep_cli starts it
  /// empty: every cell), and a tenant without a --tenant-mix entry runs its
  /// cell's benchmark.
  CliOptions shared;
  std::string matrix = "fig7";
  /// The sweep's own rows; parse_sweep_cli also fills `base` (device, fault
  /// and tenant knobs from `shared`) and `snapshot_cache_dir`.
  SweepOptions options;
  /// The matrix's cells, after the workload filter.
  std::vector<SweepCell> cells;
};

/// jitgc_sweep's flag table (the rows shared with jitgc_cli plus its own),
/// bound to `out`.
std::vector<Flag> sweep_flags(SweepCliOptions& out);

/// Parses jitgc_sweep's arguments (excluding argv[0]) like parse_cli.
std::optional<SweepCliOptions> parse_sweep_cli(const std::vector<std::string>& args,
                                               std::string& error);

/// --help text, generated from sweep_flags().
std::string sweep_usage();

/// Applies the device knobs the options describe (geometry, OP, victim
/// policy, hot/cold separation, service queues, endurance, fault model,
/// spares, checkpoint interval) to `ssd`. Shared by the single-SSD, array
/// and sweep runners.
void apply_device_options(const CliOptions& options, SsdConfig& ssd);

/// User pages of the volume the front-end partitions across tenants: one
/// SSD's FTL user pages, or the array's logical capacity under its
/// redundancy layout. Arithmetic over the options alone; no device is built.
Lba volume_user_pages(const CliOptions& options);

/// Builds the workload generator the options describe (trace replay, a
/// file-level workload, or a paper benchmark), sized against `user_pages`
/// (one device's capacity, or the whole array's). Throws std::runtime_error
/// for an unknown workload or missing trace file. Shared by the single-SSD
/// and array runners.
std::unique_ptr<wl::WorkloadGenerator> make_workload_from_cli(const CliOptions& options,
                                                              Lba user_pages);

/// Looks up a benchmark spec by name: the six paper benchmarks plus the
/// YCSB core mixes (ycsb-a .. ycsb-f). Matching ignores case and
/// punctuation ("bonnie" finds "Bonnie++"). Shared with the sweep engine so
/// tenant mix names resolve identically everywhere.
std::optional<wl::WorkloadSpec> find_benchmark_spec(const std::string& name);

/// The front-end configuration the options describe (tenant specs with the
/// broadcast rule applied). enabled() is false when --tenants was absent.
frontend::FrontendConfig frontend_config_from_cli(const CliOptions& options);

/// Builds the multi-tenant front-end: per-tenant generators (synthetic mixes
/// or per-volume trace substreams) on independently derived seeds, sized
/// against each tenant's LBA partition. Requires options.tenants >= 1.
/// Throws std::runtime_error for an unknown mix or missing trace file.
std::unique_ptr<frontend::HostFrontend> make_frontend_from_cli(const CliOptions& options,
                                                               Lba user_pages, Bytes page_size);

/// Builds the SimConfig / policy / workload described by the options and
/// runs the cell (single-SSD mode; the array runner lives in
/// array/array_cli.h to keep the dependency one-way). Throws
/// std::runtime_error for unusable combinations (e.g. a missing trace file).
SimReport run_from_cli(const CliOptions& options);

/// CSV header matching format_csv_row().
std::string csv_header_row();

/// The report as one CSV row.
std::string format_csv_row(const SimReport& report);

/// The report as a JSON object (same fields as the CSV row).
std::string format_json(const SimReport& report);

}  // namespace jitgc::sim
