// Warm-state snapshots: cache and clone post-precondition device state.
//
// Every measured run must first age its device to steady state (the
// fill-and-scramble preconditioning), and after the event engine sped up the
// measured phase, sweeps spend most of their wall-clock replaying identical
// preconditioning write-for-write in every cell. This subsystem captures the
// complete post-precondition simulator state once — NAND page states and
// erase counts, FTL mapping tables and free list, bad-block/spare state,
// fault-RNG stream positions — and hands it to every later run that provably
// ages the same way:
//
//  * in-process clone: N cells sharing a preconditioned baseline deep-copy
//    the serialized state instead of replaying the fill (bench_util's shared
//    cache; multi-policy benches reuse one aged device per seed);
//  * on-disk cache (`--snapshot-cache=DIR`): sweeps persist snapshots across
//    invocations, keyed by a *precondition fingerprint* that hashes exactly
//    the config fields that influence precondition evolution.
//
// The contract is byte-identical output: a run restored from a snapshot
// emits exactly the JSONL/CSV a cold replay would (modulo the `snapshot` /
// `precondition_wall_s` run-record fields, which report the cache's own
// work). Derived query structures — the victim index, the host page cache —
// are rebuilt from restored truth, never serialized, keeping the format
// small and stable (the rebuild-not-serialize invariant; docs/model.md).
//
// Robustness: a stale, truncated, or version-mismatched cache file is
// rejected with a one-line warning and the run falls back to cold replay —
// never a crash, never silent corruption.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/types.h"
#include "sim/ssd.h"

namespace jitgc::sim {

struct SimConfig;

/// Bumped whenever the serialized state layout or the fingerprint schema
/// changes; cache files from other versions are rejected (cold fallback).
/// v2: per-page OOB grew program-sequence + content stamps and the torn
/// page state, and the FTL payload gained the mapping checkpoint.
/// v3: the FTL payload keeps one exact per-block SIP count (the shadow
/// count and the heal list are gone).
/// v4: the FTL payload loses the mapping-cache blob (the map always lives in
/// DRAM); the fingerprint drops the program-retry limit and the cache size.
/// v5: the Ssd payload loses the BGC cycle-time EWMA (nothing read it); the
/// fingerprint drops the scramble overwrite factor, now a constant.
inline constexpr std::uint32_t kSnapshotFormatVersion = 5;

/// Where a run's post-precondition state came from.
enum class SnapshotSource : std::uint8_t {
  kCold,       ///< preconditioning was replayed
  kWarmClone,  ///< cloned from a snapshot taken earlier in this process
  kWarmDisk,   ///< restored from the on-disk snapshot cache
};

/// "cold" | "warm_clone" | "warm_disk".
const char* snapshot_source_name(SnapshotSource source);

/// Appends the SsdConfig fields that influence precondition evolution to a
/// fingerprint under construction: geometry, timing, OP/spare/GC-watermark
/// shape, victim policy (it steers the on-demand GC that the fill
/// triggers), hot/cold + wear-leveling state machines, and the full
/// fault/endurance config including the resolved fault seed. Deliberately
/// excluded (they cannot touch precondition state): the SIP filter (the SIP
/// list is empty until the first measured tick), host-interface costs, and
/// the service-queue count.
void append_ssd_fingerprint_fields(std::string& out, const SsdConfig& ssd);

/// Fingerprint of a single-SSD run's preconditioning: everything that
/// determines the post-precondition state. Two runs with equal fingerprints
/// provably evolve identical device state during preconditioning; any field
/// that could diverge them lands them in distinct cache keys automatically.
std::string precondition_fingerprint(const SimConfig& config, Lba footprint_pages,
                                     Lba working_set_pages);

/// Process-wide snapshot store with an optional on-disk tier.
///
/// In-memory blobs are shared immutable strings (cloning is a refcount
/// bump); the disk tier persists each blob under
/// `warm_<fnv1a64(fingerprint)>.snap` with an embedded format version, the
/// full fingerprint text, and a payload checksum, all verified on load.
/// Thread-safe: sweep workers and bench cells share one instance.
class SnapshotCache {
 public:
  /// In-memory only (the in-process clone path).
  SnapshotCache() = default;

  /// Memory + disk tier rooted at `dir` (created on first store).
  explicit SnapshotCache(std::string dir) : dir_(std::move(dir)) {}

  /// Caps the disk tier at `max_files` snapshot files (0 = unlimited).
  /// When a store pushes the directory past the cap, the least-recently-used
  /// files (by mtime; disk hits refresh it) are evicted under the directory
  /// lock, with a warn-once line the first time eviction kicks in.
  void set_disk_limit(std::uint64_t max_files) { disk_limit_ = max_files; }

  using Blob = std::shared_ptr<const std::string>;

  /// Returns the cached post-precondition payload for `fingerprint`, or
  /// null on a miss. On a hit `source` (if non-null) reports kWarmClone
  /// (in-memory) or kWarmDisk (loaded from the disk tier — the blob is then
  /// promoted into memory for later clones). Invalid disk files are
  /// rejected with a one-line warning and counted, never fatal.
  Blob find(const std::string& fingerprint, SnapshotSource* source = nullptr);

  /// Publishes `payload` under `fingerprint` in memory and (when a
  /// directory is attached) on disk via an atomic tmp+rename. First writer
  /// wins; disk write failures warn and degrade to memory-only.
  void store(const std::string& fingerprint, std::string payload);

  struct Stats {
    std::uint64_t memory_hits = 0;
    std::uint64_t disk_hits = 0;
    std::uint64_t misses = 0;
    /// Disk files rejected as stale/truncated/mismatched (cold fallback).
    std::uint64_t rejected = 0;
    /// Disk files evicted by the LRU cap (set_disk_limit).
    std::uint64_t evicted = 0;
  };
  Stats stats() const;

  bool has_disk_tier() const { return !dir_.empty(); }
  const std::string& dir() const { return dir_; }

 private:
  std::string file_path(const std::string& fingerprint) const;
  /// Removes LRU `warm_*.snap` files until the directory is within
  /// disk_limit_. Caller must hold the directory lock.
  void evict_over_limit_locked();

  mutable std::mutex mu_;
  std::string dir_;
  std::uint64_t disk_limit_ = 0;
  bool evict_warned_ = false;
  std::unordered_map<std::string, Blob> memory_;
  Stats stats_;
};

}  // namespace jitgc::sim
