// Crash consistency: sudden-power-off (SPO) recovery for the page-mapped FTL.
//
// A sudden power-off destroys everything the FTL keeps in RAM — the L2P map,
// the free pool, the active write streams, the incremental-GC cursor, SIP
// counts, hot/cold recency. What survives is the media:
// every programmed page's OOB carries the LBA it belongs to, a monotone
// program-sequence stamp (fresh on every program, including GC copies) and a
// content stamp (the host-write identity, copied unchanged by migrations).
// RecoveryEngine rebuilds the FTL truth from that:
//
//  * scan the OOB of every programmed page on good and grown-bad blocks
//    (retired blocks never hold the newest copy of an LBA: retirement
//    migrates valid data out first);
//  * arbitrate duplicate LPNs by program-sequence recency — the page with
//    the highest stamp wins, every other copy is stale;
//  * seal partially-written blocks (write pointer forced to the end,
//    remaining free pages written off as invalid) so they rejoin the GC
//    economy — a half-written block is never trusted as a write frontier
//    after power loss;
//  * rebuild the free pool from fully-erased good blocks (spares stay in
//    the durable factory spare table), recompute free/valid/offline page
//    accounting, and restart the write-sequence clock past the highest
//    stamp seen.
//
// An optional periodic mapping checkpoint (a journal write every K erases,
// FtlConfig::checkpoint_interval_erases) bounds the scan: blocks whose
// erase count and write pointer match the checkpoint are clean — their
// checkpointed mappings are trusted verbatim and their pages are not read.
// A corrupt or mismatched checkpoint falls back to the full scan; recovery
// itself never fails.
//
// Trim is not journaled (there is no tombstone page), so an LBA trimmed
// after the last surviving copy was programmed can resurrect across a crash
// — counted in RecoveryReport::resurrected_mappings, matching real
// page-mapped FTLs without a trim journal.
#pragma once

#include <cstdint>
#include <vector>

#include "common/binary_io.h"
#include "common/types.h"
#include "nand/geometry.h"

namespace jitgc::ftl {

class Ftl;

/// Periodic durable mapping checkpoint (notionally a journal region on
/// flash; the model holds it beside the media). `checksum` guards the
/// payload the way a real journal page's CRC would: recovery distrusts a
/// checkpoint whose checksum does not match and falls back to the full scan.
struct MappingCheckpoint {
  bool present = false;
  /// Write-sequence clock when the checkpoint was taken. Pages with a
  /// higher program-sequence stamp postdate it.
  std::uint64_t seq = 0;
  /// L2P map at checkpoint time, packed (nand::PpaCodec; kNone when
  /// unmapped).
  std::vector<std::uint32_t> map;
  /// Per-block media position at checkpoint time. A block whose current
  /// erase count and write pointer both still match is clean: nothing on it
  /// changed since the checkpoint.
  std::vector<std::uint32_t> write_ptrs;
  std::vector<std::uint64_t> erase_counts;
  std::uint64_t checksum = 0;

  /// Checksum over the logical content (seq + map + media positions). Map
  /// entries are hashed unpacked, as (block, page) pairs.
  std::uint64_t compute_checksum(const nand::PpaCodec& codec) const;

  void save_state(BinaryWriter& w, const nand::PpaCodec& codec) const;
  /// Throws BinaryFormatError on a map entry outside the device.
  void restore_state(BinaryReader& r, const nand::PpaCodec& codec);
};

/// Snapshot wire form of one packed L2P entry: u32 block, u32 page, with
/// (kNoBlock, 0) for unmapped — the layout snapshot format v3 fixed when
/// the map held unpacked Ppa values.
void save_packed_ppa(BinaryWriter& w, const nand::PpaCodec& codec, std::uint32_t packed);
/// Reads one entry written by save_packed_ppa(). Throws BinaryFormatError,
/// naming `what`, when the block or the page is outside the device.
std::uint32_t restore_packed_ppa(BinaryReader& r, const nand::PpaCodec& codec, const char* what);

/// What one SPO recovery did, for metrics and the acceptance tests.
struct RecoveryReport {
  /// The scan was bounded by a valid mapping checkpoint.
  bool used_checkpoint = false;
  /// A checkpoint existed but failed validation (corrupt checksum or
  /// mismatched shape) and the full scan ran instead.
  bool checkpoint_fallback = false;
  std::uint64_t scanned_pages = 0;    ///< OOB reads the scan performed
  std::uint64_t scanned_blocks = 0;   ///< blocks whose pages were scanned
  std::uint64_t total_blocks = 0;     ///< device size, for scan-ratio context
  std::uint64_t torn_pages = 0;       ///< frontier pages torn by this SPO
  std::uint64_t sealed_blocks = 0;    ///< partially-written blocks sealed
  std::uint64_t recovered_mappings = 0;  ///< L2P entries rebuilt
  std::uint64_t stale_pages_dropped = 0; ///< readable OOB that lost arbitration
  std::uint64_t max_seq = 0;          ///< highest program-sequence stamp seen
  /// Raw NAND time of the OOB scan (one page-read per scanned page; the
  /// caller scales it by channel parallelism like any other media work).
  TimeUs media_scan_us = 0;
  // Built-in oracle: the pre-crash map (acknowledged state at the instant
  // power was cut) compared entry-by-entry against the rebuilt map.
  std::uint64_t verified_mappings = 0;    ///< identical before and after
  std::uint64_t lost_mappings = 0;        ///< MUST stay 0: acked data lost
  std::uint64_t resurrected_mappings = 0; ///< trimmed LBAs that came back
};

/// The recovery path proper. Stateless: every method is a pure function of
/// the FTL it is handed (a friend, so it can rebuild private truth).
class RecoveryEngine {
 public:
  /// Models the power cut and brings the FTL back up: tears the open write
  /// frontiers, discards all volatile state, rebuilds the map / free pool /
  /// per-block accounting from the media (checkpoint-bounded when a valid
  /// checkpoint exists), and verifies the rebuilt map against the pre-crash
  /// map. Aborts (JITGC_ENSURE) if any acknowledged mapping was lost —
  /// silent corruption is never an outcome.
  static RecoveryReport sudden_power_off(Ftl& ftl);

  /// Takes a mapping checkpoint of the FTL's current durable position.
  /// Called by the FTL every checkpoint_interval_erases erases.
  static void write_checkpoint(Ftl& ftl);
};

}  // namespace jitgc::ftl
