// Whole-device NAND model: blocks + timing + endurance accounting.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/binary_io.h"
#include "nand/block.h"
#include "nand/fault_model.h"
#include "nand/geometry.h"
#include "nand/timing.h"

namespace jitgc::nand {

/// Cumulative operation counters (the raw material for WAF and lifetime).
struct NandStats {
  std::uint64_t page_reads = 0;
  std::uint64_t page_programs = 0;
  std::uint64_t page_migrations = 0;  // subset of programs issued by GC copyback
  std::uint64_t block_erases = 0;
  std::uint64_t program_failures = 0;  // subset of programs that burned the page
  std::uint64_t erase_failures = 0;    // subset of erases that left the block dirty
  TimeUs busy_time_us = 0;  // sum of raw op latencies (pre-parallelism)
};

/// Outcome of a single NAND operation. Failures are injected by the
/// FaultModel; with faults disabled every operation returns kOk.
enum class NandStatus : std::uint8_t { kOk, kProgramFail, kEraseFail };

/// Result of a program operation. On kProgramFail the page was still
/// consumed (it wore the cells and is now invalid); `ppa` identifies the
/// burned page so callers can account for it.
struct ProgramResult {
  NandStatus status = NandStatus::kOk;
  Ppa ppa{};
  bool ok() const { return status == NandStatus::kOk; }
};

/// A NAND flash device: an array of erase blocks with op-level timing.
///
/// The device enforces flash constraints (erase-before-write, sequential
/// in-block programming) and charges each operation its latency; it does not
/// know about LBAs' meaning — that is the FTL's job. Parallelism is exposed
/// via geometry for the service model; operations here are accounted
/// sequentially.
class NandDevice {
 public:
  /// Every block's page states and OOB records live in two device-wide flat
  /// arenas (cache-friendly device-wide scans, no per-block allocations).
  NandDevice(const Geometry& geometry, const TimingParams& timing,
             const FaultConfig& faults = {});

  const Geometry& geometry() const { return geom_; }
  const TimingParams& timing() const { return timing_; }
  const NandStats& stats() const { return stats_; }

  const Block& block(std::uint32_t id) const { return blocks_.at(id); }
  std::uint32_t num_blocks() const { return static_cast<std::uint32_t>(blocks_.size()); }

  /// Reads one page; returns the stored LBA and charges read latency.
  Lba read_page(const Ppa& ppa) {
    const Block& blk = blocks_.at(ppa.block);
    JITGC_ENSURE_MSG(blk.page_state(ppa.page) == PageState::kValid, "reading a non-valid page");
    ++stats_.page_reads;
    stats_.busy_time_us += timing_.read_cost();
    return blk.page_lba(ppa.page);
  }

  /// Programs the next free page of `block_id` with `lba` and charges program
  /// latency. `is_migration` tags GC copyback traffic. `seq` and `stamp` are
  /// written into the page's OOB (program-sequence and content stamps — see
  /// Block). The fault model may fail the operation: the page is then burned
  /// (invalid, no data) and the result carries kProgramFail — callers must
  /// check. `lba`, `seq` and `stamp` must fit the OOB record's 32- and
  /// 48-bit fields (see PageOob).
  ///
  /// Defined here so callers inline it: an out-of-line call returns the
  /// result through a stack slot written in pieces and reloaded whole,
  /// which stalls on store forwarding behind the OOB record's stores.
  [[nodiscard]] ProgramResult program_page(std::uint32_t block_id, Lba lba,
                                           bool is_migration = false, std::uint64_t seq = 0,
                                           std::uint64_t stamp = 0) {
    Block& blk = blocks_.at(block_id);
    // The pulse runs and charges latency/wear whether or not it sticks.
    ++stats_.page_programs;
    if (is_migration) {
      ++stats_.page_migrations;
      stats_.busy_time_us += timing_.migrate_cost();
    } else {
      stats_.busy_time_us += timing_.program_cost();
    }
    if (faults_ && faults_->program_fails(blk.erase_count())) {
      const std::uint32_t page = blk.program_fail();
      ++stats_.program_failures;
      return ProgramResult{NandStatus::kProgramFail, Ppa{block_id, page}};
    }
    const std::uint32_t page = blk.program(lba, seq, stamp);
    return ProgramResult{NandStatus::kOk, Ppa{block_id, page}};
  }

  /// Host-programs the next `count` pages of `block_id` in one run (see
  /// Block::program_run): the stats and latency of `count` program_page()
  /// calls with seq == stamp. Only a device without fault injection can
  /// take it, since every page there would draw its own fault decision.
  /// Returns the run's first page index.
  std::uint32_t program_run(std::uint32_t block_id, Lba first_lba, std::uint32_t count,
                            std::uint64_t first_seq) {
    JITGC_ENSURE_MSG(!faults_, "a program run cannot draw per-page fault decisions");
    Block& blk = blocks_.at(block_id);
    const std::uint32_t first = blk.program_run(first_lba, count, first_seq);
    stats_.page_programs += count;
    stats_.busy_time_us += static_cast<TimeUs>(count) * timing_.program_cost();
    return first;
  }

  /// Records a program pulse torn by sudden power-off at `block_id`'s open
  /// write frontier (the block must not be full). No latency: power is
  /// already gone. Returns the torn page.
  Ppa mark_torn(std::uint32_t block_id);

  /// Invalidates a valid page (no latency: it is a metadata update). The
  /// page's OOB stays readable until the erase.
  void invalidate_page(const Ppa& ppa) { blocks_.at(ppa.block).invalidate(ppa.page); }

  /// Erases a block (all pages must be invalid) and charges erase latency.
  /// On injected failure the block keeps its stale pages (wear still
  /// accrues) and kEraseFail is returned — callers must check.
  [[nodiscard]] NandStatus erase_block(std::uint32_t block_id);

  /// Max and mean erase counts across blocks (wear-leveling quality).
  std::uint64_t max_erase_count() const;
  double mean_erase_count() const;

  // -- Crash recovery (ftl/recovery.h) ----------------------------------------
  // Validity flags are FTL metadata the recovery path rebuilds from OOB
  // arbitration; these mutators install the rebuilt classification without
  // charging latency (they model metadata decisions, not media operations).

  /// Installs a recovered page classification wholesale: new states and
  /// write pointer (e.g. a sealed frontier), OOB records as `oob` carries
  /// them. Wear is untouched.
  void recover_block(std::uint32_t block_id, std::uint32_t write_ptr, const PageState* states,
                     const PageOob* oob);

  /// Flips one invalid page back to valid (a trimmed LBA resurrected by
  /// recovery arbitration: its OOB is intact and it won).
  void revalidate_page(const Ppa& ppa);

  // -- Warm-state snapshots (sim/snapshot.h) ----------------------------------
  // Per-block page states/OOB records/write pointers/erase counts, the stats
  // counters, and the fault RNG stream position. Each OOB LBA is written as
  // a u64 (kInvalidLba when unreadable), as snapshot format v3 lays out.

  /// Serializes the device state into `w`.
  void save_state(BinaryWriter& w) const;

  /// Restores a state saved by save_state(). The device must have been
  /// constructed with the same geometry/timing/fault config; throws
  /// BinaryFormatError on structural mismatch, a page state that contradicts
  /// its block's write pointer, an OOB LBA the 32-bit field cannot hold, or
  /// a sequence or content stamp the 48-bit fields cannot hold.
  void restore_state(BinaryReader& r);

 private:
  Geometry geom_;
  TimingParams timing_;
  // Page arenas: one state byte and one OOB record per page. Declared
  // before blocks_ so the arenas outlive the Blocks pointing into them.
  std::vector<PageState> state_arena_;
  std::vector<PageOob> oob_arena_;
  std::vector<Block> blocks_;
  NandStats stats_;
  // Engaged only when fault injection is configured; absent = the historical
  // always-succeeds device, bit-for-bit.
  std::optional<FaultModel> faults_;
};

}  // namespace jitgc::nand
