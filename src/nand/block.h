// Per-block state: page states, write pointer, endurance counters.
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/ensure.h"
#include "common/types.h"

namespace jitgc::nand {

enum class PageState : std::uint8_t {
  kFree,
  kValid,
  kInvalid,
  /// A program pulse interrupted by sudden power-off: the page is consumed
  /// (cells half-written, ECC fails) but holds no readable data or OOB.
  kTorn,
};

/// One page's out-of-band (OOB) area: a monotone program-sequence stamp
/// (fresh on every program, including GC copies — crash recovery arbitrates
/// duplicate LBAs by recency with it), a content stamp (the host-write
/// identity, copied unchanged by migrations — what an integrity oracle
/// compares), and the LBA the data belongs to, stored in 32 bits with
/// kNoLba for "unreadable". The two stamps keep 48 bits each, split into a
/// low word and a high half-word, so the record packs into 16 bytes with
/// the LBA as a plain 32-bit load.
struct PageOob {
  static constexpr std::uint32_t kNoLba = UINT32_MAX;
  /// Exclusive bound on a stored sequence or content stamp.
  static constexpr std::uint64_t kStampLimit = std::uint64_t{1} << 48;

  std::uint32_t lba = kNoLba;
  std::uint32_t seq_lo = 0;
  std::uint32_t stamp_lo = 0;
  std::uint16_t seq_hi = 0;
  std::uint16_t stamp_hi = 0;

  /// The record for a programmed page. The caller has checked the widths:
  /// lba < kNoLba, seq and stamp < kStampLimit.
  static PageOob programmed(std::uint32_t lba, std::uint64_t seq, std::uint64_t stamp) {
    return PageOob{lba, static_cast<std::uint32_t>(seq), static_cast<std::uint32_t>(stamp),
                   static_cast<std::uint16_t>(seq >> 32), static_cast<std::uint16_t>(stamp >> 32)};
  }

  std::uint64_t seq() const { return std::uint64_t{seq_hi} << 32 | seq_lo; }
  std::uint64_t stamp() const { return std::uint64_t{stamp_hi} << 32 | stamp_lo; }
};
static_assert(sizeof(PageOob) == 16 && alignof(PageOob) == 4);

/// One erase block. Enforces NAND constraints: pages program strictly
/// in order within a block; only erase returns pages to free.
///
/// Each page carries a PageOob record. Invalidation is FTL metadata, not a
/// media operation, so the OOB of an invalid page stays readable until the
/// erase; only burned and torn pages have unreadable OOB (page_lba() ==
/// kInvalidLba). The values must fit the record: lba < PageOob::kNoLba and
/// seq, stamp < PageOob::kStampLimit.
///
/// The state bytes and OOB records live inside two flat arenas owned by the
/// NandDevice and the block only holds pointers, so a device-wide scan walks
/// contiguous allocations instead of per-block scattered ones, and a victim
/// scan streams one state byte per page without dragging the records along.
class Block {
 public:
  /// The pointers reference `pages_per_block` entries owned by the caller,
  /// already initialized to kFree / PageOob{}, and outliving the block.
  Block(std::uint32_t pages_per_block, PageState* states, PageOob* oob)
      : states_(states), oob_(oob), pages_(pages_per_block) {}

  // Blocks live in containers and may move; copying would alias arena
  // storage, so it is disabled.
  Block(const Block&) = delete;
  Block& operator=(const Block&) = delete;
  Block(Block&&) noexcept = default;
  Block& operator=(Block&&) noexcept = default;

  std::uint32_t pages_per_block() const { return pages_; }

  /// Next page to program; == pages_per_block() when the block is full.
  std::uint32_t write_pointer() const { return write_ptr_; }
  bool is_full() const { return write_ptr_ == pages_; }
  bool is_erased() const { return write_ptr_ == 0; }

  std::uint32_t valid_count() const { return valid_count_; }
  std::uint32_t invalid_count() const { return write_ptr_ - valid_count_; }
  std::uint32_t free_count() const { return pages_ - write_ptr_; }
  std::uint64_t erase_count() const { return erase_count_; }

  PageState page_state(std::uint32_t page) const {
    JITGC_ENSURE(page < pages_);
    return states_[page];
  }

  /// LBA stored in a page's OOB area. Retained after invalidation (the OOB
  /// persists on media until the erase); kInvalidLba means unreadable —
  /// the page is free, burned, or torn.
  Lba page_lba(std::uint32_t page) const {
    JITGC_ENSURE(page < pages_);
    const std::uint32_t lba = oob_[page].lba;
    return lba == PageOob::kNoLba ? kInvalidLba : lba;
  }

  /// Program-sequence OOB stamp (0 on pages with unreadable OOB).
  std::uint64_t page_seq(std::uint32_t page) const {
    JITGC_ENSURE(page < pages_);
    return oob_[page].seq();
  }

  /// Content OOB stamp: the host-write identity the page's data carries
  /// (0 on pages with unreadable OOB).
  std::uint64_t page_stamp(std::uint32_t page) const {
    JITGC_ENSURE(page < pages_);
    return oob_[page].stamp();
  }

  /// The whole OOB record (for recovery's re-classification).
  PageOob page_oob(std::uint32_t page) const {
    JITGC_ENSURE(page < pages_);
    return oob_[page];
  }

  /// Programs the next page in sequence with user data for `lba`, stamping
  /// its OOB with the program sequence and content stamp. Returns the
  /// programmed page index.
  std::uint32_t program(Lba lba, std::uint64_t seq = 0, std::uint64_t stamp = 0) {
    JITGC_ENSURE_MSG(!is_full(), "programming a full block");
    return store(lba, seq, stamp);
  }

  /// Programs the next `count` pages in one run: page i of the run holds
  /// `first_lba + i` with program sequence and content stamp `first_seq + i`
  /// (a host write's stamps). State-identical to `count` program() calls,
  /// with the same per-page checks. Returns the run's first page index.
  std::uint32_t program_run(Lba first_lba, std::uint32_t count, std::uint64_t first_seq) {
    JITGC_ENSURE_MSG(count <= free_count(), "programming past the end of the block");
    const std::uint32_t first = write_ptr_;
    for (std::uint32_t i = 0; i < count; ++i) {
      store(first_lba + i, first_seq + i, first_seq + i);
    }
    return first;
  }

  /// Records a failed program: the page is consumed (the program pulse ran
  /// and wore the cells) but holds no data, so it goes straight to kInvalid
  /// and is reclaimed by the next erase. Returns the burned page index.
  std::uint32_t program_fail() {
    JITGC_ENSURE_MSG(!is_full(), "programming a full block");
    const std::uint32_t page = write_ptr_++;
    JITGC_ENSURE(states_[page] == PageState::kFree);
    states_[page] = PageState::kInvalid;
    return page;
  }

  /// Records a program pulse torn by sudden power-off at the block's open
  /// write frontier: the page is consumed but unreadable (failed ECC), like
  /// a burned page but distinguishable for recovery accounting. Returns the
  /// torn page index.
  std::uint32_t mark_torn() {
    JITGC_ENSURE_MSG(!is_full(), "tearing a page on a full block");
    const std::uint32_t page = write_ptr_++;
    JITGC_ENSURE(states_[page] == PageState::kFree);
    states_[page] = PageState::kTorn;
    return page;
  }

  /// Marks a previously-valid page invalid (its LBA was overwritten/trimmed).
  /// The OOB (LBA + stamps) is deliberately retained: invalidation is an FTL
  /// metadata update, and the stale OOB persists on media until the erase —
  /// crash recovery depends on it for duplicate-LPN arbitration.
  void invalidate(std::uint32_t page) {
    JITGC_ENSURE(page < pages_);
    JITGC_ENSURE_MSG(states_[page] == PageState::kValid, "invalidating a non-valid page");
    states_[page] = PageState::kInvalid;
    JITGC_ENSURE(valid_count_ > 0);
    --valid_count_;
  }

  /// Flips an invalid page back to valid: crash recovery resurrecting a
  /// trimmed LBA whose OOB won arbitration. The page data was never touched
  /// (invalidation is metadata), so no media operation is modeled.
  void revalidate(std::uint32_t page) {
    JITGC_ENSURE(page < pages_);
    JITGC_ENSURE_MSG(states_[page] == PageState::kInvalid, "revalidating a non-invalid page");
    JITGC_ENSURE_MSG(oob_[page].lba != PageOob::kNoLba, "revalidating a page with unreadable OOB");
    states_[page] = PageState::kValid;
    ++valid_count_;
  }

  /// Records a failed erase: wear still accrues (the erase pulse ran) but the
  /// pages are left as they were — unusable until the block is retired.
  void erase_fail() {
    JITGC_ENSURE_MSG(valid_count_ == 0, "erasing a block that still holds valid data");
    ++erase_count_;
  }

  /// Installs a saved state wholesale (warm-state snapshots). The normal
  /// mutators enforce NAND ordering invariants one operation at a time; a
  /// restore arrives as a finished aggregate, so this validates the
  /// aggregate invariants instead: write_ptr within the block, every page
  /// below the write pointer consumed and every page at or above it free,
  /// valid_count consistent with the states.
  void restore(std::uint32_t write_ptr, std::uint64_t erase_count, const PageState* states,
               const PageOob* oob) {
    JITGC_ENSURE_MSG(write_ptr <= pages_, "restored write pointer beyond block");
    std::uint32_t valid = 0;
    for (std::uint32_t p = 0; p < pages_; ++p) {
      JITGC_ENSURE_MSG((states[p] == PageState::kFree) == (p >= write_ptr),
                       "restored page state contradicts the write pointer");
      if (states[p] == PageState::kValid) ++valid;
    }
    std::copy(states, states + pages_, states_);
    std::copy(oob, oob + pages_, oob_);
    write_ptr_ = write_ptr;
    valid_count_ = valid;
    erase_count_ = erase_count;
  }

  /// Erases the whole block, freeing every page and bumping the wear counter.
  /// Valid pages must have been migrated first.
  void erase() {
    JITGC_ENSURE_MSG(valid_count_ == 0, "erasing a block that still holds valid data");
    std::fill(states_, states_ + pages_, PageState::kFree);
    std::fill(oob_, oob_ + pages_, PageOob{});
    write_ptr_ = 0;
    ++erase_count_;
  }

 private:
  /// Programs the write pointer's page: checks that it is free and that the
  /// values fit the OOB record, writes its state and record, and advances
  /// the write pointer. Returns the page index.
  std::uint32_t store(Lba lba, std::uint64_t seq, std::uint64_t stamp) {
    JITGC_ENSURE_MSG(lba < PageOob::kNoLba, "LBA does not fit the 32-bit OOB record");
    JITGC_ENSURE_MSG(seq < PageOob::kStampLimit,
                     "program sequence does not fit the 48-bit OOB field");
    JITGC_ENSURE_MSG(stamp < PageOob::kStampLimit,
                     "content stamp does not fit the 48-bit OOB field");
    const std::uint32_t page = write_ptr_++;
    JITGC_ENSURE(states_[page] == PageState::kFree);
    states_[page] = PageState::kValid;
    oob_[page] = PageOob::programmed(static_cast<std::uint32_t>(lba), seq, stamp);
    ++valid_count_;
    return page;
  }

  PageState* states_ = nullptr;
  PageOob* oob_ = nullptr;
  std::uint32_t pages_ = 0;
  std::uint32_t write_ptr_ = 0;
  std::uint32_t valid_count_ = 0;
  std::uint64_t erase_count_ = 0;
};

}  // namespace jitgc::nand
