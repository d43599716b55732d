#include "ftl/recovery.h"

#include <algorithm>
#include <string>
#include <vector>

#include "ftl/ftl.h"

namespace jitgc::ftl {

void save_packed_ppa(BinaryWriter& w, const nand::PpaCodec& codec, std::uint32_t packed) {
  const nand::Ppa p = codec.unpack_or_none(packed);
  w.u32(p.block);
  w.u32(p.page);
}

std::uint32_t restore_packed_ppa(BinaryReader& r, const nand::PpaCodec& codec, const char* what) {
  nand::Ppa p;
  p.block = r.u32();
  p.page = r.u32();
  if (p.block == nand::PpaCodec::kNoBlock) {
    if (p.page != 0) throw BinaryFormatError(std::string(what) + " has an unmapped entry with a page");
    return nand::PpaCodec::kNone;
  }
  if (p.block >= codec.num_blocks()) {
    throw BinaryFormatError(std::string(what) + " references a block out of range");
  }
  if (p.page >= codec.pages_per_block()) {
    throw BinaryFormatError(std::string(what) + " references a page out of range");
  }
  return codec.pack(p);
}

// ---------------------------------------------------------------------------
// MappingCheckpoint

std::uint64_t MappingCheckpoint::compute_checksum(const nand::PpaCodec& codec) const {
  BinaryWriter w;
  w.u64(seq);
  for (const std::uint32_t e : map) save_packed_ppa(w, codec, e);
  for (const std::uint32_t wp : write_ptrs) w.u32(wp);
  for (const std::uint64_t ec : erase_counts) w.u64(ec);
  return fnv1a64(w.data());
}

void MappingCheckpoint::save_state(BinaryWriter& w, const nand::PpaCodec& codec) const {
  w.boolean(present);
  if (!present) return;
  w.u64(seq);
  w.u64(map.size());
  for (const std::uint32_t e : map) save_packed_ppa(w, codec, e);
  w.u64(write_ptrs.size());
  for (const std::uint32_t wp : write_ptrs) w.u32(wp);
  w.u64(erase_counts.size());
  for (const std::uint64_t ec : erase_counts) w.u64(ec);
  w.u64(checksum);
}

void MappingCheckpoint::restore_state(BinaryReader& r, const nand::PpaCodec& codec) {
  present = r.boolean();
  if (!present) {
    *this = MappingCheckpoint{};
    return;
  }
  seq = r.u64();
  map.resize(r.u64());
  for (std::uint32_t& e : map) e = restore_packed_ppa(r, codec, "snapshot checkpoint");
  write_ptrs.resize(r.u64());
  for (std::uint32_t& wp : write_ptrs) wp = r.u32();
  erase_counts.resize(r.u64());
  for (std::uint64_t& ec : erase_counts) ec = r.u64();
  checksum = r.u64();
}

// ---------------------------------------------------------------------------
// RecoveryEngine

void RecoveryEngine::write_checkpoint(Ftl& f) {
  MappingCheckpoint& ck = f.checkpoint_;
  const std::uint32_t nblocks = f.nand_.num_blocks();
  ck.present = true;
  ck.seq = f.write_seq_;
  ck.map = f.map_;
  ck.write_ptrs.resize(nblocks);
  ck.erase_counts.resize(nblocks);
  for (std::uint32_t b = 0; b < nblocks; ++b) {
    const nand::Block& blk = f.nand_.block(b);
    ck.write_ptrs[b] = blk.write_pointer();
    ck.erase_counts[b] = blk.erase_count();
  }
  ck.checksum = ck.compute_checksum(f.codec_);
}

RecoveryReport RecoveryEngine::sudden_power_off(Ftl& f) {
  RecoveryReport rep;
  const std::uint32_t nblocks = f.nand_.num_blocks();
  const std::uint32_t ppb = f.config_.geometry.pages_per_block;
  const nand::PpaCodec& codec = f.codec_;
  constexpr std::uint32_t kNone = nand::PpaCodec::kNone;
  rep.total_blocks = nblocks;

  // The map at the instant power is cut is exactly the set of acknowledged
  // writes: every acked host write mutated it synchronously. Keep a copy as
  // the built-in oracle the rebuilt map is verified against at the end.
  const std::vector<std::uint32_t> pre_map = f.map_;

  // -- Power cut: tear the open write frontiers -----------------------------
  // Each active stream may have a program pulse in flight; the pulse is
  // interrupted mid-way, consuming the page without leaving readable data.
  for (const std::uint32_t b : {f.user_active_, f.user_active_cold_, f.gc_active_}) {
    if (b == Ftl::kNoBlock) continue;
    if (f.block_health_[b] != BlockHealth::kGood) continue;
    if (f.nand_.block(b).is_full()) continue;
    f.nand_.mark_torn(b);
    ++rep.torn_pages;
  }

  // -- Discard all volatile state -------------------------------------------
  // Everything RAM-resident is gone: the L2P map, free pool, active streams,
  // incremental-GC cursor, SIP counts (the host re-sends its list) and
  // hot/cold recency. Cumulative stats, the bad-block/spare
  // tables, degradation history and the read-only latch live in the durable
  // system area and survive. The retirement queue is RAM too, but is fully
  // derivable: every grown-bad block is by definition awaiting retirement.
  f.map_.assign(f.user_pages_, kNone);
  f.free_pool_.clear();
  f.user_active_ = Ftl::kNoBlock;
  f.user_active_cold_ = Ftl::kNoBlock;
  f.gc_active_ = Ftl::kNoBlock;
  f.bgc_victim_ = Ftl::kNoBlock;
  f.bgc_victim_cursor_ = 0;
  f.free_pages_ = 0;
  f.valid_pages_ = 0;
  f.offline_pages_ = 0;
  f.sip_.clear();
  std::fill(f.block_sip_count_.begin(), f.block_sip_count_.end(), 0u);
  std::fill(f.lba_last_write_seq_.begin(), f.lba_last_write_seq_.end(), std::uint64_t{0});
  f.pending_retire_.clear();
  for (std::uint32_t b = 0; b < nblocks; ++b) {
    if (f.block_health_[b] == BlockHealth::kGrownBad) f.pending_retire_.push_back(b);
  }

  // -- Checkpoint validation -------------------------------------------------
  // A checkpoint is trusted only when its shape matches the device and its
  // checksum verifies; anything else falls back to the full scan. Recovery
  // itself never fails on a bad checkpoint.
  const MappingCheckpoint& ck = f.checkpoint_;
  bool use_ckpt = false;
  if (ck.present) {
    const bool shape_ok = ck.map.size() == f.user_pages_ && ck.write_ptrs.size() == nblocks &&
                          ck.erase_counts.size() == nblocks;
    if (shape_ok && ck.checksum == ck.compute_checksum(codec)) {
      use_ckpt = true;
    } else {
      rep.checkpoint_fallback = true;
    }
  }
  rep.used_checkpoint = use_ckpt;

  // A block is clean iff neither its erase count nor its write pointer moved
  // since the checkpoint: no program and no erase touched it, so the
  // checkpointed mappings into it are still the newest copies. (Frontier
  // tearing above bumped the active blocks' write pointers, so they are
  // always dirty — a half-written frontier is never trusted.) Invalidation
  // does not dirty a block — it is a metadata flip, not a media operation —
  // which is why trimmed checkpoint entries need the revalidation pass below.
  std::vector<std::uint8_t> clean(nblocks, 0);
  if (use_ckpt) {
    for (std::uint32_t b = 0; b < nblocks; ++b) {
      const nand::Block& blk = f.nand_.block(b);
      clean[b] = blk.erase_count() == ck.erase_counts[b] &&
                 blk.write_pointer() == ck.write_ptrs[b];
    }
    rep.max_seq = ck.seq;
  }

  // -- Seed winners from the checkpoint -------------------------------------
  // Checkpoint entries into clean blocks are trusted without reading the
  // pages (that is the entire point of the checkpoint). Entries into dirty
  // blocks are re-derived by the scan — whatever superseded them carries a
  // higher program-sequence stamp. Entries into retired blocks are dropped:
  // a real controller never reads retired blocks, and any still-live data
  // was migrated out (to a dirty block) before retirement.
  std::vector<std::uint32_t> winner(f.user_pages_, kNone);
  std::vector<std::uint64_t> win_seq(f.user_pages_, 0);
  if (use_ckpt) {
    for (Lba lba = 0; lba < f.user_pages_; ++lba) {
      if (ck.map[lba] == kNone) continue;
      const nand::Ppa e = codec.unpack(ck.map[lba]);
      if (!clean[e.block]) continue;
      if (f.block_health_[e.block] == BlockHealth::kRetired) continue;
      winner[lba] = ck.map[lba];
      // The stamp is notionally stored beside the mapping in the journal
      // page; the model reads it back off the (unchanged) media.
      win_seq[lba] = f.nand_.block(e.block).page_seq(e.page);
    }
  }

  // -- OOB scan --------------------------------------------------------------
  // Read the OOB of every programmed page on non-retired dirty blocks and
  // arbitrate duplicate LBAs by program-sequence recency. Grown-bad blocks
  // must be scanned too: they hold valid data until retirement migrates it.
  // An erased block still costs one OOB read to recognize as erased.
  for (std::uint32_t b = 0; b < nblocks; ++b) {
    if (f.block_health_[b] == BlockHealth::kRetired) continue;
    if (clean[b]) continue;
    const nand::Block& blk = f.nand_.block(b);
    ++rep.scanned_blocks;
    rep.scanned_pages += std::max<std::uint32_t>(blk.write_pointer(), 1);
    for (std::uint32_t p = 0; p < blk.write_pointer(); ++p) {
      const Lba lba = blk.page_lba(p);
      if (lba == kInvalidLba) continue;  // burned or torn: OOB unreadable
      const std::uint64_t seq = blk.page_seq(p);
      rep.max_seq = std::max(rep.max_seq, seq);
      if (winner[lba] == kNone) {
        winner[lba] = codec.pack(nand::Ppa{b, p});
        win_seq[lba] = seq;
      } else if (seq > win_seq[lba]) {
        ++rep.stale_pages_dropped;
        winner[lba] = codec.pack(nand::Ppa{b, p});
        win_seq[lba] = seq;
      } else {
        ++rep.stale_pages_dropped;
      }
    }
  }
  rep.media_scan_us = static_cast<TimeUs>(rep.scanned_pages) * f.config_.timing.page_read_us;

  // -- Rebuild page states on scanned blocks ---------------------------------
  // Validity is FTL metadata; the scan re-derives it: a page is valid iff it
  // won arbitration for its LBA. Good partially-written blocks are sealed —
  // the write pointer forced to the end, the untouched tail written off as
  // invalid — so they rejoin the GC economy; a half-written block is never
  // reused as a write frontier after power loss. Grown-bad partial blocks
  // stay as they are (their free pages are off the books anyway and the
  // block is already queued for retirement).
  std::vector<nand::PageState> states(ppb);
  std::vector<nand::PageOob> oob(ppb);
  for (std::uint32_t b = 0; b < nblocks; ++b) {
    if (f.block_health_[b] == BlockHealth::kRetired) continue;
    if (clean[b]) continue;
    const nand::Block& blk = f.nand_.block(b);
    const std::uint32_t wp = blk.write_pointer();
    for (std::uint32_t p = 0; p < wp; ++p) {
      const Lba lba = blk.page_lba(p);
      if (blk.page_state(p) == nand::PageState::kTorn) {
        states[p] = nand::PageState::kTorn;
      } else if (lba == kInvalidLba) {
        states[p] = nand::PageState::kInvalid;  // burned
      } else {
        states[p] = winner[lba] == codec.pack(nand::Ppa{b, p}) ? nand::PageState::kValid
                                                                : nand::PageState::kInvalid;
      }
      oob[p] = blk.page_oob(p);
    }
    std::uint32_t new_wp = wp;
    const bool seal = f.block_health_[b] == BlockHealth::kGood && wp > 0 && wp < ppb;
    for (std::uint32_t p = wp; p < ppb; ++p) {
      states[p] = seal ? nand::PageState::kInvalid : nand::PageState::kFree;
      oob[p] = nand::PageOob{};
    }
    if (seal) {
      new_wp = ppb;
      ++rep.sealed_blocks;
    }
    f.nand_.recover_block(b, new_wp, states.data(), oob.data());
  }

  // -- Fix resurrections on clean blocks -------------------------------------
  // Trim is not journaled: an LBA trimmed after the checkpoint whose copy
  // sits on a clean block resurrects (the checkpointed mapping stands and no
  // newer copy out-arbitrates it), but the page itself was invalidated
  // before the crash. Flip it back to valid so map and media agree. Pages
  // still valid need no fix, and a checkpointed page that lost arbitration
  // stays invalid — a superseding copy exists, so it was invalid pre-crash.
  if (use_ckpt) {
    for (Lba lba = 0; lba < f.user_pages_; ++lba) {
      if (winner[lba] == kNone) continue;
      const nand::Ppa w = codec.unpack(winner[lba]);
      if (!clean[w.block]) continue;
      if (f.nand_.block(w.block).page_state(w.page) == nand::PageState::kInvalid) {
        f.nand_.revalidate_page(w);
      }
    }
  }

  // -- Rebuild the map, free pool and page accounting ------------------------
  for (Lba lba = 0; lba < f.user_pages_; ++lba) {
    if (winner[lba] == kNone) continue;
    f.map_[lba] = winner[lba];
    ++rep.recovered_mappings;
  }
  std::vector<std::uint8_t> is_spare(nblocks, 0);
  for (const std::uint32_t b : f.spare_pool_) is_spare[b] = 1;
  for (std::uint32_t b = 0; b < nblocks; ++b) {
    const nand::Block& blk = f.nand_.block(b);
    switch (f.block_health_[b]) {
      case BlockHealth::kRetired:
        f.offline_pages_ += ppb;
        break;
      case BlockHealth::kGrownBad:
        // Valid data stays on the books until retirement migrates it out;
        // everything else on a dying block is off the books.
        f.valid_pages_ += blk.valid_count();
        f.offline_pages_ += ppb - blk.valid_count();
        break;
      case BlockHealth::kGood:
        if (is_spare[b]) {
          f.offline_pages_ += ppb;
        } else {
          f.valid_pages_ += blk.valid_count();
          f.free_pages_ += blk.free_count();
          if (blk.is_erased()) f.free_pool_.emplace(blk.erase_count(), b);
        }
        break;
    }
  }

  // -- Restart the logical clocks --------------------------------------------
  // Recency and fill order are volatile; the best durable approximation is
  // the newest program-sequence stamp each block carries. Deterministic, and
  // close enough for victim scoring (exactness was never promised — a real
  // controller loses the same information).
  for (std::uint32_t b = 0; b < nblocks; ++b) {
    const nand::Block& blk = f.nand_.block(b);
    std::uint64_t mseq = 0;
    for (std::uint32_t p = 0; p < blk.write_pointer(); ++p) {
      if (blk.page_lba(p) != kInvalidLba) mseq = std::max(mseq, blk.page_seq(p));
    }
    f.block_last_update_seq_[b] = mseq;
    f.block_fill_seq_[b] = blk.is_full() ? mseq : 0;
  }
  f.write_seq_ = rep.max_seq + 1;

  // -- Rebuild the victim index (rebuild-not-serialize, as restore_state) ----
  std::fill(f.index_dirty_.begin(), f.index_dirty_.end(), std::uint8_t{0});
  f.index_dirty_list_.clear();
  std::fill(f.wl_dirty_.begin(), f.wl_dirty_.end(), std::uint8_t{0});
  f.wl_dirty_list_.clear();
  for (std::uint32_t b = 0; b < nblocks; ++b) f.declare_block_index(b);

  // -- Verify: no acknowledged write may be lost -----------------------------
  // Every pre-crash mapping must survive recovery bit-for-bit: the mapped
  // page was the newest copy and was valid (readable OOB), so arbitration
  // must re-elect exactly it. Trimmed LBAs coming back is legal (no trim
  // journal); anything lost or moved is silent corruption and aborts.
  for (Lba lba = 0; lba < f.user_pages_; ++lba) {
    if (pre_map[lba] != kNone) {
      if (f.map_[lba] == pre_map[lba]) {
        ++rep.verified_mappings;
      } else {
        ++rep.lost_mappings;
      }
    } else if (f.map_[lba] != kNone) {
      ++rep.resurrected_mappings;
    }
  }
  JITGC_ENSURE_MSG(rep.lost_mappings == 0, "SPO recovery lost acknowledged mappings");

  // -- Re-checkpoint the recovered state -------------------------------------
  // A real controller journals the freshly rebuilt map before acking host
  // I/O again, so an immediately-following SPO recovers cheaply.
  if (f.config_.checkpoint_interval_erases > 0) {
    write_checkpoint(f);
    f.erases_since_checkpoint_ = 0;
  }
  return rep;
}

}  // namespace jitgc::ftl
