#include "nand/nand_device.h"

#include <algorithm>
#include <numeric>

namespace jitgc::nand {

NandDevice::NandDevice(const Geometry& geometry, const TimingParams& timing,
                       const FaultConfig& faults)
    : geom_(geometry), timing_(timing) {
  geom_.validate();
  const std::uint32_t nblocks = geom_.total_blocks();
  const std::uint32_t ppb = geom_.pages_per_block;
  const std::size_t total_pages = static_cast<std::size_t>(nblocks) * ppb;
  state_arena_.assign(total_pages, PageState::kFree);
  oob_arena_.assign(total_pages, PageOob{});
  blocks_.reserve(nblocks);
  for (std::uint32_t i = 0; i < nblocks; ++i) {
    const std::size_t off = static_cast<std::size_t>(i) * ppb;
    blocks_.emplace_back(ppb, state_arena_.data() + off, oob_arena_.data() + off);
  }
  if (faults.enabled()) faults_.emplace(faults, timing.endurance_pe_cycles);
}

Ppa NandDevice::mark_torn(std::uint32_t block_id) {
  return Ppa{block_id, blocks_.at(block_id).mark_torn()};
}

void NandDevice::recover_block(std::uint32_t block_id, std::uint32_t write_ptr,
                               const PageState* states, const PageOob* oob) {
  Block& blk = blocks_.at(block_id);
  blk.restore(write_ptr, blk.erase_count(), states, oob);
}

void NandDevice::revalidate_page(const Ppa& ppa) { blocks_.at(ppa.block).revalidate(ppa.page); }

NandStatus NandDevice::erase_block(std::uint32_t block_id) {
  Block& blk = blocks_.at(block_id);
  ++stats_.block_erases;
  stats_.busy_time_us += timing_.block_erase_us;
  if (faults_ && faults_->erase_fails(blk.erase_count())) {
    blk.erase_fail();
    ++stats_.erase_failures;
    return NandStatus::kEraseFail;
  }
  blk.erase();
  return NandStatus::kOk;
}

void NandDevice::save_state(BinaryWriter& w) const {
  w.u32(static_cast<std::uint32_t>(blocks_.size()));
  w.u32(geom_.pages_per_block);
  for (const Block& b : blocks_) {
    w.u32(b.write_pointer());
    w.u64(b.erase_count());
    for (std::uint32_t p = 0; p < b.pages_per_block(); ++p) {
      w.u8(static_cast<std::uint8_t>(b.page_state(p)));
      w.u64(b.page_lba(p));
      w.u64(b.page_seq(p));
      w.u64(b.page_stamp(p));
    }
  }
  w.u64(stats_.page_reads);
  w.u64(stats_.page_programs);
  w.u64(stats_.page_migrations);
  w.u64(stats_.block_erases);
  w.u64(stats_.program_failures);
  w.u64(stats_.erase_failures);
  w.u64(stats_.busy_time_us);
  w.boolean(faults_.has_value());
  if (faults_) {
    std::uint64_t rng_state[4];
    faults_->save_rng_state(rng_state);
    for (const std::uint64_t word : rng_state) w.u64(word);
  }
}

void NandDevice::restore_state(BinaryReader& r) {
  const std::uint32_t nblocks = r.u32();
  const std::uint32_t ppb = r.u32();
  if (nblocks != blocks_.size() || ppb != geom_.pages_per_block) {
    throw BinaryFormatError("snapshot geometry does not match the device");
  }
  std::vector<PageState> states(ppb);
  std::vector<PageOob> oob(ppb);
  for (Block& b : blocks_) {
    const std::uint32_t write_ptr = r.u32();
    const std::uint64_t erase_count = r.u64();
    if (write_ptr > ppb) throw BinaryFormatError("snapshot write pointer beyond block");
    for (std::uint32_t p = 0; p < ppb; ++p) {
      const std::uint8_t s = r.u8();
      if (s > static_cast<std::uint8_t>(PageState::kTorn)) {
        throw BinaryFormatError("snapshot page state out of range");
      }
      states[p] = static_cast<PageState>(s);
      if (states[p] == PageState::kFree && p < write_ptr) {
        throw BinaryFormatError("snapshot free page below the write pointer");
      }
      if (states[p] != PageState::kFree && p >= write_ptr) {
        throw BinaryFormatError("snapshot programmed page at or above the write pointer");
      }
      const Lba lba = r.u64();
      if (lba != kInvalidLba && lba >= PageOob::kNoLba) {
        throw BinaryFormatError("snapshot OOB LBA does not fit the 32-bit OOB record");
      }
      const std::uint64_t seq = r.u64();
      if (seq >= PageOob::kStampLimit) {
        throw BinaryFormatError("snapshot OOB sequence does not fit the 48-bit OOB field");
      }
      const std::uint64_t stamp = r.u64();
      if (stamp >= PageOob::kStampLimit) {
        throw BinaryFormatError("snapshot OOB content stamp does not fit the 48-bit OOB field");
      }
      oob[p] = PageOob::programmed(
          lba == kInvalidLba ? PageOob::kNoLba : static_cast<std::uint32_t>(lba), seq, stamp);
    }
    b.restore(write_ptr, erase_count, states.data(), oob.data());
  }
  stats_.page_reads = r.u64();
  stats_.page_programs = r.u64();
  stats_.page_migrations = r.u64();
  stats_.block_erases = r.u64();
  stats_.program_failures = r.u64();
  stats_.erase_failures = r.u64();
  stats_.busy_time_us = r.u64();
  const bool had_faults = r.boolean();
  if (had_faults != faults_.has_value()) {
    throw BinaryFormatError("snapshot fault-model presence does not match the device");
  }
  if (faults_) {
    std::uint64_t rng_state[4];
    for (std::uint64_t& word : rng_state) word = r.u64();
    faults_->restore_rng_state(rng_state);
  }
}

std::uint64_t NandDevice::max_erase_count() const {
  std::uint64_t mx = 0;
  for (const Block& b : blocks_) mx = std::max(mx, b.erase_count());
  return mx;
}

double NandDevice::mean_erase_count() const {
  if (blocks_.empty()) return 0.0;
  const auto total = std::accumulate(
      blocks_.begin(), blocks_.end(), std::uint64_t{0},
      [](std::uint64_t acc, const Block& b) { return acc + b.erase_count(); });
  return static_cast<double>(total) / static_cast<double>(blocks_.size());
}

}  // namespace jitgc::nand
