// Compact page state: the FTL's L2P map and mapping checkpoint hold one
// packed 32-bit PPA per LBA (nand::PpaCodec), and each NAND page keeps a
// 16-byte OOB record (32-bit LBA, 48-bit sequence and content stamps). These
// tests pin the encodings at their edges and the named errors a doctored
// snapshot must raise where a packed word could otherwise be corrupted
// silently.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "ftl/ftl.h"

namespace jitgc::ftl {
namespace {

FtlConfig config_with(std::uint32_t blocks, std::uint32_t ppb,
                      std::uint64_t checkpoint_interval = 0) {
  FtlConfig cfg;
  cfg.geometry = nand::Geometry{.channels = 1,
                                .dies_per_channel = 2,
                                .planes_per_die = 1,
                                .blocks_per_plane = blocks,
                                .pages_per_block = ppb,
                                .page_size = 4 * KiB};
  cfg.op_ratio = 0.25;
  cfg.checkpoint_interval_erases = checkpoint_interval;
  return cfg;
}

std::string saved(const Ftl& ftl) {
  BinaryWriter w;
  ftl.save_state(w);
  return w.take();
}

/// Byte offset of the L2P map's first entry in an Ftl::save_state blob: the
/// NAND section, then the u64 entry count.
std::size_t map_offset(const Ftl& ftl) {
  BinaryWriter w;
  ftl.nand().save_state(w);
  return w.data().size() + 8;
}

void put_u32(std::string& blob, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) blob[at + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
}

void put_u64(std::string& blob, std::size_t at, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) blob[at + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
}

/// Byte offset of a page's u8 state in an Ftl::save_state (or
/// NandDevice::save_state) blob of a device with `ppb` pages per block: the
/// u32 block count and u32 pages per block, then per block a u32 write
/// pointer, a u64 erase count and per page u8 state, u64 LBA, u64 seq and
/// u64 stamp. The page's LBA, seq and stamp follow at +1, +9 and +17.
std::size_t page_offset(std::uint32_t ppb, std::uint32_t block, std::uint32_t page) {
  constexpr std::size_t kPageBytes = 1 + 8 + 8 + 8;
  return 4 + 4 + static_cast<std::size_t>(block) * (4 + 8 + ppb * kPageBytes) + 4 + 8 +
         page * kPageBytes;
}

/// Restores `blob` into a fresh Ftl built from `cfg` and returns the
/// BinaryFormatError message ("" when the restore succeeded).
std::string restore_error(const FtlConfig& cfg, const std::string& blob) {
  Ftl fresh(cfg);
  BinaryReader r(blob);
  try {
    fresh.restore_state(r);
  } catch (const BinaryFormatError& e) {
    return e.what();
  }
  return "";
}

TEST(PackedPpa, MappingRoundTripsLastPageOfLastBlock) {
  // 96 pages per block is not a power of two: the page field spends 7 bits
  // and leaves 32 codes per block unused.
  const FtlConfig cfg = config_with(/*blocks=*/16, /*ppb=*/96);
  Ftl ftl(cfg);
  const std::uint32_t last_block = ftl.nand().num_blocks() - 1;
  const nand::Ppa last{last_block, cfg.geometry.pages_per_block - 1};
  // Allocation takes the least-worn free block first, so the never-erased
  // last block is reached once every lower block has cycled through GC.
  bool reached = false;
  for (std::uint64_t i = 0; i < 40 * ftl.user_pages() && !reached; ++i) {
    const Lba lba = i % ftl.user_pages();
    ftl.write(lba);
    if (ftl.mapping(lba) == last) {
      reached = true;
      (void)ftl.read(lba);  // the read-path oracle agrees with the OOB
      EXPECT_EQ(ftl.nand().block(last.block).page_lba(last.page), lba);
      // And the entry survives the snapshot wire form.
      Ftl restored(cfg);
      const std::string blob = saved(ftl);
      BinaryReader r(blob);
      restored.restore_state(r);
      EXPECT_EQ(restored.mapping(lba), last);
      EXPECT_EQ(saved(restored), blob);
    }
  }
  EXPECT_TRUE(reached);
  // An unmapped entry reads back as (kNoBlock, 0).
  ftl.trim(0);
  EXPECT_EQ(ftl.mapping(0), (nand::Ppa{Ftl::kNoBlock, 0}));

  const nand::PpaCodec codec(cfg.geometry);
  EXPECT_EQ(codec.unpack(codec.pack(last)), last);
  EXPECT_LT(codec.pack(nand::Ppa{3, 95}), codec.pack(nand::Ppa{4, 0}));
  EXPECT_EQ(codec.unpack_or_none(nand::PpaCodec::kNone), (nand::Ppa{Ftl::kNoBlock, 0}));
}

TEST(PackedStateSnapshot, RejectsOobLbaBeyondThirtyTwoBits) {
  const FtlConfig cfg = config_with(16, 8);
  Ftl ftl(cfg);
  ftl.write(0);
  std::string blob = saved(ftl);
  // Block 0's first page: u32 block count, u32 pages per block, then the
  // block's u32 write pointer, u64 erase count and the page's u8 state.
  const std::size_t lba_at = 4 + 4 + 4 + 8 + 1;
  put_u64(blob, lba_at, std::uint64_t{1} << 32);
  EXPECT_NE(restore_error(cfg, blob).find("32-bit OOB record"), std::string::npos);
  // UINT32_MAX is the record's own "unreadable" code, not a storable LBA.
  put_u64(blob, lba_at, 0xFFFFFFFFu);
  EXPECT_NE(restore_error(cfg, blob).find("32-bit OOB record"), std::string::npos);
}

TEST(PackedStateSnapshot, RejectsMappingEntryOutsideTheDevice) {
  const FtlConfig cfg = config_with(16, 8);
  Ftl ftl(cfg);
  ftl.write(0);
  const std::string blob = saved(ftl);
  const std::size_t entry0 = map_offset(ftl);
  ASSERT_EQ(restore_error(cfg, blob), "");

  std::string bad_page = blob;
  put_u32(bad_page, entry0 + 4, cfg.geometry.pages_per_block);
  EXPECT_EQ(restore_error(cfg, bad_page), "snapshot mapping references a page out of range");

  std::string bad_block = blob;
  put_u32(bad_block, entry0, ftl.nand().num_blocks());
  EXPECT_EQ(restore_error(cfg, bad_block), "snapshot mapping references a block out of range");

  // LBA 1 is unmapped: (kNoBlock, 0) on the wire; any other page is corrupt.
  std::string bad_unmapped = blob;
  put_u32(bad_unmapped, entry0 + 8 + 4, 1);
  EXPECT_EQ(restore_error(cfg, bad_unmapped), "snapshot mapping has an unmapped entry with a page");
}

TEST(PackedStateSnapshot, RejectsCheckpointEntryOutsideTheDevice) {
  const FtlConfig cfg = config_with(16, 8, /*checkpoint_interval=*/1);
  Ftl ftl(cfg);
  for (std::uint64_t i = 0; i < 4 * ftl.user_pages(); ++i) ftl.write(i % ftl.user_pages());
  const MappingCheckpoint& ck = ftl.mapping_checkpoint();
  ASSERT_TRUE(ck.present);
  const nand::PpaCodec codec(cfg.geometry);
  BinaryWriter ck_bytes;
  ck.save_state(ck_bytes, codec);

  const std::string blob = saved(ftl);
  // The checkpoint is followed by the u64 erase counter and 15 u64 stats.
  const std::size_t ck_at = blob.size() - 16 * 8 - ck_bytes.data().size();
  ASSERT_EQ(blob.substr(ck_at, ck_bytes.data().size()), ck_bytes.data());
  ASSERT_NE(ck.map[0], nand::PpaCodec::kNone);
  // present flag, u64 seq, u64 entry count, then (u32 block, u32 page) pairs.
  const std::size_t entry0 = ck_at + 1 + 8 + 8;

  std::string bad_page = blob;
  put_u32(bad_page, entry0 + 4, cfg.geometry.pages_per_block);
  EXPECT_EQ(restore_error(cfg, bad_page), "snapshot checkpoint references a page out of range");

  std::string bad_block = blob;
  put_u32(bad_block, entry0, Ftl::kNoBlock - 1);
  EXPECT_EQ(restore_error(cfg, bad_block), "snapshot checkpoint references a block out of range");
}

TEST(PackedStateSnapshot, ReadOracleCatchesSwappedMappings) {
  // Two in-range entries swapped in the blob restore cleanly, but the first
  // read of either LBA finds the other LBA in the page's OOB.
  const FtlConfig cfg = config_with(16, 8);
  Ftl ftl(cfg);
  ftl.write(0);
  ftl.write(1);
  std::string blob = saved(ftl);
  const std::size_t entry0 = map_offset(ftl);
  put_u32(blob, entry0 + 4, ftl.mapping(1).page);
  put_u32(blob, entry0 + 8 + 4, ftl.mapping(0).page);
  Ftl doctored(cfg);
  BinaryReader r(blob);
  doctored.restore_state(r);
  try {
    (void)doctored.read(0);
    ADD_FAILURE() << "read of a mis-mapped LBA succeeded";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("mapping/OOB disagreement"), std::string::npos);
  }
}

nand::Geometry one_die(std::uint32_t blocks, std::uint32_t ppb) {
  return nand::Geometry{.channels = 1,
                        .dies_per_channel = 1,
                        .planes_per_die = 1,
                        .blocks_per_plane = blocks,
                        .pages_per_block = ppb,
                        .page_size = 4 * KiB};
}

std::string saved(const nand::NandDevice& dev) {
  BinaryWriter w;
  dev.save_state(w);
  return w.take();
}

/// Restores `blob` into a fresh device of geometry `g` and returns the
/// BinaryFormatError message ("" when the restore succeeded).
std::string restore_error(const nand::Geometry& g, const std::string& blob) {
  nand::NandDevice fresh(g, nand::timing_20nm_mlc());
  BinaryReader r(blob);
  try {
    fresh.restore_state(r);
  } catch (const BinaryFormatError& e) {
    return e.what();
  }
  return "";
}

/// The message of the std::logic_error `f` throws ("" when it returns).
template <typename F>
std::string logic_error_of(F&& f) {
  try {
    f();
  } catch (const std::logic_error& e) {
    return e.what();
  }
  return "";
}

constexpr std::uint64_t kStampMax = nand::PageOob::kStampLimit - 1;  // 2^48 - 1

TEST(PackedOob, FortyEightBitStampsRoundTripThroughSnapshot) {
  const nand::Geometry g = one_die(4, 4);
  nand::NandDevice dev(g, nand::timing_20nm_mlc());
  // Each high half-word paired with a different low word, so a swapped or
  // truncated half shows.
  const std::uint64_t seq1 = (std::uint64_t{1} << 32) + 7;
  const std::uint64_t stamp0 = (std::uint64_t{0x8000} << 32) | 0x0000FFFFu;
  ASSERT_TRUE(dev.program_page(2, 11, /*is_migration=*/false, kStampMax, stamp0).ok());
  ASSERT_TRUE(dev.program_page(2, 12, /*is_migration=*/true, seq1, kStampMax).ok());

  const nand::PageOob oob0 = dev.block(2).page_oob(0);
  EXPECT_EQ(oob0.lba, 11u);
  EXPECT_EQ(oob0.seq(), kStampMax);
  EXPECT_EQ(oob0.stamp(), stamp0);
  const nand::PageOob oob1 = dev.block(2).page_oob(1);
  EXPECT_EQ(oob1.lba, 12u);
  EXPECT_EQ(oob1.seq(), seq1);
  EXPECT_EQ(oob1.stamp(), kStampMax);

  // The snapshot carries the full u64 values (format v3) ...
  const std::string blob = saved(dev);
  std::uint64_t wire_seq = 0;
  std::memcpy(&wire_seq, blob.data() + page_offset(4, 2, 0) + 9, 8);
  EXPECT_EQ(wire_seq, kStampMax);
  // ... and a restored device holds the same records bit for bit.
  nand::NandDevice restored(g, nand::timing_20nm_mlc());
  BinaryReader r(blob);
  restored.restore_state(r);
  for (std::uint32_t p = 0; p < 2; ++p) {
    const nand::PageOob a = dev.block(2).page_oob(p);
    const nand::PageOob b = restored.block(2).page_oob(p);
    EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0) << "page " << p;
  }
  EXPECT_EQ(restored.block(2).page_seq(0), kStampMax);
  EXPECT_EQ(restored.block(2).page_stamp(1), kStampMax);
  EXPECT_EQ(saved(restored), blob);
}

TEST(PackedOob, ProgramRefusesStampsBeyondFortyEightBits) {
  nand::NandDevice dev(one_die(4, 4), nand::timing_20nm_mlc());
  const std::uint64_t limit = nand::PageOob::kStampLimit;
  EXPECT_NE(logic_error_of([&] { (void)dev.program_page(1, 5, false, limit, 0); })
                .find("program sequence does not fit the 48-bit OOB field"),
            std::string::npos);
  EXPECT_NE(logic_error_of([&] { (void)dev.program_page(1, 5, false, 0, limit); })
                .find("content stamp does not fit the 48-bit OOB field"),
            std::string::npos);
  // A refused program consumes no page.
  EXPECT_EQ(dev.block(1).write_pointer(), 0u);
  EXPECT_EQ(dev.block(1).page_state(0), nand::PageState::kFree);
}

TEST(PackedOob, RestoreRefusesStampsBeyondFortyEightBits) {
  const nand::Geometry g = one_die(4, 4);
  nand::NandDevice dev(g, nand::timing_20nm_mlc());
  ASSERT_TRUE(dev.program_page(0, 3, false, kStampMax, kStampMax).ok());
  const std::string blob = saved(dev);
  ASSERT_EQ(restore_error(g, blob), "");

  std::string bad_seq = blob;
  put_u64(bad_seq, page_offset(4, 0, 0) + 9, nand::PageOob::kStampLimit);
  EXPECT_EQ(restore_error(g, bad_seq), "snapshot OOB sequence does not fit the 48-bit OOB field");

  std::string bad_stamp = blob;
  put_u64(bad_stamp, page_offset(4, 0, 0) + 17, nand::PageOob::kStampLimit);
  EXPECT_EQ(restore_error(g, bad_stamp),
            "snapshot OOB content stamp does not fit the 48-bit OOB field");
}

TEST(PackedStateSnapshot, RejectsPageStateThatContradictsTheWritePointer) {
  // Neither can be installed safely: an invalid page above the write
  // pointer makes the block throw mid-run once program() reaches it, and a
  // free page below it is counted by invalid_count().
  const FtlConfig cfg = config_with(16, 8);
  Ftl ftl(cfg);
  ftl.write(0);
  ASSERT_EQ(ftl.nand().block(0).write_pointer(), 1u);
  const std::string blob = saved(ftl);
  ASSERT_EQ(restore_error(cfg, blob), "");

  std::string invalid_above = blob;
  invalid_above[page_offset(8, 0, 1)] = static_cast<char>(nand::PageState::kInvalid);
  EXPECT_EQ(restore_error(cfg, invalid_above),
            "snapshot programmed page at or above the write pointer");

  std::string torn_above = blob;
  torn_above[page_offset(8, 0, 7)] = static_cast<char>(nand::PageState::kTorn);
  EXPECT_EQ(restore_error(cfg, torn_above),
            "snapshot programmed page at or above the write pointer");

  std::string free_below = blob;
  free_below[page_offset(8, 0, 0)] = static_cast<char>(nand::PageState::kFree);
  EXPECT_EQ(restore_error(cfg, free_below), "snapshot free page below the write pointer");
}

TEST(PackedOob, RecoverBlockRefusesContradictoryStatesAndKeepsRecords) {
  // Recovery's recover_block bypasses the snapshot reader; Block::restore
  // holds it to the same page-state rule and installs its records bit for
  // bit.
  nand::NandDevice dev(one_die(2, 4), nand::timing_20nm_mlc());
  ASSERT_TRUE(dev.program_page(0, 4, false, kStampMax, 1).ok());
  ASSERT_TRUE(dev.program_page(0, 5, false, 2, kStampMax).ok());
  std::vector<nand::PageState> states(4, nand::PageState::kFree);
  std::vector<nand::PageOob> records(4);
  for (std::uint32_t p = 0; p < 2; ++p) records[p] = dev.block(0).page_oob(p);
  states[0] = nand::PageState::kInvalid;
  states[1] = nand::PageState::kValid;

  states[3] = nand::PageState::kInvalid;
  EXPECT_NE(logic_error_of([&] { dev.recover_block(0, 2, states.data(), records.data()); })
                .find("restored page state contradicts the write pointer"),
            std::string::npos);
  states[3] = nand::PageState::kFree;
  EXPECT_NE(logic_error_of([&] { dev.recover_block(0, 3, states.data(), records.data()); })
                .find("restored page state contradicts the write pointer"),
            std::string::npos);
  // The refused installs left the block as it was.
  EXPECT_EQ(dev.block(0).write_pointer(), 2u);
  EXPECT_EQ(dev.block(0).valid_count(), 2u);

  dev.recover_block(0, 2, states.data(), records.data());
  for (std::uint32_t p = 0; p < 4; ++p) {
    const nand::PageOob got = dev.block(0).page_oob(p);
    EXPECT_EQ(std::memcmp(&got, &records[p], sizeof got), 0) << "page " << p;
  }
  EXPECT_EQ(dev.block(0).valid_count(), 1u);
  EXPECT_EQ(dev.block(0).page_seq(0), kStampMax);
}

}  // namespace
}  // namespace jitgc::ftl
