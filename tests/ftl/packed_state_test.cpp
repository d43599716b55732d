// Compact page state: the FTL's L2P map and mapping checkpoint hold one
// packed 32-bit PPA per LBA (nand::PpaCodec), and each NAND page keeps its
// LBA in a 32-bit OOB field. These tests pin the encoding at its edges and
// the named errors a doctored snapshot must raise where a packed word could
// otherwise be corrupted silently.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

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

}  // namespace
}  // namespace jitgc::ftl
