#include "nand/block.h"

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <vector>

namespace jitgc::nand {
namespace {

/// Page storage for one block, as a NandDevice's two arenas would hold it.
struct BlockStorage {
  explicit BlockStorage(std::uint32_t pages) : states(pages, PageState::kFree), oob(pages) {}
  std::vector<PageState> states;
  std::vector<PageOob> oob;
};

/// A Block over a test-local arena.
class ArenaBlock : private BlockStorage, public Block {
 public:
  explicit ArenaBlock(std::uint32_t pages)
      : BlockStorage(pages), Block(pages, states.data(), oob.data()) {}
};

TEST(Block, StartsErased) {
  ArenaBlock b(64);
  EXPECT_TRUE(b.is_erased());
  EXPECT_FALSE(b.is_full());
  EXPECT_EQ(b.valid_count(), 0u);
  EXPECT_EQ(b.free_count(), 64u);
  EXPECT_EQ(b.erase_count(), 0u);
  for (std::uint32_t p = 0; p < 64; ++p) EXPECT_EQ(b.page_state(p), PageState::kFree);
}

TEST(Block, SequentialProgramming) {
  ArenaBlock b(4);
  EXPECT_EQ(b.program(100), 0u);
  EXPECT_EQ(b.program(101), 1u);
  EXPECT_EQ(b.write_pointer(), 2u);
  EXPECT_EQ(b.valid_count(), 2u);
  EXPECT_EQ(b.page_lba(0), 100u);
  EXPECT_EQ(b.page_lba(1), 101u);
  EXPECT_EQ(b.page_state(0), PageState::kValid);
}

TEST(Block, ProgramFullBlockThrows) {
  ArenaBlock b(2);
  b.program(1);
  b.program(2);
  EXPECT_TRUE(b.is_full());
  EXPECT_THROW(b.program(3), std::logic_error);
}

TEST(Block, InvalidateTracksCounts) {
  ArenaBlock b(4);
  b.program(1);
  b.program(2);
  b.invalidate(0);
  EXPECT_EQ(b.page_state(0), PageState::kInvalid);
  EXPECT_EQ(b.valid_count(), 1u);
  EXPECT_EQ(b.invalid_count(), 1u);
  // Invalidation is FTL metadata, not a media operation: the OOB (LBA and
  // stamps) stays readable until the erase — crash recovery depends on it.
  EXPECT_EQ(b.page_lba(0), 1u);
}

TEST(Block, DoubleInvalidateThrows) {
  ArenaBlock b(4);
  b.program(1);
  b.invalidate(0);
  EXPECT_THROW(b.invalidate(0), std::logic_error);
}

TEST(Block, InvalidateFreePageThrows) {
  ArenaBlock b(4);
  EXPECT_THROW(b.invalidate(0), std::logic_error);
}

TEST(Block, EraseRequiresNoValidData) {
  ArenaBlock b(2);
  b.program(1);
  EXPECT_THROW(b.erase(), std::logic_error);
  b.invalidate(0);
  b.erase();
  EXPECT_TRUE(b.is_erased());
  EXPECT_EQ(b.erase_count(), 1u);
  EXPECT_EQ(b.free_count(), 2u);
}

TEST(Block, EraseResetsWritePointer) {
  ArenaBlock b(2);
  b.program(1);
  b.program(2);
  b.invalidate(0);
  b.invalidate(1);
  b.erase();
  EXPECT_EQ(b.program(9), 0u);  // programming restarts at page 0
}

TEST(Block, EraseCountAccumulates) {
  ArenaBlock b(1);
  for (int i = 0; i < 5; ++i) {
    b.program(1);
    b.invalidate(0);
    b.erase();
  }
  EXPECT_EQ(b.erase_count(), 5u);
}

/// Every page's OOB record, as the block hands them out.
std::vector<PageOob> records(const Block& b) {
  std::vector<PageOob> out;
  for (std::uint32_t p = 0; p < b.pages_per_block(); ++p) out.push_back(b.page_oob(p));
  return out;
}

bool bit_identical(const std::vector<PageOob>& a, const std::vector<PageOob>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof a[0]) == 0;
}

TEST(Block, StateTransitionsLeaveOobRecordsBitIdentical) {
  ArenaBlock b(6);
  // Program: exactly the programmed page's record changes, each field to
  // exactly its value, with every high half-word distinct from its low word.
  std::vector<PageOob> expect = records(b);
  const std::uint64_t seq = (std::uint64_t{0xA5A5} << 32) | 0x5A5A5A5Au;
  const std::uint64_t stamp = (std::uint64_t{0x5A5A} << 32) | 0xA5A5A5A5u;
  ASSERT_EQ(b.program(0xFFFFFFFEu, seq, stamp), 0u);
  EXPECT_EQ(b.page_lba(0), 0xFFFFFFFEu);
  EXPECT_EQ(b.page_seq(0), seq);
  EXPECT_EQ(b.page_stamp(0), stamp);
  expect[0] = PageOob::programmed(0xFFFFFFFEu, seq, stamp);
  EXPECT_TRUE(bit_identical(records(b), expect));
  const std::uint64_t max = PageOob::kStampLimit - 1;
  ASSERT_EQ(b.program(9, max, 0), 1u);
  EXPECT_EQ(b.page_seq(1), max);
  EXPECT_EQ(b.page_stamp(1), 0u);
  expect[1] = b.page_oob(1);

  // Burn, tear, invalidate, revalidate and a failed erase touch no record.
  EXPECT_EQ(b.program_fail(), 2u);
  EXPECT_TRUE(bit_identical(records(b), expect)) << "burn";
  EXPECT_EQ(b.mark_torn(), 3u);
  EXPECT_TRUE(bit_identical(records(b), expect)) << "torn";
  b.invalidate(0);
  EXPECT_TRUE(bit_identical(records(b), expect)) << "invalidate";
  b.revalidate(0);
  EXPECT_TRUE(bit_identical(records(b), expect)) << "revalidate";
  b.invalidate(0);
  b.invalidate(1);
  b.erase_fail();
  EXPECT_TRUE(bit_identical(records(b), expect)) << "erase failure";

  // A restore (what recovery's recover_block installs) keeps the records it
  // is given bit for bit; an erase resets every one to the unreadable default.
  std::vector<PageState> states;
  for (std::uint32_t p = 0; p < b.pages_per_block(); ++p) states.push_back(b.page_state(p));
  b.restore(b.write_pointer(), b.erase_count(), states.data(), expect.data());
  EXPECT_TRUE(bit_identical(records(b), expect)) << "restore";
  b.erase();
  EXPECT_TRUE(bit_identical(records(b), std::vector<PageOob>(6)));
  EXPECT_EQ(b.page_lba(0), kInvalidLba);
}

}  // namespace
}  // namespace jitgc::nand
