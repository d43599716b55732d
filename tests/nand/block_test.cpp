#include "nand/block.h"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace jitgc::nand
