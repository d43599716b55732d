#include "nand/nand_device.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace jitgc::nand {
namespace {

Geometry tiny_geometry() {
  return Geometry{.channels = 1,
                  .dies_per_channel = 1,
                  .planes_per_die = 1,
                  .blocks_per_plane = 8,
                  .pages_per_block = 4,
                  .page_size = 4 * KiB};
}

TEST(Geometry, DerivedQuantities) {
  const Geometry g = tiny_geometry();
  EXPECT_EQ(g.total_blocks(), 8u);
  EXPECT_EQ(g.total_pages(), 32u);
  EXPECT_EQ(g.block_size(), 16 * KiB);
  EXPECT_EQ(g.capacity_bytes(), 128 * KiB);
  EXPECT_EQ(g.parallelism(), 1u);
}

TEST(Geometry, ValidationRejectsDegenerate) {
  Geometry g = tiny_geometry();
  g.channels = 0;
  EXPECT_THROW(g.validate(), std::logic_error);
  g = tiny_geometry();
  g.page_size = 256;
  EXPECT_THROW(g.validate(), std::logic_error);
  // 2^24 blocks x 256 pages: the last page packs to UINT32_MAX, the "no
  // page" sentinel, so the geometry is one page too large.
  g = tiny_geometry();
  g.blocks_per_plane = 1u << 24;
  g.pages_per_block = 256;
  EXPECT_FALSE(g.packed_ppa_fits());
  EXPECT_THROW(g.validate(), std::logic_error);
  // A block count that overflows 32 bits before the pages are counted.
  g = tiny_geometry();
  g.channels = 1u << 16;
  g.blocks_per_plane = 1u << 16;
  EXPECT_THROW(g.validate(), std::logic_error);
  g = tiny_geometry();
  g.blocks_per_plane = (1u << 24) - 1;
  EXPECT_TRUE(g.packed_ppa_fits());
}

TEST(NandDevice, ProgramReadRoundTrip) {
  NandDevice dev(tiny_geometry(), timing_20nm_mlc());
  const ProgramResult r = dev.program_page(3, 77);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ppa.block, 3u);
  EXPECT_EQ(r.ppa.page, 0u);
  EXPECT_EQ(dev.read_page(r.ppa), 77u);
}

TEST(NandDevice, ProgramReadRoundTripAtLargest32BitLba) {
  // The OOB record stores LBAs in 32 bits with UINT32_MAX as "unreadable";
  // 2^32 - 2 is the largest LBA it holds.
  NandDevice dev(tiny_geometry(), timing_20nm_mlc());
  const Lba lba = (Lba{1} << 32) - 2;
  const ProgramResult r = dev.program_page(5, lba, /*is_migration=*/false, /*seq=*/9,
                                           /*stamp=*/(std::uint64_t{1} << 40) + 3);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(dev.read_page(r.ppa), lba);
  EXPECT_EQ(dev.block(5).page_lba(0), lba);
  EXPECT_EQ(dev.block(5).page_seq(0), 9u);
  EXPECT_EQ(dev.block(5).page_stamp(0), (std::uint64_t{1} << 40) + 3);
  EXPECT_THROW((void)dev.program_page(5, lba + 1), std::logic_error);
  EXPECT_THROW((void)dev.program_page(5, kInvalidLba), std::logic_error);
}

TEST(NandDevice, ReadOfNonValidPageThrows) {
  NandDevice dev(tiny_geometry(), timing_20nm_mlc());
  EXPECT_THROW(dev.read_page(Ppa{0, 0}), std::logic_error);
  const Ppa ppa = dev.program_page(0, 1).ppa;
  dev.invalidate_page(ppa);
  EXPECT_THROW(dev.read_page(ppa), std::logic_error);
}

TEST(NandDevice, StatsAccumulate) {
  NandDevice dev(tiny_geometry(), timing_20nm_mlc());
  const Ppa a = dev.program_page(0, 1).ppa;
  (void)dev.program_page(0, 2, /*is_migration=*/true);
  dev.read_page(a);
  dev.invalidate_page(a);
  dev.invalidate_page(Ppa{0, 1});
  ASSERT_EQ(dev.erase_block(0), NandStatus::kOk);

  const NandStats& s = dev.stats();
  EXPECT_EQ(s.page_programs, 2u);
  EXPECT_EQ(s.page_migrations, 1u);
  EXPECT_EQ(s.page_reads, 1u);
  EXPECT_EQ(s.block_erases, 1u);
  EXPECT_GT(s.busy_time_us, 0);
}

TEST(NandDevice, EraseOfBlockWithValidDataThrows) {
  NandDevice dev(tiny_geometry(), timing_20nm_mlc());
  (void)dev.program_page(1, 5);
  EXPECT_THROW((void)dev.erase_block(1), std::logic_error);
}

TEST(NandDevice, WearAccounting) {
  NandDevice dev(tiny_geometry(), timing_20nm_mlc());
  for (int i = 0; i < 3; ++i) {
    const Ppa p = dev.program_page(2, 1).ppa;
    dev.invalidate_page(p);
    ASSERT_EQ(dev.erase_block(2), NandStatus::kOk);
  }
  EXPECT_EQ(dev.max_erase_count(), 3u);
  EXPECT_DOUBLE_EQ(dev.mean_erase_count(), 3.0 / 8.0);
}

TEST(Geometry, BlockPlacementStripesAcrossPlanes) {
  Geometry g;
  g.channels = 2;
  g.dies_per_channel = 2;
  g.planes_per_die = 2;  // 8 planes, 4 dies
  g.blocks_per_plane = 4;

  EXPECT_EQ(g.total_planes(), 8u);
  EXPECT_EQ(g.total_dies(), 4u);
  // Consecutive blocks land on consecutive planes (round-robin).
  EXPECT_EQ(g.plane_of_block(0), 0u);
  EXPECT_EQ(g.plane_of_block(7), 7u);
  EXPECT_EQ(g.plane_of_block(8), 0u);
  // Two planes per die; two dies per channel.
  EXPECT_EQ(g.die_of_block(0), 0u);
  EXPECT_EQ(g.die_of_block(2), 1u);
  EXPECT_EQ(g.channel_of_block(0), 0u);
  EXPECT_EQ(g.channel_of_block(4), 1u);
}

TEST(Geometry, EveryBlockMapsToValidPlacement) {
  const Geometry g = small_geometry();
  for (std::uint32_t b = 0; b < g.total_blocks(); b += 37) {
    EXPECT_LT(g.plane_of_block(b), g.total_planes());
    EXPECT_LT(g.die_of_block(b), g.total_dies());
    EXPECT_LT(g.channel_of_block(b), g.channels);
  }
}

TEST(NandDevice, TimingPresetsMatchPaperTrend) {
  // Paper §1: program time grows ~10x from 130-nm SLC to 25-nm MLC.
  EXPECT_EQ(timing_130nm_slc().page_program_us, 200);
  EXPECT_EQ(timing_25nm_mlc().page_program_us, 2300);
  EXPECT_GT(timing_25nm_mlc().migrate_cost(), timing_130nm_slc().migrate_cost());
}

}  // namespace
}  // namespace jitgc::nand
