#include "array/ssd_array.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sim/cli_options.h"

namespace jitgc::array {
namespace {

sim::SsdConfig small_device() {
  sim::SsdConfig cfg;
  cfg.ftl.geometry = nand::Geometry{.channels = 2,
                                    .dies_per_channel = 2,
                                    .planes_per_die = 1,
                                    .blocks_per_plane = 16,
                                    .pages_per_block = 8,
                                    .page_size = 4 * KiB};
  cfg.ftl.op_ratio = 0.25;
  cfg.ftl.timing = nand::timing_20nm_mlc();
  return cfg;
}

ArrayConfig array_of(std::uint32_t n, std::uint32_t chunk) {
  ArrayConfig cfg;
  cfg.devices = n;
  cfg.stripe_chunk_pages = chunk;
  return cfg;
}

/// Where the array datapath sends logical `lba`: (physical device, device-LBA).
std::pair<std::uint32_t, Lba> target(const SsdArray& arr, Lba lba) {
  const ChunkLoc loc = arr.layout().map_data(lba);
  return {arr.slot_device(loc.slot), loc.lba};
}

TEST(SsdArray, ModeNamesRoundTrip) {
  for (const auto mode :
       {ArrayGcMode::kNaive, ArrayGcMode::kStaggered, ArrayGcMode::kMaxK}) {
    const auto parsed = parse_array_gc_mode(array_gc_mode_name(mode));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, mode);
  }
  EXPECT_FALSE(parse_array_gc_mode("raid5").has_value());
  EXPECT_FALSE(parse_array_gc_mode("").has_value());
}

TEST(SsdArray, CapacityIsPerDeviceShareFlooredToChunks) {
  SsdArray arr(small_device(), array_of(3, 8), /*seed=*/1);
  const Lba per_device = arr.device(0).ftl().user_pages();
  EXPECT_EQ(arr.device_user_pages(), (per_device / 8) * 8);
  EXPECT_EQ(arr.user_pages(), arr.device_user_pages() * 3);
  EXPECT_EQ(arr.page_size(), 4 * KiB);
}

TEST(SsdArray, ParseTimeVolumeSizeMatchesTheLayout) {
  // jitgc_cli bounds --tenants by sim::volume_user_pages() before any
  // device exists; it must agree with the built array's capacity.
  sim::CliOptions options;
  options.blocks_per_plane = 16;
  options.pages_per_block = 8;
  options.op_ratio = 0.25;
  for (const char* scheme : {"none", "mirror", "parity"}) {
    for (const std::uint32_t n : {4u, 6u}) {
      for (const std::uint32_t chunk : {5u, 8u}) {
        options.array_devices = n;
        options.stripe_chunk_pages = chunk;
        options.array_redundancy = scheme;
        sim::SsdConfig device = sim::default_sim_config(options.seed).ssd;
        sim::apply_device_options(options, device);
        ArrayConfig config = array_of(n, chunk);
        config.redundancy = *parse_redundancy_scheme(scheme);
        const SsdArray arr(device, config, /*seed=*/1);
        EXPECT_EQ(sim::volume_user_pages(options), arr.user_pages())
            << scheme << " x" << n << " chunk " << chunk;
      }
    }
  }
}

TEST(SsdArray, MapStripesChunksRoundRobin) {
  SsdArray arr(small_device(), array_of(4, 8), /*seed=*/1);
  // Chunk c lands on device c % N at chunk c / N.
  for (Lba lba = 0; lba < arr.user_pages(); ++lba) {
    const auto [device, device_lba] = target(arr, lba);
    const Lba chunk = lba / 8;
    EXPECT_EQ(device, chunk % 4);
    EXPECT_EQ(device_lba, (chunk / 4) * 8 + lba % 8);
  }
}

TEST(SsdArray, MapIsABijectionOntoDevicePages) {
  SsdArray arr(small_device(), array_of(4, 8), /*seed=*/1);
  std::set<std::pair<std::uint32_t, Lba>> seen;
  for (Lba lba = 0; lba < arr.user_pages(); ++lba) {
    const auto t = target(arr, lba);
    ASSERT_LT(t.first, arr.device_count());
    ASSERT_LT(t.second, arr.device_user_pages());
    EXPECT_TRUE(seen.insert(t).second) << "duplicate target for LBA " << lba;
  }
  EXPECT_EQ(seen.size(), arr.user_pages());
}

TEST(SsdArray, ConsecutiveLbasWithinAChunkStayOnOneDevice) {
  SsdArray arr(small_device(), array_of(4, 8), /*seed=*/1);
  for (Lba base = 0; base + 8 <= arr.user_pages(); base += 8) {
    const std::uint32_t dev = target(arr, base).first;
    for (Lba i = 1; i < 8; ++i) EXPECT_EQ(target(arr, base + i).first, dev);
  }
}

TEST(SsdArray, SingleDeviceArrayIsIdentityMapping) {
  SsdArray arr(small_device(), array_of(1, 8), /*seed=*/1);
  for (Lba lba = 0; lba < arr.user_pages(); ++lba) {
    const auto [device, device_lba] = target(arr, lba);
    EXPECT_EQ(device, 0u);
    EXPECT_EQ(device_lba, lba);
  }
}

TEST(SsdArray, DevicesAreIndependent) {
  SsdArray arr(small_device(), array_of(2, 8), /*seed=*/1);
  const Bytes free_before_1 = arr.device(1).ftl().free_bytes_for_writes();
  for (Lba lba = 0; lba < 16; ++lba) arr.device(0).write_page(lba);
  EXPECT_EQ(arr.device(1).ftl().free_bytes_for_writes(), free_before_1);
  EXPECT_LT(arr.device(0).ftl().free_bytes_for_writes(),
            arr.device(1).ftl().free_bytes_for_writes());
}

}  // namespace
}  // namespace jitgc::array
