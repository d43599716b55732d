// Physical organization of a NAND flash device.
#pragma once

#include <bit>
#include <cstdint>
#include <initializer_list>

#include "common/ensure.h"
#include "common/types.h"

namespace jitgc::nand {

/// Physical page address: (block, page-in-block). The FTL's mapping unit.
struct Ppa {
  std::uint32_t block = 0;
  std::uint32_t page = 0;

  friend bool operator==(const Ppa&, const Ppa&) = default;
};

/// Device shape. Channels/dies/planes determine the parallelism factor the
/// service model uses for effective bandwidth; blocks/pages determine
/// capacity and GC granularity.
struct Geometry {
  std::uint32_t channels = 4;
  std::uint32_t dies_per_channel = 2;
  std::uint32_t planes_per_die = 2;
  std::uint32_t blocks_per_plane = 256;
  std::uint32_t pages_per_block = 256;
  Bytes page_size = 4 * KiB;

  std::uint32_t total_planes() const { return channels * dies_per_channel * planes_per_die; }
  std::uint32_t total_blocks() const { return total_planes() * blocks_per_plane; }
  std::uint64_t total_pages() const {
    return static_cast<std::uint64_t>(total_blocks()) * pages_per_block;
  }
  Bytes block_size() const { return static_cast<Bytes>(pages_per_block) * page_size; }
  Bytes capacity_bytes() const { return total_pages() * page_size; }

  /// Number of operations the device can service concurrently.
  std::uint32_t parallelism() const { return total_planes(); }

  // -- Physical placement of blocks -------------------------------------------
  // Blocks are striped round-robin across planes: consecutive block ids land
  // on different planes, so an FTL allocating blocks in id order naturally
  // spreads load (and the multi-queue service model overlaps their ops).

  std::uint32_t plane_of_block(std::uint32_t block_id) const {
    return block_id % total_planes();
  }
  std::uint32_t die_of_block(std::uint32_t block_id) const {
    return plane_of_block(block_id) / planes_per_die;
  }
  std::uint32_t channel_of_block(std::uint32_t block_id) const {
    return die_of_block(block_id) / dies_per_channel;
  }
  std::uint32_t total_dies() const { return channels * dies_per_channel; }

  /// Bits a packed PPA spends on the page index (see PpaCodec).
  std::uint32_t page_bits() const {
    return static_cast<std::uint32_t>(std::bit_width(pages_per_block - 1u));
  }

  /// True when every page's packed PPA (see PpaCodec) fits 32 bits below
  /// the "no page" sentinel. The L2P map and the recovery tables hold one
  /// packed word per LBA, so larger geometries are rejected up front.
  bool packed_ppa_fits() const {
    std::uint64_t blocks = 1;
    for (const std::uint32_t factor : {channels, dies_per_channel, planes_per_die, blocks_per_plane}) {
      blocks *= factor;
      if (blocks > UINT32_MAX) return false;
    }
    if (blocks == 0 || pages_per_block == 0) return true;  // validate() names emptiness
    // A page field of 32 bits leaves none for the block.
    if (page_bits() >= 32) return false;
    const std::uint64_t last = ((blocks - 1) << page_bits()) | (pages_per_block - 1u);
    return last < UINT32_MAX;
  }

  void validate() const {
    JITGC_ENSURE_MSG(channels && dies_per_channel && planes_per_die, "empty geometry");
    JITGC_ENSURE_MSG(blocks_per_plane && pages_per_block, "empty geometry");
    JITGC_ENSURE_MSG(page_size >= 512, "page size below sector size");
    JITGC_ENSURE_MSG(packed_ppa_fits(), "geometry too large for a 32-bit packed PPA");
  }
};

/// The one place a PPA is packed into a 32-bit word: block << page_bits |
/// page, with kNone (UINT32_MAX) for "no page". Geometry::validate()
/// guarantees every real page packs below kNone. The FTL's L2P map, its
/// mapping checkpoint and crash recovery's tables store these words; the
/// public API keeps speaking Ppa.
class PpaCodec {
 public:
  static constexpr std::uint32_t kNone = UINT32_MAX;
  /// Ppa::block of an unpacked kNone.
  static constexpr std::uint32_t kNoBlock = UINT32_MAX;

  PpaCodec() = default;
  /// `g` must have passed validate().
  explicit PpaCodec(const Geometry& g)
      : blocks_(g.total_blocks()),
        pages_(g.pages_per_block),
        page_bits_(g.page_bits()),
        page_mask_((std::uint32_t{1} << page_bits_) - 1u) {}

  std::uint32_t num_blocks() const { return blocks_; }
  std::uint32_t pages_per_block() const { return pages_; }

  /// Packs a page of the device.
  std::uint32_t pack(const Ppa& p) const { return p.block << page_bits_ | p.page; }
  /// Unpacks a word other than kNone.
  Ppa unpack(std::uint32_t packed) const { return Ppa{block(packed), page(packed)}; }
  std::uint32_t block(std::uint32_t packed) const { return packed >> page_bits_; }
  std::uint32_t page(std::uint32_t packed) const { return packed & page_mask_; }

  /// Unpacks any word; kNone becomes Ppa{kNoBlock, 0}.
  Ppa unpack_or_none(std::uint32_t packed) const {
    return packed == kNone ? Ppa{kNoBlock, 0} : unpack(packed);
  }

 private:
  std::uint32_t blocks_ = 0;
  std::uint32_t pages_ = 0;
  std::uint32_t page_bits_ = 0;
  std::uint32_t page_mask_ = 0;
};

/// Scaled-down default for fast experiments: 1024 blocks x 256 pages x 4 KiB
/// = 1 GiB physical. Benches scale this up via blocks_per_plane.
inline Geometry small_geometry() {
  return Geometry{.channels = 2,
                  .dies_per_channel = 2,
                  .planes_per_die = 1,
                  .blocks_per_plane = 256,
                  .pages_per_block = 256,
                  .page_size = 4 * KiB};
}

}  // namespace jitgc::nand
