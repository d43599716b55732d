// Oracle for the extended collector's per-block SIP counts: a from-scratch
// recount of the FTL's SIP index through its L2P map. It shares no code
// with the FTL's incremental bookkeeping, so a missed increment or
// decrement anywhere (host write, trim, GC, wear leveling, retirement)
// shows up as a mismatch.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "ftl/ftl.h"

namespace jitgc::testing_util {

/// Passes when every block's block_sip_count() equals the number of SIP
/// LBAs currently mapped to it.
inline ::testing::AssertionResult sip_counts_exact(const ftl::Ftl& ftl) {
  std::vector<std::uint32_t> expect(ftl.nand().num_blocks(), 0);
  for (const Lba lba : ftl.sip_index().sorted()) {
    if (lba >= ftl.user_pages()) continue;
    const nand::Ppa ppa = ftl.mapping(lba);
    if (ppa.block != ftl::Ftl::kNoBlock) ++expect[ppa.block];
  }
  for (std::uint32_t b = 0; b < expect.size(); ++b) {
    if (ftl.block_sip_count(b) != expect[b]) {
      return ::testing::AssertionFailure() << "block " << b << ": block_sip_count "
                                           << ftl.block_sip_count(b) << ", recount "
                                           << expect[b];
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace jitgc::testing_util
