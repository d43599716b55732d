// Oracle for the extended collector's per-block SIP counts: a from-scratch
// recount of the FTL's SIP index through its L2P map
// (Ftl::recount_sip_pages(), which Ftl::check_invariants() uses too). It
// shares no code with the FTL's incremental bookkeeping, so a missed
// increment or decrement anywhere (host write, trim, GC, wear leveling,
// retirement) shows up as a mismatch.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "ftl/ftl.h"

namespace jitgc::testing_util {

/// Passes when every block's block_sip_count() equals the number of SIP
/// LBAs currently mapped to it.
inline ::testing::AssertionResult sip_counts_exact(const ftl::Ftl& ftl) {
  const std::vector<std::uint32_t> expect = ftl.recount_sip_pages();
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
