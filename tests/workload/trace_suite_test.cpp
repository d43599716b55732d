#include "workload/trace_suite.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "temp_path.h"

namespace jitgc::wl {
namespace {

TEST(TraceSuite, FourProfilesWithDistinctCharacters) {
  const auto profiles = msr_profiles();
  ASSERT_EQ(profiles.size(), 4u);
  // Documented headline stats: prxy write-dominant, web read-dominant.
  EXPECT_GT(msr_proxy_profile().write_fraction, 0.9);
  EXPECT_LT(msr_web_profile().write_fraction, 0.4);
  EXPECT_GT(msr_source_control_profile().sequential_fraction,
            msr_proxy_profile().sequential_fraction);
}

TEST(TraceSuite, RealizedWriteFractionMatchesProfile) {
  for (const auto& profile : msr_profiles()) {
    const auto records = synthesize_trace(profile, seconds(120), 7);
    ASSERT_GT(records.size(), 1000u) << profile.name;
    int writes = 0;
    for (const auto& rec : records) writes += (rec.type == OpType::kWrite);
    EXPECT_NEAR(static_cast<double>(writes) / static_cast<double>(records.size()),
                profile.write_fraction, 0.03)
        << profile.name;
  }
}

TEST(TraceSuite, OffsetsAndSizesWithinFootprint) {
  const TraceProfile profile = msr_exchange_profile();
  const Bytes limit = static_cast<Bytes>(profile.footprint_pages) * 4096;
  for (const auto& rec : synthesize_trace(profile, seconds(60), 3)) {
    EXPECT_LE(rec.offset + rec.size, limit);
    EXPECT_GE(rec.size, profile.min_io_pages * 4096u);
    EXPECT_LE(rec.size, profile.max_io_pages * 4096u);
  }
}

TEST(TraceSuite, TimestampsMonotoneAndSpanDuration) {
  const auto records = synthesize_trace(msr_web_profile(), seconds(100), 11);
  TimeUs prev = 0;
  for (const auto& rec : records) {
    EXPECT_GE(rec.timestamp, prev);
    prev = rec.timestamp;
  }
  EXPECT_GT(prev, seconds(50));   // the trace covers most of the window
  EXPECT_LT(prev, seconds(100));  // and stops at the duration
}

TEST(TraceSuite, DeterministicInSeed) {
  const auto a = synthesize_trace(msr_proxy_profile(), seconds(30), 42);
  const auto b = synthesize_trace(msr_proxy_profile(), seconds(30), 42);
  const auto c = synthesize_trace(msr_proxy_profile(), seconds(30), 43);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a[100].offset, b[100].offset);
  EXPECT_NE(a.size(), c.size());
}

TEST(TraceSuite, RoundTripsThroughMsrCsv) {
  const std::string path = testing_util::unique_temp_path("roundtrip.csv");
  const auto records = synthesize_trace(msr_exchange_profile(), seconds(10), 5);
  write_msr_trace(path, records);
  const auto parsed = read_msr_trace(path);
  ASSERT_EQ(parsed.size(), records.size());
  EXPECT_EQ(parsed.back().offset, records.back().offset);
  EXPECT_EQ(parsed.back().timestamp, records.back().timestamp);
  std::remove(path.c_str());
}

TEST(TraceSuite, ReplaysThroughTraceWorkload) {
  const auto records = synthesize_trace(msr_proxy_profile(), seconds(20), 9);
  TraceWorkload gen("prxy", records, TraceReplayOptions{});
  std::size_t count = 0;
  while (auto op = gen.next()) {
    ASSERT_LE(op->lba + op->pages, gen.footprint_pages());
    ++count;
  }
  EXPECT_EQ(count, records.size());
}

}  // namespace
}  // namespace jitgc::wl
