#include "workload/file_workload.h"
#include "workload/specs.h"
#include "workload/synthetic.h"
#include "workload/trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

#include "temp_path.h"

namespace jitgc::wl {
namespace {

class TraceFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = testing_util::unique_temp_path("trace.csv");
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void write_file(const std::string& content) {
    std::ofstream out(path_);
    out << content;
  }

  std::string path_;
};

TEST_F(TraceFileTest, ParsesMsrFormat) {
  // Timestamps in Windows 100-ns ticks: 10 ticks = 1 us.
  write_file(
      "128166372003061629,web,0,Write,8192,4096,151\n"
      "128166372003061729,web,0,Read,16384,8192,301\n");
  const auto records = read_msr_trace(path_);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].timestamp, 0);  // rebased
  EXPECT_EQ(records[0].type, OpType::kWrite);
  EXPECT_EQ(records[0].offset, 8192u);
  EXPECT_EQ(records[0].size, 4096u);
  EXPECT_EQ(records[1].timestamp, 10);  // 100 ticks = 10 us
  EXPECT_EQ(records[1].type, OpType::kRead);
}

TEST_F(TraceFileTest, SkipsEmptyLines) {
  write_file("100,h,0,Write,0,512,0\n\n200,h,0,Write,512,512,0\n");
  EXPECT_EQ(read_msr_trace(path_).size(), 2u);
}

TEST_F(TraceFileTest, RejectsMalformedLine) {
  write_file("not,a,trace\n");
  EXPECT_THROW(read_msr_trace(path_), std::runtime_error);
}

TEST_F(TraceFileTest, RejectsUnknownOpType) {
  write_file("100,h,0,Flush,0,512,0\n");
  EXPECT_THROW(read_msr_trace(path_), std::runtime_error);
}

// Corrupt traces must be diagnosable: every parse error names the file and
// the 1-based line the corruption sits on, like a compiler would.
TEST_F(TraceFileTest, ErrorsCarryFileAndOneBasedLineNumber) {
  const auto error_for = [&](const std::string& content) -> std::string {
    write_file(content);
    try {
      read_msr_trace(path_);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "";
  };

  // Corruption on the very first line reports line 1, not 0.
  const std::string first = error_for("garbage,without,enough,fields\n");
  EXPECT_NE(first.find(path_), std::string::npos) << first;
  EXPECT_NE(first.find("line 1"), std::string::npos) << first;

  // A good line followed by a bad one reports line 2.
  const std::string second =
      error_for("100,h,0,Write,0,512,0\n100,h,0,Write,xyz,512,0\n");
  EXPECT_NE(second.find("line 2"), std::string::npos) << second;
  EXPECT_NE(second.find("offset"), std::string::npos) << second;  // names the field
  EXPECT_NE(second.find("xyz"), std::string::npos) << second;     // and the value

  // Blank lines still count toward the line number editors show.
  const std::string after_blank =
      error_for("100,h,0,Write,0,512,0\n\n\n100,h,0,Flush,0,512,0\n");
  EXPECT_NE(after_blank.find("line 4"), std::string::npos) << after_blank;
  EXPECT_NE(after_blank.find("Flush"), std::string::npos) << after_blank;

  // Bad timestamp and bad size name their fields too.
  EXPECT_NE(error_for("t1me,h,0,Write,0,512,0\n").find("timestamp"), std::string::npos);
  EXPECT_NE(error_for("100,h,0,Write,0,-512,0\n").find("size"), std::string::npos);
}

TEST_F(TraceFileTest, MissingFileThrows) {
  EXPECT_THROW(read_msr_trace("/nonexistent/trace.csv"), std::runtime_error);
}

TEST_F(TraceFileTest, RoundTripWriteRead) {
  std::vector<TraceRecord> records{
      {0, OpType::kWrite, 4096, 8192},
      {1500, OpType::kRead, 0, 4096},
      {3000, OpType::kWrite, 1 * MiB, 64 * KiB},
  };
  write_msr_trace(path_, records);
  const auto parsed = read_msr_trace(path_);
  ASSERT_EQ(parsed.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(parsed[i].timestamp, records[i].timestamp);
    EXPECT_EQ(parsed[i].type, records[i].type);
    EXPECT_EQ(parsed[i].offset, records[i].offset);
    EXPECT_EQ(parsed[i].size, records[i].size);
  }
}

TEST(TraceWorkload, ReplaysRecordsInOrder) {
  std::vector<TraceRecord> records{
      {0, OpType::kWrite, 0, 8192},       // 2 pages at lba 0
      {1000, OpType::kRead, 4096, 4096},  // 1 page at lba 1
      {5000, OpType::kWrite, 40960, 4096},
  };
  TraceWorkload gen("t", records, TraceReplayOptions{});

  auto op = gen.next();
  ASSERT_TRUE(op);
  EXPECT_EQ(op->think_us, 0);
  EXPECT_EQ(op->type, OpType::kWrite);
  EXPECT_TRUE(op->direct);  // block traces replay as direct by default
  EXPECT_EQ(op->lba, 0u);
  EXPECT_EQ(op->pages, 2u);

  op = gen.next();
  ASSERT_TRUE(op);
  EXPECT_EQ(op->think_us, 1000);
  EXPECT_EQ(op->type, OpType::kRead);
  EXPECT_EQ(op->lba, 1u);

  op = gen.next();
  ASSERT_TRUE(op);
  EXPECT_EQ(op->think_us, 4000);

  EXPECT_FALSE(gen.next());  // exhausted
  EXPECT_EQ(gen.records_replayed(), 3u);
}

TEST(TraceWorkload, FootprintDerivedFromMaxOffset) {
  std::vector<TraceRecord> records{{0, OpType::kWrite, 100 * 4096, 4096}};
  TraceWorkload gen("t", records, TraceReplayOptions{});
  EXPECT_EQ(gen.footprint_pages(), 101u);
}

TEST(TraceWorkload, OffsetsWrapIntoUserPages) {
  TraceReplayOptions opts;
  opts.user_pages = 10;
  std::vector<TraceRecord> records{{0, OpType::kWrite, 25 * 4096, 4096}};
  TraceWorkload gen("t", records, opts);
  const auto op = gen.next();
  ASSERT_TRUE(op);
  EXPECT_LT(op->lba, 10u);
}

TEST(TraceWorkload, BufferedFractionResynthesis) {
  std::vector<TraceRecord> records;
  for (int i = 0; i < 2000; ++i) {
    records.push_back({i * 100, OpType::kWrite, static_cast<Bytes>(i) * 4096, 4096});
  }
  TraceReplayOptions opts;
  opts.buffered_fraction = 0.5;
  TraceWorkload gen("t", records, opts);
  int buffered = 0;
  while (auto op = gen.next()) buffered += !op->direct;
  EXPECT_NEAR(buffered / 2000.0, 0.5, 0.06);
}

TEST(RecordWorkload, CapturesSyntheticStreamFaithfully) {
  SyntheticWorkload gen(postmark_spec(), 50'000, 9);
  const auto records = record_workload(gen, seconds(30));
  ASSERT_GT(records.size(), 100u);

  // Timestamps are the accumulated think times, monotone, within duration.
  TimeUs prev = 0;
  for (const auto& rec : records) {
    EXPECT_GE(rec.timestamp, prev);
    prev = rec.timestamp;
    EXPECT_GE(rec.size, 4096u);
  }
  EXPECT_LT(prev, seconds(30));

  // The recorded stream replays deterministically: same spec/seed recorded
  // again produces identical records.
  SyntheticWorkload gen2(postmark_spec(), 50'000, 9);
  const auto records2 = record_workload(gen2, seconds(30));
  ASSERT_EQ(records.size(), records2.size());
  EXPECT_EQ(records.back().offset, records2.back().offset);
}

TEST(RecordWorkload, DropsTrims) {
  FileWorkload gen(mail_server_spec(), 50'000, 3);
  const auto records = record_workload(gen, seconds(30));
  ASSERT_GT(records.size(), 100u);
  for (const auto& rec : records) {
    EXPECT_TRUE(rec.type == OpType::kWrite || rec.type == OpType::kRead);
  }
}

TEST(RecordWorkload, RoundTripsThroughReplay) {
  // record -> write CSV -> read -> replay: the replayed op count matches.
  SyntheticWorkload gen(ycsb_spec(), 20'000, 4);
  const auto records = record_workload(gen, seconds(10));
  const std::string path = testing_util::unique_temp_path("recorded.csv");
  write_msr_trace(path, records);
  const auto parsed = read_msr_trace(path);
  ASSERT_EQ(parsed.size(), records.size());
  TraceWorkload replay("recorded", parsed, TraceReplayOptions{});
  std::size_t count = 0;
  while (replay.next()) ++count;
  EXPECT_EQ(count, records.size());
  std::remove(path.c_str());
}

TEST(TraceWorkload, MultiPageRequestsClampedToFootprint) {
  std::vector<TraceRecord> records{
      {0, OpType::kWrite, 0, 64 * KiB},
      {10, OpType::kWrite, 4 * 4096, 64 * KiB},  // extends past record 0's end
  };
  TraceWorkload gen("t", records, TraceReplayOptions{});
  while (auto op = gen.next()) {
    EXPECT_LE(op->lba + op->pages, gen.footprint_pages());
  }
}

}  // namespace
}  // namespace jitgc::wl
