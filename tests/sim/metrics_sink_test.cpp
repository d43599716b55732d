#include "sim/metrics_sink.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>

namespace jitgc::sim {
namespace {

IntervalRecord sample_record() {
  IntervalRecord r;
  r.interval = 3;
  r.time_s = 15.0;
  r.free_bytes = 12 * MiB;
  r.reclaimable_bytes = 30 * MiB;
  r.c_req_bytes = 5.5e6;
  r.reclaim_target_bytes = 2 * MiB;
  r.urgent_reclaim_bytes = 0;
  r.bgc_reclaimed_bytes = 1 * MiB;
  r.flush_bytes = 4 * MiB;
  r.direct_bytes = 1 * MiB;
  r.fgc_cycles = 2;
  r.idle_us = 1'250'000;
  r.interval_waf = 1.75;
  r.ops = 1500;
  r.p50_latency_us = 120.0;
  r.p99_latency_us = 900.5;
  r.max_latency_us = 2000.0;
  return r;
}

TEST(MetricsSink, IntervalJsonlCarriesEveryField) {
  const std::string line = format_jsonl(7, 99, sample_record());
  EXPECT_EQ(line.rfind("{\"type\":\"interval\"", 0), 0u);
  EXPECT_EQ(line.back(), '}');
  for (const char* token :
       {"\"run\":7", "\"seed\":99", "\"interval\":3", "\"time_s\":15", "\"free_bytes\":",
        "\"reclaimable_bytes\":", "\"c_req_bytes\":5500000", "\"reclaim_target_bytes\":",
        "\"urgent_reclaim_bytes\":0", "\"bgc_reclaimed_bytes\":", "\"flush_bytes\":",
        "\"direct_bytes\":", "\"fgc_cycles\":2", "\"idle_us\":1250000",
        "\"interval_waf\":1.75", "\"ops\":1500", "\"p50_latency_us\":120",
        "\"p99_latency_us\":900.5", "\"max_latency_us\":2000"}) {
    EXPECT_NE(line.find(token), std::string::npos) << token << " missing in " << line;
  }
}

TEST(MetricsSink, RunJsonlIsTaggedAndTyped) {
  SimReport r;
  r.workload = "YCSB";
  r.policy = "JIT-GC";
  r.duration_s = 60.0;
  r.ops_completed = 12345;
  r.waf = 1.5;
  const std::string line = format_jsonl(2, 11, r);
  EXPECT_EQ(line.rfind("{\"type\":\"run\"", 0), 0u);
  EXPECT_NE(line.find("\"run\":2"), std::string::npos);
  EXPECT_NE(line.find("\"seed\":11"), std::string::npos);
  EXPECT_NE(line.find("\"workload\":\"YCSB\""), std::string::npos);
  EXPECT_NE(line.find("\"policy\":\"JIT-GC\""), std::string::npos);
  EXPECT_NE(line.find("\"ops\":12345"), std::string::npos);
  EXPECT_NE(line.find("\"worn_out\":false"), std::string::npos);
}

TEST(MetricsSink, StringsAreEscaped) {
  SimReport r;
  r.workload = "we\"ird\\name";
  const std::string line = format_jsonl(0, 0, r);
  EXPECT_NE(line.find("we\\\"ird\\\\name"), std::string::npos);
}

TEST(MetricsSink, JsonlSinkStreamsIntervalsAndRun) {
  std::ostringstream out;
  JsonlMetricsSink sink(out, 4, 77);
  sink.on_interval(sample_record());
  SimReport report;
  report.workload = "YCSB";
  sink.on_run_end(report);

  const std::string text = out.str();
  EXPECT_NE(text.find("\"type\":\"interval\""), std::string::npos);
  EXPECT_NE(text.find("\"type\":\"run\""), std::string::npos);
  std::size_t lines = 0;
  for (const char c : text) lines += c == '\n';
  EXPECT_EQ(lines, 2u);
}

TEST(MetricsSink, RecordingSinkBuffersInOrder) {
  RecordingMetricsSink sink;
  EXPECT_FALSE(sink.has_report());
  IntervalRecord a = sample_record();
  a.interval = 1;
  IntervalRecord b = sample_record();
  b.interval = 2;
  sink.on_interval(a);
  sink.on_interval(b);
  SimReport r;
  r.ops_completed = 9;
  sink.on_run_end(r);
  ASSERT_EQ(sink.intervals().size(), 2u);
  EXPECT_EQ(sink.intervals()[0].interval, 1u);
  EXPECT_EQ(sink.intervals()[1].interval, 2u);
  ASSERT_TRUE(sink.has_report());
  EXPECT_EQ(sink.report().ops_completed, 9u);
}

// -- Schema: conditional groups and the documentation --------------------------

// Top-level keys of one JSONL line in order, after the type/run/seed tags
// (keys inside nested objects such as tenants[] are skipped).
std::vector<std::string> keys_of(const std::string& line) {
  std::vector<std::string> keys;
  int depth = 0;
  for (std::size_t i = 0; i < line.size(); ++i) {
    if (line[i] == '"') {
      std::size_t end = i + 1;
      while (line[end] != '"') end += line[end] == '\\' ? 2 : 1;
      if (depth == 1 && line[end + 1] == ':') keys.push_back(line.substr(i + 1, end - i - 1));
      i = end;
    } else if (line[i] == '{' || line[i] == '[') {
      ++depth;
    } else if (line[i] == '}' || line[i] == ']') {
      --depth;
    }
  }
  const std::vector<std::string> tags = {"type", "run", "seed"};
  if (keys.size() < tags.size() || !std::equal(tags.begin(), tags.end(), keys.begin())) {
    ADD_FAILURE() << "line does not open with the type/run/seed tags: " << line;
    return {};
  }
  keys.erase(keys.begin(), keys.begin() + tags.size());
  return keys;
}

std::string type_of(const std::string& line) {
  const std::string prefix = "{\"type\":\"";
  EXPECT_EQ(line.rfind(prefix, 0), 0u) << line;
  return line.substr(prefix.size(), line.find('"', prefix.size()) - prefix.size());
}

RecordSchema schema_for(const std::string& type) {
  for (const RecordSchema& schema : metrics_schema()) {
    if (schema.type == type) return schema;
  }
  ADD_FAILURE() << "no schema table for type " << type;
  return {};
}

// One conditional group: a default record (every predicate false) and the
// same record with this group's predicate made true.
struct GroupCase {
  std::string name;
  std::vector<std::string> group;
  std::function<std::string(bool)> line;
};

void PrintTo(const GroupCase& c, std::ostream* os) { *os << c.name; }

template <class R>
GroupCase group_case(std::string name, std::vector<std::string> group, void (*enable)(R&)) {
  return {std::move(name), std::move(group), [enable](bool on) {
            R record;
            if (on) enable(record);
            return format_jsonl(1, 2, record);
          }};
}

const std::vector<GroupCase>& group_cases() {
  static const std::vector<GroupCase> cases = {
      group_case<TenantIntervalRecord>(
          "TenantPrediction", {"predicted_demand_bytes", "sip_pages"},
          [](TenantIntervalRecord& r) { r.predicted_demand_bytes = 0; }),
      group_case<FaultRecord>("FaultDevice", {"device"}, [](FaultRecord& r) { r.device = 0; }),
      group_case<ArrayIntervalRecord>("ArrayState", {"state"},
                                      [](ArrayIntervalRecord& r) { r.state = "degraded"; }),
      group_case<DeviceIntervalRecord>("DeviceRebuildBytes",
                                       {"rebuild_read_bytes", "rebuild_write_bytes"},
                                       [](DeviceIntervalRecord& r) { r.rebuild_write_bytes = 1; }),
      group_case<RecoveryRecord>("RecoveryDevice", {"device"},
                                 [](RecoveryRecord& r) { r.device = 2; }),
      group_case<RecoveryRecord>("RecoveryCheckpointFallback", {"checkpoint_fallback"},
                                 [](RecoveryRecord& r) { r.checkpoint_fallback = true; }),
      group_case<SimReport>("RunEndReason", {"run_end_reason"},
                            [](SimReport& r) { r.run_end_reason = "device_worn_out"; }),
      group_case<SimReport>("RunProgramFailures", {"program_failures"},
                            [](SimReport& r) { r.program_failures = 1; }),
      group_case<SimReport>("RunEraseFailures", {"erase_failures"},
                            [](SimReport& r) { r.erase_failures = 1; }),
      group_case<SimReport>("RunGrownBadBlocks", {"grown_bad_blocks"},
                            [](SimReport& r) { r.grown_bad_blocks = 1; }),
      group_case<SimReport>("RunSparesPromoted", {"spares_promoted"},
                            [](SimReport& r) { r.spares_promoted = 1; }),
      group_case<SimReport>("RunRedundancyBlock",
                            {"device_failures", "rebuilds_completed", "rebuild_read_bytes",
                             "rebuild_write_bytes", "rebuild_time_s", "degraded_time_s",
                             "degraded_write_p99_latency_us"},
                            [](SimReport& r) { r.device_failures = 1; }),
      group_case<SimReport>("RunSpoBlock",
                            {"spo_events", "recovery_scanned_pages", "recovery_time_s",
                             "recovery_lost_mappings", "recovery_resurrected_mappings",
                             "integrity_reads_verified", "integrity_stale_reads"},
                            [](SimReport& r) { r.spo_events = 1; }),
      group_case<SimReport>("RunTenants", {"tenants"},
                            [](SimReport& r) { r.tenants.resize(2); }),
      group_case<SimReport>("RunSnapshotPair", {"snapshot", "precondition_wall_s"},
                            [](SimReport& r) { r.snapshot_source = "cold"; }),
  };
  return cases;
}

class FormatterGroup : public ::testing::TestWithParam<GroupCase> {};

TEST_P(FormatterGroup, AppearsWholeInTableOrderOnlyWhenItsPredicateHolds) {
  const GroupCase& c = GetParam();
  const std::string off = c.line(false);
  const RecordSchema schema = schema_for(type_of(off));
  std::vector<std::string> unconditional;
  std::vector<std::string> with_group;
  for (const SchemaField& f : schema.fields) {
    const bool in_group = std::count(c.group.begin(), c.group.end(), f.name) > 0;
    if (in_group) {
      EXPECT_TRUE(f.conditional) << f.name;
    }
    if (!f.conditional) unconditional.push_back(f.name);
    if (!f.conditional || in_group) with_group.push_back(f.name);
  }
  EXPECT_EQ(keys_of(off), unconditional);
  const std::vector<std::string> on = keys_of(c.line(true));
  EXPECT_EQ(on, with_group);
  // A pair or block is one contiguous run of the line.
  const std::size_t at = std::find(on.begin(), on.end(), c.group.front()) - on.begin();
  ASSERT_LE(at + c.group.size(), on.size());
  EXPECT_EQ(std::vector<std::string>(on.begin() + at, on.begin() + at + c.group.size()), c.group);
}

INSTANTIATE_TEST_SUITE_P(Groups, FormatterGroup, ::testing::ValuesIn(group_cases()),
                         [](const auto& info) { return info.param.name; });

TEST(MetricsSchema, GroupCasesCoverEveryConditionalField) {
  std::map<std::string, std::set<std::string>> covered;
  for (const GroupCase& c : group_cases()) {
    covered[type_of(c.line(false))].insert(c.group.begin(), c.group.end());
  }
  for (const RecordSchema& schema : metrics_schema()) {
    std::set<std::string> conditional;
    for (const SchemaField& f : schema.fields) {
      if (f.conditional) conditional.insert(f.name);
    }
    EXPECT_EQ(covered[schema.type], conditional) << schema.type;
  }
}

TEST(MetricsSchema, SnapshotPairStaysLastWithEveryRunGroup) {
  SimReport r;
  r.run_end_reason = "array_data_loss";
  r.program_failures = r.erase_failures = r.grown_bad_blocks = r.spares_promoted = 1;
  r.device_failures = r.spo_events = 1;
  r.tenants.resize(1);
  r.snapshot_source = "warm_disk";
  std::vector<std::string> all;
  for (const SchemaField& f : schema_for("run").fields) all.push_back(f.name);
  const std::vector<std::string> keys = keys_of(format_jsonl(0, 0, r));
  EXPECT_EQ(keys, all);
  ASSERT_GE(keys.size(), 2u);
  EXPECT_EQ(keys[keys.size() - 2], "snapshot");
  EXPECT_EQ(keys.back(), "precondition_wall_s");
}

// Field names documented per record type: the first cell of every table row
// in a `## {"type":"X", ...}` section, with a `### `name`` subsection (the
// run record's `tenants[]`) collected under its own name.
std::map<std::string, std::set<std::string>> documented_fields(std::istream& doc) {
  // The text after the first `open` in `line`, up to the next `close`.
  const auto after = [](const std::string& line, const std::string& open, char close) {
    const std::size_t at = line.find(open);
    if (at == std::string::npos) return std::string();
    const std::size_t start = at + open.size();
    return line.substr(start, line.find(close, start) - start);
  };
  std::map<std::string, std::set<std::string>> fields;
  std::string section;
  std::string line;
  while (std::getline(doc, line)) {
    if (line.rfind("## ", 0) == 0) {
      section = after(line, "{\"type\":\"", '"');
    } else if (line.rfind("### ", 0) == 0) {
      section = after(line, "`", '`');
    } else if (!section.empty() && line.rfind("| `", 0) == 0) {
      // Backticks split the first cell; every second piece is a name.
      std::istringstream cell(line.substr(0, line.find('|', 1)));
      std::string piece;
      for (bool name = false; std::getline(cell, piece, '`'); name = !name) {
        if (name) fields[section].insert(piece);
      }
    }
  }
  return fields;
}

TEST(MetricsSchema, DocTablesMatchTable) {
  std::ifstream doc(std::string(JITGC_SOURCE_DIR) + "/docs/metrics_schema.md");
  ASSERT_TRUE(doc) << "docs/metrics_schema.md not found under " << JITGC_SOURCE_DIR;
  std::map<std::string, std::set<std::string>> documented = documented_fields(doc);
  for (const RecordSchema& schema : metrics_schema()) {
    std::set<std::string> emitted;
    for (const SchemaField& f : schema.fields) emitted.insert(f.name);
    EXPECT_EQ(documented[schema.type], emitted) << "docs/metrics_schema.md, " << schema.type;
    documented.erase(schema.type);
  }
  // Every documented field table belongs to a record type the sinks emit.
  for (const auto& [type, names] : documented) ADD_FAILURE() << "no schema table for " << type;
}

}  // namespace
}  // namespace jitgc::sim
