/// \file test_bench_json.cpp
/// Drives the real bench binaries (paths injected by CMake, like
/// FETCH_CLI_PATH for test_cli) in --smoke --json mode and checks the
/// machine-readable output: schema shape, write → parse round trip, and —
/// because JSON numbers carry the exact strings printed in the table —
/// that every JSON value also appears in the human-readable stdout row it
/// came from.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace fetch {
namespace {

struct RunResult {
  int exit_code = -1;
  std::string stdout_text;
};

RunResult run_command(const std::string& command) {
  RunResult result;
  FILE* pipe = ::popen((command + " 2>/dev/null").c_str(), "r");
  if (pipe == nullptr) {
    return result;
  }
  char buffer[4096];
  while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) {
    result.stdout_text += buffer;
  }
  result.exit_code = ::pclose(pipe);
  return result;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    lines.push_back(line);
  }
  return lines;
}

/// The stdout line containing \p needle, or empty.
std::string find_line(const std::vector<std::string>& lines,
                      const std::string& needle) {
  for (const std::string& line : lines) {
    if (line.find(needle) != std::string::npos) {
      return line;
    }
  }
  return {};
}

util::json::Value load_report(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto parsed = util::json::Value::parse(buffer.str());
  EXPECT_TRUE(parsed.has_value()) << "unparseable JSON report: " << path;
  return parsed ? *parsed : util::json::Value();
}

void check_header(const util::json::Value& doc, const std::string& bench) {
  ASSERT_TRUE(doc.is_object());
  ASSERT_NE(doc.get("schema"), nullptr);
  EXPECT_EQ(doc.get("schema")->text(), "fetch-bench-v1");
  ASSERT_NE(doc.get("bench"), nullptr);
  EXPECT_EQ(doc.get("bench")->text(), bench);
  ASSERT_NE(doc.get("scale"), nullptr);
  EXPECT_EQ(doc.get("scale")->text(), "smoke");
  ASSERT_NE(doc.get("jobs"), nullptr);
  EXPECT_DOUBLE_EQ(doc.get("jobs")->as_double(), 2.0);
}

void check_round_trip(const util::json::Value& doc) {
  const std::string text = doc.dump();
  const auto reparsed = util::json::Value::parse(text);
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_TRUE(*reparsed == doc);
  EXPECT_EQ(reparsed->dump(), text);
}

#ifdef BENCH_MICRO_PATH

TEST(BenchJson, MicroSchemaAndTableAgree) {
  const std::string json_path =
      ::testing::TempDir() + "/bench_micro_smoke.json";
  const RunResult run = run_command(std::string(BENCH_MICRO_PATH) +
                                    " --smoke --jobs 2 --json " + json_path);
  ASSERT_EQ(run.exit_code, 0) << run.stdout_text;

  const util::json::Value doc = load_report(json_path);
  check_header(doc, "bench_micro");
  check_round_trip(doc);

  const util::json::Value* results = doc.get("results");
  ASSERT_NE(results, nullptr);
  ASSERT_TRUE(results->is_array());

  // The rows the perf acceptance criteria read must exist...
  for (const char* required :
       {"step_at_warm_dense", "step_at_cold_dense", "decode_throughput",
        "cache_hit_rate"}) {
    bool found = false;
    for (const util::json::Value& row : results->items()) {
      if (row.get("name") != nullptr && row.get("name")->text() == required) {
        found = true;
        EXPECT_GT(row.get("value")->as_double(), 0.0) << required;
      }
    }
    EXPECT_TRUE(found) << "missing result row: " << required;
  }

  // ...and every JSON value must match the human-readable table: the row
  // line naming the metric carries the identical formatted number.
  const auto lines = lines_of(run.stdout_text);
  for (const util::json::Value& row : results->items()) {
    const std::string& name = row.get("name")->text();
    const std::string line = find_line(lines, name);
    ASSERT_FALSE(line.empty()) << "metric missing from table: " << name;
    EXPECT_NE(line.find(row.get("value")->text()), std::string::npos)
        << "JSON value " << row.get("value")->text()
        << " not in table row: " << line;
    EXPECT_NE(line.find(row.get("unit")->text()), std::string::npos);
  }
}

#else
TEST(BenchJson, MicroSchemaAndTableAgree) {
  GTEST_SKIP() << "bench_micro not built (google-benchmark missing)";
}
#endif

#ifdef BENCH_TABLE5_PATH

TEST(BenchJson, Table5TotalsMatchTable) {
  const std::string json_path =
      ::testing::TempDir() + "/bench_table5_smoke.json";
  const RunResult run = run_command(std::string(BENCH_TABLE5_PATH) +
                                    " --smoke --jobs 2 --json " + json_path);
  ASSERT_EQ(run.exit_code, 0) << run.stdout_text;

  const util::json::Value doc = load_report(json_path);
  check_header(doc, "bench_table5_runtime");
  check_round_trip(doc);

  const util::json::Value* results = doc.get("results");
  ASSERT_NE(results, nullptr);
  ASSERT_TRUE(results->is_array());
  EXPECT_GE(results->items().size(), 9u);  // 9 tools incl. FETCH

  const auto lines = lines_of(run.stdout_text);
  bool saw_fetch = false;
  for (const util::json::Value& row : results->items()) {
    const std::string& tool = row.get("tool")->text();
    saw_fetch = saw_fetch || tool == "FETCH";
    const std::string line = find_line(lines, tool);
    ASSERT_FALSE(line.empty()) << "tool missing from table: " << tool;
    EXPECT_NE(line.find(row.get("avg_ms_per_binary")->text()),
              std::string::npos)
        << tool << ": avg not in row " << line;
    EXPECT_NE(line.find(row.get("total_s")->text()), std::string::npos)
        << tool << ": total not in row " << line;
  }
  EXPECT_TRUE(saw_fetch);
}

#else
TEST(BenchJson, Table5TotalsMatchTable) {
  GTEST_SKIP() << "bench_table5_runtime not built";
}
#endif

}  // namespace
}  // namespace fetch
