/// \file test_exp_spec.cpp
/// The experiment subsystem's contracts: the checked-in smoke spec
/// expands to an EXACT, ordered invocation list (pinned here, so any
/// edit to the spec or the expansion logic must touch this file too),
/// the spec hash is a pure function of spec content, tolerance policies
/// honor direction / absolute floors / warn-only marks, and the
/// trajectory store appends without rewriting history, also to the
/// checked-in BENCH_trajectory.json.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "exp/spec.hpp"
#include "exp/tolerance.hpp"
#include "exp/trajectory.hpp"
#include "util/json.hpp"
#include "util/json_schema.hpp"

namespace fetch::exp {
namespace {

using util::json::Value;

ExpSpec parse_spec(const std::string& text) {
  auto doc = Value::parse(text);
  EXPECT_TRUE(doc.has_value());
  std::string error;
  auto spec = ExpSpec::parse(*doc, &error);
  EXPECT_TRUE(spec.has_value()) << error;
  return spec ? *spec : ExpSpec{};
}

/// A two-strategy, multi-axis spec used by the ordering and hash tests.
const char* kMatrixSpec = R"({
  "schema": "fetch-exp-v1",
  "name": "unit",
  "strategies": [
    {"name": "a", "bench": "bench_a", "baseline": "a.json"},
    {"name": "b", "bench": "bench_b", "args": ["--socket", "/tmp/x"]}
  ],
  "scales": ["smoke", "default"],
  "jobs": [1, 4]
})";

// --- Spec expansion ---------------------------------------------------------

#ifdef FETCH_EXPERIMENTS_DIR

TEST(ExpSpec, CheckedInSmokeSpecExpansionIsPinned) {
  std::string error;
  auto spec = ExpSpec::load(
      std::string(FETCH_EXPERIMENTS_DIR) + "/smoke.json", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->name(), "smoke");

  const std::vector<Invocation> matrix = spec->expand();
  ASSERT_EQ(matrix.size(), 3u);
  EXPECT_EQ(matrix[0].render(),
            "hotpath.smoke.j2: bench_micro --scale smoke --jobs 2");
  EXPECT_EQ(matrix[1].render(),
            "runtime.smoke.j2: bench_table5_runtime --scale smoke "
            "--jobs 2");
  EXPECT_EQ(matrix[2].render(),
            "service.smoke.j2: bench_service_throughput --scale "
            "smoke --jobs 2");
  EXPECT_EQ(matrix[0].baseline, "bench_micro_smoke.json");
  EXPECT_EQ(matrix[1].baseline, "");
  EXPECT_EQ(matrix[2].baseline, "bench_service_smoke.json");
}

TEST(ExpSpec, CheckedInNightlySpecParsesAndHasNoGates) {
  std::string error;
  auto spec = ExpSpec::load(
      std::string(FETCH_EXPERIMENTS_DIR) + "/nightly.json", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  const std::vector<Invocation> matrix = spec->expand();
  EXPECT_EQ(matrix.size(), 3u * 2u);  // strategies x jobs
  for (const Invocation& inv : matrix) {
    EXPECT_EQ(inv.baseline, "") << inv.id;  // nightly never blocks
    EXPECT_EQ(inv.scale, "default") << inv.id;
  }
}

#endif  // FETCH_EXPERIMENTS_DIR

TEST(ExpSpec, ExpansionOrderIsStrategyScaleJobs) {
  const ExpSpec spec = parse_spec(kMatrixSpec);
  const std::vector<Invocation> matrix = spec.expand();
  ASSERT_EQ(matrix.size(), 2u * 2u * 2u);
  // Innermost axis first: jobs flips fastest, strategy slowest.
  EXPECT_EQ(matrix[0].id, "a.smoke.j1");
  EXPECT_EQ(matrix[1].id, "a.smoke.j4");
  EXPECT_EQ(matrix[2].id, "a.default.j1");
  EXPECT_EQ(matrix[4].id, "b.smoke.j1");
  EXPECT_EQ(matrix[1].render(), "a.smoke.j4: bench_a --scale smoke --jobs 4");
  // The strategy's fixed args ride after the axis flags.
  EXPECT_EQ(matrix[4].render(),
            "b.smoke.j1: bench_b --scale smoke --jobs 1 --socket /tmp/x");
}

TEST(ExpSpec, ExpansionIsAPureFunctionOfTheSpec) {
  const ExpSpec spec = parse_spec(kMatrixSpec);
  const auto first = spec.expand();
  const auto second = spec.expand();
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].render(), second[i].render());
  }
}

// --- Spec hash --------------------------------------------------------------

TEST(ExpSpec, HashIsStableAcrossReparse) {
  const ExpSpec a = parse_spec(kMatrixSpec);
  const ExpSpec b = parse_spec(kMatrixSpec);
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_EQ(a.hash_hex().size(), 16u);
}

TEST(ExpSpec, HashIsSensitiveToEveryAxis) {
  const ExpSpec base = parse_spec(kMatrixSpec);
  const std::vector<std::pair<std::string, std::string>> edits = {
      {"\"name\": \"unit\"", "\"name\": \"unit2\""},
      {"\"scales\": [\"smoke\", \"default\"]", "\"scales\": [\"smoke\"]"},
      {"\"jobs\": [1, 4]", "\"jobs\": [1, 8]"},
      {"\"jobs\": [1, 4]", "\"jobs\": [4, 1]"},
      {"\"bench\": \"bench_a\"", "\"bench\": \"bench_a2\""},
      {"\"baseline\": \"a.json\"", "\"baseline\": \"a2.json\""},
      {"\"args\": [\"--socket\", \"/tmp/x\"]",
       "\"args\": [\"--socket\", \"/tmp/y\"]"}};
  for (const auto& [from, to] : edits) {
    std::string text = kMatrixSpec;
    const std::size_t at = text.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    text.replace(at, from.size(), to);
    const ExpSpec edited = parse_spec(text);
    EXPECT_NE(edited.hash(), base.hash()) << "edit had no effect: " << from;
  }
}

TEST(ExpSpec, RejectsMalformedSpecs) {
  std::string error;
  auto bad_schema = Value::parse(R"({"schema": "fetch-bench-v1"})");
  EXPECT_FALSE(ExpSpec::parse(*bad_schema, &error).has_value());

  auto bad_scale = Value::parse(R"({
    "schema": "fetch-exp-v1", "name": "x",
    "strategies": [{"name": "a", "bench": "b"}],
    "scales": ["gigantic"], "jobs": [1]})");
  EXPECT_FALSE(ExpSpec::parse(*bad_scale, &error).has_value());
  EXPECT_NE(error.find("smoke|default|full"), std::string::npos);

  auto bad_jobs = Value::parse(R"({
    "schema": "fetch-exp-v1", "name": "x",
    "strategies": [{"name": "a", "bench": "b"}],
    "scales": ["smoke"], "jobs": [0]})");
  EXPECT_FALSE(ExpSpec::parse(*bad_jobs, &error).has_value());

  auto empty_axis = Value::parse(R"({
    "schema": "fetch-exp-v1", "name": "x",
    "strategies": [{"name": "a", "bench": "b"}],
    "scales": [], "jobs": [1]})");
  EXPECT_FALSE(ExpSpec::parse(*empty_axis, &error).has_value());
}

TEST(ExpSpec, RejectsUnknownKeysByName) {
  // A stale spec that still sweeps a removed axis, or a misspelled key,
  // must fail loudly instead of running part of the matrix it describes
  // or dropping a cell's gate.
  const std::vector<std::pair<std::string, std::string>> edits = {
      {"\"jobs\": [1, 4]", "\"job\": [1, 4]"},
      {"\"jobs\": [1, 4]", "\"jobs\": [1, 4], \"cache\": [false, true]"},
      {"\"jobs\": [1, 4]",
       "\"jobs\": [1, 4], \"warm_decode\": [false, true]"},
      {"\"baseline\": \"a.json\"", "\"basline\": \"a.json\""}};
  const std::vector<std::string> errors = {
      "spec: unknown key \"job\"", "spec: unknown key \"cache\"",
      "spec: unknown key \"warm_decode\"",
      "strategies[0]: unknown key \"basline\""};
  for (std::size_t i = 0; i < edits.size(); ++i) {
    std::string text = kMatrixSpec;
    text.replace(text.find(edits[i].first), edits[i].first.size(),
                 edits[i].second);
    auto doc = Value::parse(text);
    ASSERT_TRUE(doc.has_value()) << text;
    std::string error;
    EXPECT_FALSE(ExpSpec::parse(*doc, &error).has_value()) << text;
    EXPECT_EQ(error, errors[i]);
  }
}

// --- Tolerance policy -------------------------------------------------------

TEST(Tolerance, DirectionHigherNeverFlagsImprovements) {
  MetricPolicy policy;
  policy.max_ratio = 2.0;
  policy.direction = Direction::kHigher;
  EXPECT_EQ(judge(10.0, 100.0, policy), VerdictStatus::kOk);  // way up: fine
  EXPECT_EQ(judge(10.0, 6.0, policy), VerdictStatus::kOk);    // inside band
  EXPECT_EQ(judge(10.0, 4.0, policy), VerdictStatus::kRegressed);  // dropped
}

TEST(Tolerance, DirectionLowerNeverFlagsImprovements) {
  MetricPolicy policy;
  policy.max_ratio = 2.0;
  policy.direction = Direction::kLower;
  EXPECT_EQ(judge(10.0, 0.1, policy), VerdictStatus::kOk);  // way down: fine
  EXPECT_EQ(judge(10.0, 19.0, policy), VerdictStatus::kOk);
  EXPECT_EQ(judge(10.0, 21.0, policy), VerdictStatus::kRegressed);
}

TEST(Tolerance, AbsoluteFloorAbsorbsSmallMoves) {
  MetricPolicy policy;
  policy.max_ratio = 2.0;
  policy.direction = Direction::kLower;
  policy.abs_slack = 5.0;
  // 0.9ms -> 4.5ms is a 5x ratio but only 3.6 units — inside the floor.
  EXPECT_EQ(judge(0.9, 4.5, policy), VerdictStatus::kOk);
  EXPECT_EQ(judge(0.9, 50.0, policy), VerdictStatus::kRegressed);
}

TEST(Tolerance, WarnOnlyMetricsNeverFailTheGate) {
  MetricPolicy policy;
  policy.max_ratio = 2.0;
  policy.warn_only = true;
  EXPECT_EQ(judge(10.0, 100.0, policy), VerdictStatus::kWarn);
}

TEST(Tolerance, UnusableBaselineIsSkipped) {
  EXPECT_EQ(judge(0.0, 5.0, MetricPolicy{}), VerdictStatus::kSkipped);
  EXPECT_EQ(judge(-1.0, 5.0, MetricPolicy{}), VerdictStatus::kSkipped);
}

TolerancePolicy parse_policy_doc(const std::string& text) {
  auto doc = Value::parse(text);
  EXPECT_TRUE(doc.has_value());
  std::string error;
  auto policy = TolerancePolicy::parse(*doc, &error);
  EXPECT_TRUE(policy.has_value()) << error;
  return policy ? *policy : TolerancePolicy::flat(3.0);
}

TEST(Tolerance, PerMetricConfigInheritsFromDefault) {
  const TolerancePolicy policy = parse_policy_doc(R"({
    "schema": "fetch-tol-v1",
    "default": {"max_ratio": 2.0, "direction": "lower"},
    "metrics": {
      "qps": {"direction": "higher"},
      "p99": {"warn_only": true}
    }})");
  EXPECT_EQ(policy.for_metric("qps").direction, Direction::kHigher);
  EXPECT_DOUBLE_EQ(policy.for_metric("qps").max_ratio, 2.0);  // inherited
  EXPECT_TRUE(policy.for_metric("p99").warn_only);
  EXPECT_EQ(policy.for_metric("p99").direction, Direction::kLower);
  // Unlisted metric falls back to the default block.
  EXPECT_EQ(policy.for_metric("anything").direction, Direction::kLower);
  EXPECT_FALSE(policy.for_metric("anything").warn_only);
}

TEST(Tolerance, RejectsBadConfigs) {
  std::string error;
  auto bad_ratio = Value::parse(
      R"({"schema": "fetch-tol-v1", "default": {"max_ratio": 0.5}})");
  EXPECT_FALSE(TolerancePolicy::parse(*bad_ratio, &error).has_value());
  auto bad_dir = Value::parse(
      R"({"schema": "fetch-tol-v1", "default": {"direction": "up"}})");
  EXPECT_FALSE(TolerancePolicy::parse(*bad_dir, &error).has_value());
  auto bad_schema = Value::parse(R"({"schema": "fetch-exp-v1"})");
  EXPECT_FALSE(TolerancePolicy::parse(*bad_schema, &error).has_value());
}

#ifdef FETCH_TOLERANCES_PATH

TEST(Tolerance, CheckedInConfigLoadsAndCoversTheBaselineMetrics) {
  std::string error;
  auto policy = TolerancePolicy::load(FETCH_TOLERANCES_PATH, &error);
  ASSERT_TRUE(policy.has_value()) << error;
  // Every gated baseline metric has its own policy, and no policy is left
  // over from a metric the benches no longer emit.
  const std::filesystem::path dir =
      std::filesystem::path(FETCH_TOLERANCES_PATH).parent_path();
  std::size_t baseline_metrics = 0;
  for (const char* baseline :
       {"bench_micro_smoke.json", "bench_service_smoke.json"}) {
    auto doc = util::json::load_file((dir / baseline).string(), &error);
    ASSERT_TRUE(doc.has_value()) << error;
    for (const Value& row : doc->get("results")->items()) {
      const std::string& name = row.get("name")->text();
      EXPECT_NE(&policy->for_metric(name), &policy->fallback()) << name;
      ++baseline_metrics;
    }
  }
  EXPECT_EQ(policy->listed_metrics(), baseline_metrics);
  // The headline claims must be direction-gated, not symmetric bands.
  EXPECT_EQ(policy->for_metric("cache_hit_rate").direction,
            Direction::kHigher);
  EXPECT_EQ(policy->for_metric("decode_throughput").direction,
            Direction::kHigher);
  EXPECT_EQ(policy->for_metric("warm_speedup_x").direction,
            Direction::kHigher);
  // Open-loop tail latencies are explicitly warn-only.
  EXPECT_TRUE(policy->for_metric("open_loop_p99").warn_only);
}

#endif  // FETCH_TOLERANCES_PATH

// --- diff_reports -----------------------------------------------------------

Value bench_report(const std::vector<std::pair<std::string, double>>& rows) {
  Value doc = Value::object();
  doc.set("schema", Value("fetch-bench-v1"));
  Value results = Value::array();
  for (const auto& [name, value] : rows) {
    Value row = Value::object();
    row.set("name", Value(name));
    row.set("value", Value::number(value));
    row.set("unit", Value("x"));
    results.add(std::move(row));
  }
  doc.set("results", std::move(results));
  return doc;
}

TEST(Tolerance, DiffDistinguishesMissingFromRegressed) {
  const Value baseline = bench_report({{"kept", 10.0}, {"dropped", 5.0}});
  const Value current = bench_report({{"kept", 10.5}, {"brand_new", 1.0}});
  const DiffReport report =
      diff_reports(baseline, current, TolerancePolicy::flat(3.0));
  EXPECT_FALSE(report.gate_failed());
  EXPECT_TRUE(report.any_missing());
  EXPECT_EQ(report.verdict(), "missing-metrics");
  EXPECT_EQ(report.missing, 1u);
  EXPECT_EQ(report.added, 1u);
  EXPECT_EQ(report.compared, 1u);
  ASSERT_EQ(report.rows.size(), 3u);
  EXPECT_EQ(report.rows[1].name, "dropped");
  EXPECT_EQ(report.rows[1].status, VerdictStatus::kMissing);
}

TEST(Tolerance, DiffVerdictJsonRoundTrips) {
  const Value baseline = bench_report({{"m", 10.0}});
  const Value current = bench_report({{"m", 100.0}});
  const DiffReport report =
      diff_reports(baseline, current, TolerancePolicy::flat(3.0));
  EXPECT_TRUE(report.gate_failed());
  const Value verdict = verdict_json(report, "base", "cur", "flat");
  const auto reparsed = Value::parse(verdict.dump());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_TRUE(*reparsed == verdict);
  EXPECT_EQ(verdict.get("verdict")->text(), "regressed");

  const std::string md = verdict_markdown(report, "t");
  EXPECT_NE(md.find("| m |"), std::string::npos);
  EXPECT_NE(md.find("**regressed**"), std::string::npos);
}

// --- Trajectory store -------------------------------------------------------

TEST(Trajectory, AppendsWithoutRewritingHistory) {
  const std::string path =
      ::testing::TempDir() + "/trajectory_append_test.json";
  std::remove(path.c_str());

  std::string error;
  auto doc = load_or_init_trajectory(path, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->get("entries")->items().size(), 0u);

  Value first = make_trajectory_entry("commit-1", "smoke", "aaaa");
  append_trajectory_entry(&*doc, std::move(first));
  ASSERT_TRUE(write_trajectory(path, *doc, &error)) << error;

  auto second_doc = load_or_init_trajectory(path, &error);
  ASSERT_TRUE(second_doc.has_value()) << error;
  append_trajectory_entry(
      &*second_doc, make_trajectory_entry("commit-2", "smoke", "aaaa"));
  ASSERT_TRUE(write_trajectory(path, *second_doc, &error)) << error;

  auto final_doc = load_or_init_trajectory(path, &error);
  ASSERT_TRUE(final_doc.has_value()) << error;
  const auto& entries = final_doc->get("entries")->items();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].get("commit")->text(), "commit-1");
  EXPECT_EQ(entries[1].get("commit")->text(), "commit-2");
  EXPECT_EQ(entries[0].get("spec_hash")->text(), "aaaa");
  std::remove(path.c_str());
}

#ifdef FETCH_TRAJECTORY_PATH

TEST(Trajectory, CheckedInFileTakesAnEntryOfTheCurrentShape) {
  std::string error;
  auto doc = load_or_init_trajectory(FETCH_TRAJECTORY_PATH, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const std::size_t before = doc->get("entries")->items().size();
  ASSERT_GE(before, 1u);
  // Entries written while the spec still had cache and predecode axes
  // keep those members and the longer ids.
  const Value& old_run =
      doc->get("entries")->items()[0].get("runs")->items()[0];
  EXPECT_EQ(old_run.get("id")->text(), "hotpath.smoke.j2.c0.p0");
  ASSERT_NE(old_run.get("cache"), nullptr);
  EXPECT_FALSE(old_run.get("cache")->as_bool());

  // A run as exp_run writes it now: no cache member, no .cN id suffix.
  Value run = Value::object();
  run.set("id", Value("hotpath.smoke.j2"));
  run.set("bench", Value("bench_micro"));
  run.set("scale", Value("smoke"));
  run.set("jobs", Value::number(std::uint64_t{2}));
  run.set("results", Value::array());
  Value runs = Value::array();
  runs.add(std::move(run));
  Value entry = make_trajectory_entry("commit-new", "smoke", "bbbb");
  entry.set("runs", std::move(runs));
  append_trajectory_entry(&*doc, std::move(entry));

  const std::string path =
      ::testing::TempDir() + "/trajectory_checked_in_test.json";
  ASSERT_TRUE(write_trajectory(path, *doc, &error)) << error;
  auto reloaded = load_or_init_trajectory(path, &error);
  ASSERT_TRUE(reloaded.has_value()) << error;
  EXPECT_TRUE(*reloaded == *doc);
  const auto& entries = reloaded->get("entries")->items();
  ASSERT_EQ(entries.size(), before + 1);
  const Value& new_run = entries.back().get("runs")->items()[0];
  EXPECT_EQ(new_run.get("id")->text(), "hotpath.smoke.j2");
  EXPECT_EQ(new_run.get("cache"), nullptr);
  std::remove(path.c_str());
}

#endif  // FETCH_TRAJECTORY_PATH

TEST(Trajectory, RefusesToClobberAnInvalidFile) {
  const std::string path =
      ::testing::TempDir() + "/trajectory_invalid_test.json";
  {
    std::ofstream out(path, std::ios::trunc);
    out << "{\"schema\": \"something-else\"}";
  }
  std::string error;
  EXPECT_FALSE(load_or_init_trajectory(path, &error).has_value());
  EXPECT_FALSE(error.empty());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fetch::exp
