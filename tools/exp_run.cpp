/// \file exp_run.cpp
/// Experiment-matrix runner: expands a checked-in fetch-exp-v1 spec
/// (`bench/experiments/*.json`) into its exact, ordered list of bench
/// invocations, runs them, aggregates the fetch-bench-v1 outputs into
/// the cross-commit trajectory report (BENCH_trajectory.json, appended
/// never rewritten), and optionally gates each run against its checked-in
/// baseline under the per-metric tolerance policy
/// (`bench/baselines/tolerances.json`).
///
///   exp_run --spec FILE [--bin-dir DIR] [--out-dir DIR] [--list]
///           [--trajectory FILE] [--commit ID]
///           [--baselines-dir DIR] [--tolerances FILE] [--check]
///           [--update-baselines] [--json PATH] [--markdown PATH]
///
///   --list              print the expansion (id + argv per cell) and the
///                       spec hash, run nothing, exit 0. This output is
///                       pinned by tests/test_exp_spec.cpp.
///   --out-dir DIR       per-invocation artifacts: <id>.json (the bench's
///                       fetch-bench-v1 report) and <id>.log (its stdout+
///                       stderr). Default: exp-out
///   --trajectory FILE   append this run's entry (keyed by --commit and
///                       the spec hash) to the trajectory document;
///                       created when missing, validated when present.
///   --check             gate: diff every run that names a baseline
///                       against <baselines-dir>/<baseline> under the
///                       tolerance policy.
///   --update-baselines  explicit baseline-refresh workflow: rewrite each
///                       named baseline file from this run's report and
///                       print the old → new diff for review (mutually
///                       exclusive with --check).
///
/// Exit codes: 0 ok · 1 gate regression · 2 usage/spec/bench failure ·
/// 3 baseline metric missing from a candidate (and nothing regressed).
/// The distinction keeps "someone renamed a metric" from hiding inside
/// "perf is fine" — CI fails either way, but the triage differs.

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "eval/table.hpp"
#include "exp/spec.hpp"
#include "exp/tolerance.hpp"
#include "exp/trajectory.hpp"
#include "util/json.hpp"
#include "util/json_schema.hpp"

namespace {

using namespace fetch;
using util::json::Value;

struct Options {
  std::string spec_path;
  std::string bin_dir = ".";
  std::string out_dir = "exp-out";
  std::string trajectory_path;
  std::string commit = "local";
  std::string baselines_dir = "bench/baselines";
  std::string tolerances_path;
  std::string json_path;
  std::string markdown_path;
  bool list = false;
  bool check = false;
  bool update_baselines = false;
};

int usage() {
  std::cerr
      << "usage: exp_run --spec FILE [--bin-dir DIR] [--out-dir DIR]\n"
         "               [--list] [--trajectory FILE] [--commit ID]\n"
         "               [--baselines-dir DIR] [--tolerances FILE]\n"
         "               [--check] [--update-baselines]\n"
         "               [--json PATH] [--markdown PATH]\n";
  return 2;
}

/// POSIX-shell single quoting: safe to splice into a system() command.
std::string shell_quote(const std::string& s) {
  std::string out = "'";
  for (const char c : s) {
    if (c == '\'') {
      out += "'\\''";
    } else {
      out.push_back(c);
    }
  }
  out += "'";
  return out;
}

bool write_text_file(const std::string& path, const std::string& text,
                     std::string* error) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
  out.close();
  if (out.fail()) {
    *error = "cannot write " + path;
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto take = [&](std::string* out) {
      if (i + 1 >= argc) {
        return false;
      }
      *out = argv[++i];
      return true;
    };
    if (arg == "--spec") {
      if (!take(&opt.spec_path)) return usage();
    } else if (arg == "--bin-dir") {
      if (!take(&opt.bin_dir)) return usage();
    } else if (arg == "--out-dir") {
      if (!take(&opt.out_dir)) return usage();
    } else if (arg == "--trajectory") {
      if (!take(&opt.trajectory_path)) return usage();
    } else if (arg == "--commit") {
      if (!take(&opt.commit)) return usage();
    } else if (arg == "--baselines-dir") {
      if (!take(&opt.baselines_dir)) return usage();
    } else if (arg == "--tolerances") {
      if (!take(&opt.tolerances_path)) return usage();
    } else if (arg == "--json") {
      if (!take(&opt.json_path)) return usage();
    } else if (arg == "--markdown") {
      if (!take(&opt.markdown_path)) return usage();
    } else if (arg == "--list") {
      opt.list = true;
    } else if (arg == "--check") {
      opt.check = true;
    } else if (arg == "--update-baselines") {
      opt.update_baselines = true;
    } else {
      return usage();
    }
  }
  if (opt.spec_path.empty() || (opt.check && opt.update_baselines)) {
    return usage();
  }

  std::string error;
  auto spec = exp::ExpSpec::load(opt.spec_path, &error);
  if (!spec) {
    std::cerr << "error: " << error << "\n";
    return 2;
  }
  const std::vector<exp::Invocation> matrix = spec->expand();

  if (opt.list) {
    std::cout << "spec " << spec->name() << " hash " << spec->hash_hex()
              << " (" << matrix.size() << " invocations)\n";
    for (const exp::Invocation& inv : matrix) {
      std::cout << inv.render() << "\n";
    }
    return 0;
  }

  // Tolerance policy: explicit file, else the engine default (flat 3x).
  exp::TolerancePolicy policy = exp::TolerancePolicy::flat(3.0);
  std::string policy_source = "built-in flat 3x";
  if (!opt.tolerances_path.empty()) {
    auto loaded = exp::TolerancePolicy::load(opt.tolerances_path, &error);
    if (!loaded) {
      std::cerr << "error: " << error << "\n";
      return 2;
    }
    policy = std::move(*loaded);
    policy_source = opt.tolerances_path;
  }

  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  if (ec) {
    std::cerr << "error: cannot create --out-dir " << opt.out_dir << ": "
              << ec.message() << "\n";
    return 2;
  }

  // --- Run every cell, in expansion order ----------------------------------
  std::cerr << "spec " << spec->name() << " hash " << spec->hash_hex()
            << ": running " << matrix.size() << " invocations\n";
  std::vector<Value> reports;
  reports.reserve(matrix.size());
  for (const exp::Invocation& inv : matrix) {
    const std::string json_path = opt.out_dir + "/" + inv.id + ".json";
    const std::string log_path = opt.out_dir + "/" + inv.id + ".log";
    std::string command = shell_quote(opt.bin_dir + "/" + inv.bench);
    for (const std::string& arg : inv.bench_args()) {
      command += " " + shell_quote(arg);
    }
    command += " --json " + shell_quote(json_path);
    command += " > " + shell_quote(log_path) + " 2>&1";
    std::cerr << "run " << inv.id << ": " << inv.bench << "\n";
    const int rc = std::system(command.c_str());
    if (rc != 0) {
      std::cerr << "error: " << inv.id << " failed (see " << log_path
                << ")\n";
      return 2;
    }
    auto report = util::json::load_file(json_path, &error);
    if (!report ||
        !util::json::expect_schema(*report, "fetch-bench-v1", &error,
                                   json_path)) {
      std::cerr << "error: " << error << "\n";
      return 2;
    }
    reports.push_back(std::move(*report));
  }

  // --- Trajectory append ---------------------------------------------------
  if (!opt.trajectory_path.empty()) {
    auto doc = exp::load_or_init_trajectory(opt.trajectory_path, &error);
    if (!doc) {
      std::cerr << "error: " << error << "\n";
      return 2;
    }
    Value entry = exp::make_trajectory_entry(opt.commit, spec->name(),
                                             spec->hash_hex());
    Value runs = Value::array();
    for (std::size_t i = 0; i < matrix.size(); ++i) {
      const exp::Invocation& inv = matrix[i];
      Value run = Value::object();
      run.set("id", Value(inv.id));
      run.set("bench", Value(inv.bench));
      run.set("scale", Value(inv.scale));
      run.set("jobs", Value::number(static_cast<std::uint64_t>(inv.jobs)));
      if (const Value* results = reports[i].get("results")) {
        run.set("results", *results);
      }
      runs.add(std::move(run));
    }
    entry.set("runs", std::move(runs));
    exp::append_trajectory_entry(&*doc, std::move(entry));
    if (!exp::write_trajectory(opt.trajectory_path, *doc, &error)) {
      std::cerr << "error: " << error << "\n";
      return 2;
    }
    std::cerr << "trajectory: appended entry (commit " << opt.commit
              << ", spec_hash " << spec->hash_hex() << ") to "
              << opt.trajectory_path << "\n";
  }

  // --- Baseline refresh (explicit, reviewable) -----------------------------
  if (opt.update_baselines) {
    std::vector<std::string> written;
    for (std::size_t i = 0; i < matrix.size(); ++i) {
      const exp::Invocation& inv = matrix[i];
      if (inv.baseline.empty()) {
        continue;
      }
      const std::string path = opt.baselines_dir + "/" + inv.baseline;
      bool already = false;
      for (const std::string& w : written) {
        already = already || w == inv.baseline;
      }
      if (already) {
        // First matching cell wins: the expansion order is deterministic,
        // so which cell feeds a shared baseline file never silently moves.
        std::cerr << "update-baselines: " << inv.id << " skipped ("
                  << inv.baseline << " already written this run)\n";
        continue;
      }
      Value old_doc = Value::object();
      if (auto existing = util::json::load_file(path, &error)) {
        old_doc = std::move(*existing);
      }
      const exp::DiffReport diff =
          exp::diff_reports(old_doc, reports[i], policy);
      std::cout << "=== baseline update: " << inv.baseline << " (from "
                << inv.id << ") ===\n";
      eval::TextTable table({"metric", "old", "new", "ratio", "status"});
      for (const exp::MetricVerdict& v : diff.rows) {
        table.add_row({v.name,
                       v.baseline_text.empty() ? "-" : v.baseline_text,
                       v.current_text.empty() ? "-" : v.current_text,
                       v.ratio == 0.0 ? "-" : eval::fmt(v.ratio, 2),
                       std::string(exp::status_name(v.status))});
      }
      table.print(std::cout);
      std::cout << "\n";
      if (!write_text_file(path, reports[i].dump() + "\n", &error)) {
        std::cerr << "error: " << error << "\n";
        return 2;
      }
      written.push_back(inv.baseline);
    }
    std::cout << "updated " << written.size()
              << " baseline file(s) under " << opt.baselines_dir
              << " — review the diffs above before committing\n";
    return 0;
  }

  // --- Gate ----------------------------------------------------------------
  bool any_regressed = false;
  bool any_missing = false;
  Value verdicts = Value::object();
  verdicts.set("schema", Value("fetch-exp-verdict-v1"));
  verdicts.set("spec", Value(spec->name()));
  verdicts.set("spec_hash", Value(spec->hash_hex()));
  verdicts.set("commit", Value(opt.commit));
  verdicts.set("policy", Value(policy_source));
  Value run_verdicts = Value::array();
  std::string markdown;
  if (opt.check) {
    for (std::size_t i = 0; i < matrix.size(); ++i) {
      const exp::Invocation& inv = matrix[i];
      if (inv.baseline.empty()) {
        continue;
      }
      const std::string path = opt.baselines_dir + "/" + inv.baseline;
      auto baseline = util::json::load_file(path, &error);
      if (!baseline ||
          !util::json::expect_schema(*baseline, "fetch-bench-v1", &error,
                                     path)) {
        std::cerr << "error: " << error << "\n";
        return 2;
      }
      const exp::DiffReport diff =
          exp::diff_reports(*baseline, reports[i], policy);
      any_regressed = any_regressed || diff.gate_failed();
      any_missing = any_missing || diff.any_missing();

      std::cout << "=== gate " << inv.id << " vs " << inv.baseline << ": "
                << diff.verdict() << " ===\n";
      eval::TextTable table({"metric", "baseline", "current", "ratio",
                             "status"});
      for (const exp::MetricVerdict& v : diff.rows) {
        table.add_row({v.name,
                       v.baseline_text.empty() ? "-" : v.baseline_text,
                       v.current_text.empty() ? "-" : v.current_text,
                       v.ratio == 0.0 ? "-" : eval::fmt(v.ratio, 2),
                       std::string(exp::status_name(v.status))});
      }
      table.print(std::cout);
      std::cout << "\n";

      Value rv = exp::verdict_json(diff, path, opt.out_dir + "/" + inv.id +
                                                   ".json",
                                   policy_source);
      rv.set("id", Value(inv.id));
      run_verdicts.add(std::move(rv));
      markdown += exp::verdict_markdown(diff, "gate " + inv.id + " vs " +
                                                  inv.baseline);
      markdown += "\n";
    }
  }
  verdicts.set("runs", std::move(run_verdicts));
  verdicts.set("verdict",
               Value(any_regressed
                         ? "regressed"
                         : (any_missing ? "missing-metrics" : "ok")));
  if (!opt.json_path.empty()) {
    if (!write_text_file(opt.json_path, verdicts.dump() + "\n", &error)) {
      std::cerr << "error: " << error << "\n";
      return 2;
    }
  }
  if (!opt.markdown_path.empty()) {
    if (markdown.empty()) {
      markdown = "### experiment spec " + spec->name() +
                 " — no gated runs\n";
    }
    if (!write_text_file(opt.markdown_path, markdown, &error)) {
      std::cerr << "error: " << error << "\n";
      return 2;
    }
  }
  if (opt.check) {
    if (any_regressed) {
      std::cout << "gate: REGRESSED — see the per-metric tables above; if "
                   "the movement is intended, refresh with exp_run "
                   "--update-baselines and commit the reviewed diff\n";
      return 1;
    }
    if (any_missing) {
      std::cout << "gate: baseline metrics missing from a candidate report "
                   "— a metric was renamed or dropped without a baseline "
                   "update\n";
      return 3;
    }
    std::cout << "gate: ok\n";
  }
  return 0;
}
