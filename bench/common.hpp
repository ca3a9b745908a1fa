#pragma once

/// \file common.hpp
/// Shared scaffolding for the per-table/figure benchmark binaries: corpus
/// loading, the FETCH strategy-ladder configurations, aggregate printing,
/// and the command-line knobs every bench understands:
///
///   --jobs N         worker threads for corpus generation and the
///                    (entry × strategy) cells (default: FETCH_JOBS env,
///                    else hardware concurrency)
///   --scale S        corpus population: smoke (8 entries), default (176),
///                    full (the paper-scale 1,632 ≥ 1,352 set)
///   --smoke          alias for --scale smoke (ctest smoke runs)
///   --json PATH      additionally emit the bench's results as a
///                    machine-readable JSON document (schema
///                    "fetch-bench-v1"); numbers in the file are the exact
///                    formatted strings printed in the human table.
///                    Currently wired into bench_micro and
///                    bench_table5_runtime.
///
/// Every bench is standalone: it generates the corpus, runs its
/// strategies, and prints the rows of the paper artifact it regenerates.
/// The corpus size goes to stderr so stdout stays byte-comparable across
/// job counts.

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/detector.hpp"
#include "eval/metrics.hpp"
#include "eval/runner.hpp"
#include "eval/table.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace fetch::bench {

struct BenchOptions {
  std::size_t jobs = 0;  ///< 0 → util::default_jobs()
  synth::Scale scale = synth::Scale::kDefault;
  std::string json_path;  ///< empty = no JSON output

  [[nodiscard]] std::size_t effective_jobs() const {
    return jobs == 0 ? util::default_jobs() : jobs;
  }

  [[nodiscard]] eval::CorpusOptions corpus_options() const {
    return {scale, jobs};
  }
};

/// Parses the harness-wide flags. When \p passthrough is non-null,
/// unrecognized arguments are collected there instead of being a usage
/// error — bench_micro uses this to forward google-benchmark flags; every
/// other bench rejects unknowns.
inline BenchOptions parse_args(int argc, char** argv,
                               std::vector<char*>* passthrough = nullptr) {
  BenchOptions options;
  auto usage = [&]() {
    std::cerr << "usage: " << argv[0]
              << " [--smoke] [--scale smoke|default|full] [--jobs N]"
                 " [--json PATH]\n";
    std::exit(2);
  };
  auto set_scale = [&](std::string_view text) {
    const auto scale = synth::parse_scale(text);
    if (!scale) {
      usage();
    }
    options.scale = *scale;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--smoke") {
      options.scale = synth::Scale::kSmoke;
    } else if (arg == "--scale" && i + 1 < argc) {
      set_scale(argv[++i]);
    } else if (arg.rfind("--scale=", 0) == 0) {
      set_scale(arg.substr(8));
    } else if (arg == "--jobs" && i + 1 < argc) {
      if (!util::parse_jobs(argv[++i], &options.jobs)) {
        usage();
      }
    } else if (arg.rfind("--jobs=", 0) == 0) {
      if (!util::parse_jobs(arg.substr(7), &options.jobs)) {
        usage();
      }
    } else if (arg == "--json" && i + 1 < argc) {
      options.json_path = argv[++i];
    } else if (arg.rfind("--json=", 0) == 0) {
      options.json_path = arg.substr(7);
    } else if (passthrough != nullptr) {
      passthrough->push_back(argv[i]);
    } else {
      usage();
    }
  }
  return options;
}

inline void note_corpus_size(const eval::Corpus& corpus) {
  std::cerr << "corpus: " << corpus.size() << " entries\n";
}

/// Root document of a "fetch-bench-v1" JSON report. Benches append rows
/// under "results" and derived scalars under "derived", then call
/// write_json_report.
[[nodiscard]] inline util::json::Value json_report(const std::string& bench,
                                                   const BenchOptions& opts) {
  util::json::Value doc = util::json::Value::object();
  doc.set("schema", util::json::Value("fetch-bench-v1"));
  doc.set("bench", util::json::Value(bench));
  doc.set("scale", util::json::Value(synth::scale_name(opts.scale)));
  doc.set("jobs", util::json::Value::number(
                      static_cast<std::uint64_t>(opts.effective_jobs())));
  doc.set("results", util::json::Value::array());
  return doc;
}

/// Writes the report to \p opts.json_path (no-op when --json was not
/// given). Fails loudly: an unwritable path aborts the bench.
inline void write_json_report(const BenchOptions& opts,
                              const util::json::Value& doc) {
  if (opts.json_path.empty()) {
    return;
  }
  std::ofstream out(opts.json_path, std::ios::trunc);
  out << doc.dump() << "\n";
  out.close();  // flush now so buffered write errors are observable
  if (out.fail()) {
    std::cerr << "error: cannot write --json file: " << opts.json_path
              << "\n";
    std::exit(2);
  }
  std::cerr << "json report: " << opts.json_path << "\n";
}

inline eval::Corpus self_built_corpus(const BenchOptions& options) {
  eval::Corpus corpus = eval::Corpus::self_built(options.corpus_options());
  note_corpus_size(corpus);
  return corpus;
}

inline eval::Corpus wild_corpus(const BenchOptions& options) {
  eval::Corpus corpus = eval::Corpus::wild(options.corpus_options());
  note_corpus_size(corpus);
  return corpus;
}

/// FDE-only detection (§IV-B): raw PC Begin values.
inline std::set<std::uint64_t> run_fde_only(const eval::CorpusEntry& entry) {
  core::DetectorOptions options;
  options.recursive = false;
  options.pointer_detection = false;
  options.fix_fde_errors = false;
  options.use_entry_point = false;
  return entry.detector().run(options).starts();
}

/// FDE + safe recursive disassembly (§IV-C).
inline std::set<std::uint64_t> run_fde_rec(const eval::CorpusEntry& entry) {
  core::DetectorOptions options = eval::fetch_options(entry.bin.truth);
  options.pointer_detection = false;
  options.fix_fde_errors = false;
  return entry.detector().run(options).starts();
}

/// FDE + recursion + function-pointer detection (§IV-E, "Xref").
inline std::set<std::uint64_t> run_fde_rec_xref(
    const eval::CorpusEntry& entry) {
  core::DetectorOptions options = eval::fetch_options(entry.bin.truth);
  options.fix_fde_errors = false;
  return entry.detector().run(options).starts();
}

/// The full FETCH pipeline (§VI).
inline std::set<std::uint64_t> run_fetch(const eval::CorpusEntry& entry) {
  return entry.detector().run(eval::fetch_options(entry.bin.truth)).starts();
}

/// Prints one "Figure 5" style ladder row.
inline void add_ladder_row(eval::TextTable& table, const std::string& name,
                           const eval::Aggregate& agg) {
  table.add_row({name, std::to_string(agg.full_coverage),
                 std::to_string(agg.full_accuracy),
                 std::to_string(agg.fp_total), std::to_string(agg.fn_total)});
}

inline void print_header(const std::string& title, const std::string& paper) {
  std::cout << "=== " << title << " ===\n";
  std::cout << "reproduces: " << paper << "\n\n";
}

}  // namespace fetch::bench
