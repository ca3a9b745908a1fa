#include "eval/batch.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <unordered_set>

#include "eval/session.hpp"
#include "eval/table.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace fetch::eval {

namespace {

/// Ratio formatting shared by every output format: four decimals is
/// enough to see real regressions while keeping reports diff-stable.
std::string fmt_ratio(double value) { return fmt(value, 4); }

util::json::Value json_ratio(double value) {
  return util::json::Value::number(value, fmt_ratio(value));
}

util::json::Value json_count(std::size_t value) {
  return util::json::Value::number(static_cast<std::uint64_t>(value));
}

util::json::Value totals_json(const BatchTotals& totals) {
  util::json::Value obj = util::json::Value::object();
  obj.set("files", json_count(totals.files));
  obj.set("truth", json_count(totals.truth));
  obj.set("detected", json_count(totals.detected));
  obj.set("tp", json_count(totals.tp));
  obj.set("fp", json_count(totals.fp));
  obj.set("fn", json_count(totals.fn));
  obj.set("precision", json_ratio(totals.precision()));
  obj.set("recall", json_ratio(totals.recall()));
  obj.set("f1", json_ratio(totals.f1()));
  return obj;
}

/// RFC-4180-style CSV escaping: quote when the cell contains a comma,
/// quote, or newline; double embedded quotes.
std::string csv_cell(const std::string& text) {
  if (text.find_first_of(",\"\n\r") == std::string::npos) {
    return text;
  }
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"') {
      out += "\"\"";
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
  return out;
}

}  // namespace

std::optional<TruthMode> parse_truth_mode(std::string_view name) {
  if (name == "auto") {
    return TruthMode::kAuto;
  }
  if (name == "dynsym") {
    return TruthMode::kDynsym;
  }
  if (name == "ehframe") {
    return TruthMode::kEhFrame;
  }
  if (name == "sidecar") {
    return TruthMode::kSidecar;
  }
  return std::nullopt;
}

const char* truth_mode_name(TruthMode mode) {
  switch (mode) {
    case TruthMode::kAuto:
      return "auto";
    case TruthMode::kDynsym:
      return "dynsym";
    case TruthMode::kEhFrame:
      return "ehframe";
    case TruthMode::kSidecar:
      return "sidecar";
  }
  return "auto";
}

BatchReport run_batch(const std::vector<std::string>& paths,
                      const BatchOptions& options) {
  // One pool across all files, one job per file, slot-per-index results:
  // the reduction below walks input order, so the report is byte-identical
  // to a serial run regardless of the worker count.
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& files_total = reg.counter("batch_files_total");
  obs::Counter& errors_total = reg.counter("batch_errors_total");
  obs::Histogram& file_us = reg.histogram("batch_file_us");
  const AnalysisSession session(options.truth);
  std::vector<BatchRow> rows = util::parallel_map<BatchRow>(
      options.jobs, paths.size(), [&](std::size_t i) {
        obs::Span span(nullptr, "batch_file", &file_us);
        BatchRow row =
            session.analyze_file(paths[i], AnalysisSession::Detail::kRowOnly)
                .row;
        files_total.add();
        if (!row.ok) {
          errors_total.add();
        }
        return row;
      });
  return BatchReport(std::move(rows));
}

std::size_t BatchReport::error_count() const {
  std::size_t errors = 0;
  for (const BatchRow& row : rows_) {
    errors += row.ok ? 0 : 1;
  }
  return errors;
}

BatchTotals BatchReport::totals_with_truth() const {
  BatchTotals totals;
  for (const BatchRow& row : rows_) {
    if (row.has_truth()) {
      totals.add(row);
    }
  }
  return totals;
}

BatchTotals BatchReport::totals_symtab() const {
  BatchTotals totals;
  for (const BatchRow& row : rows_) {
    if (row.has_truth() && row.truth_source == "symtab") {
      totals.add(row);
    }
  }
  return totals;
}

BatchTotals BatchReport::totals_precise() const {
  BatchTotals totals;
  for (const BatchRow& row : rows_) {
    if (row.has_truth() &&
        (row.truth_source == "symtab" || row.truth_source == "sidecar")) {
      totals.add(row);
    }
  }
  return totals;
}

util::json::Value BatchReport::json() const {
  util::json::Value doc = util::json::Value::object();
  doc.set("schema", util::json::Value("fetch-batch-v1"));
  doc.set("detector", util::json::Value("fetch-full"));
  util::json::Value files = util::json::Value::array();
  for (const BatchRow& row : rows_) {
    util::json::Value entry = util::json::Value::object();
    entry.set("path", util::json::Value(row.path));
    entry.set("status", util::json::Value(row.ok ? "ok" : "error"));
    if (!row.ok) {
      entry.set("error", util::json::Value(row.error));
      files.add(std::move(entry));
      continue;
    }
    entry.set("truth_source", util::json::Value(row.truth_source));
    entry.set("truth", json_count(row.truth));
    entry.set("detected", json_count(row.detected));
    // Match metrics only exist against usable truth; a row without one
    // reports what was detected and nothing else.
    if (row.has_truth()) {
      entry.set("tp", json_count(row.tp));
      entry.set("fp", json_count(row.fp));
      entry.set("fn", json_count(row.fn));
      entry.set("precision", json_ratio(row.precision()));
      entry.set("recall", json_ratio(row.recall()));
      entry.set("f1", json_ratio(row.f1()));
    }
    entry.set("plt_excluded", json_count(row.plt_excluded));
    entry.set("zero_sized", json_count(row.zero_sized));
    entry.set("ifuncs", json_count(row.ifuncs));
    entry.set("aliases", json_count(row.aliases));
    files.add(std::move(entry));
  }
  doc.set("files", std::move(files));

  util::json::Value aggregate = util::json::Value::object();
  aggregate.set("files", json_count(rows_.size()));
  aggregate.set("errors", json_count(error_count()));
  const BatchTotals with_truth = totals_with_truth();
  const BatchTotals symtab = totals_symtab();
  aggregate.set("with_truth", json_count(with_truth.files));
  aggregate.set("symtab_files", json_count(symtab.files));
  aggregate.set("all", totals_json(with_truth));
  aggregate.set("symtab", totals_json(symtab));
  doc.set("aggregate", std::move(aggregate));
  return doc;
}

std::string BatchReport::csv() const {
  std::string out =
      "path,status,truth_source,truth,detected,tp,fp,fn,"
      "precision,recall,f1,error\n";
  for (const BatchRow& row : rows_) {
    out += csv_cell(row.path);
    out += row.ok ? ",ok," : ",error,";
    if (!row.ok) {
      out += ",,,,,,,,," + csv_cell(row.error) + "\n";
      continue;
    }
    out += row.truth_source;
    out += ',' + std::to_string(row.truth);
    out += ',' + std::to_string(row.detected);
    if (row.has_truth()) {
      out += ',' + std::to_string(row.tp);
      out += ',' + std::to_string(row.fp);
      out += ',' + std::to_string(row.fn);
      out += ',' + fmt_ratio(row.precision());
      out += ',' + fmt_ratio(row.recall());
      out += ',' + fmt_ratio(row.f1());
    } else {
      out += ",,,,,,";  // no truth, no match metrics
    }
    out += ",\n";
  }
  return out;
}

void BatchReport::print(std::ostream& os) const {
  TextTable table({"file", "source", "truth", "det", "tp", "fp", "fn",
                   "prec", "rec", "f1"});
  for (const BatchRow& row : rows_) {
    if (!row.ok) {
      table.add_row({row.path, "error", "-", "-", "-", "-", "-", "-", "-",
                     "-"});
      continue;
    }
    if (!row.has_truth()) {
      table.add_row({row.path, row.truth_source, std::to_string(row.truth),
                     std::to_string(row.detected), "-", "-", "-", "-", "-",
                     "-"});
      continue;
    }
    table.add_row({row.path, row.truth_source, std::to_string(row.truth),
                   std::to_string(row.detected), std::to_string(row.tp),
                   std::to_string(row.fp), std::to_string(row.fn),
                   fmt_ratio(row.precision()), fmt_ratio(row.recall()),
                   fmt_ratio(row.f1())});
  }
  table.print(os);

  const BatchTotals with_truth = totals_with_truth();
  const BatchTotals symtab = totals_symtab();
  os << "\nfiles: " << rows_.size() << "  errors: " << error_count()
     << "  with truth: " << with_truth.files << " (" << symtab.files
     << " symtab)\n";
  if (with_truth.files != 0) {
    os << "all truth:    precision " << fmt_ratio(with_truth.precision())
       << "  recall " << fmt_ratio(with_truth.recall()) << "  F1 "
       << fmt_ratio(with_truth.f1()) << "\n";
  }
  if (symtab.files != 0) {
    os << "symtab truth: precision " << fmt_ratio(symtab.precision())
       << "  recall " << fmt_ratio(symtab.recall()) << "  F1 "
       << fmt_ratio(symtab.f1()) << "\n";
  }
  for (const BatchRow& row : rows_) {
    if (!row.ok) {
      os << "error: " << row.path << ": " << row.error << "\n";
    }
  }
}

bool read_path_list(const std::string& list_path,
                    std::vector<std::string>* out, std::string* error) {
  std::ifstream in(list_path);
  if (!in) {
    *error = "cannot open list file: " + list_path;
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    const std::size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') {
      continue;
    }
    const std::size_t last = line.find_last_not_of(" \t");
    out->push_back(line.substr(first, last - first + 1));
  }
  return true;
}

bool expand_directory(const std::string& dir, std::vector<std::string>* out,
                      std::string* error) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    *error = "not a directory: " + dir;
    return false;
  }
  std::vector<std::string> found;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    // Per-entry status failures (dangling symlink, permission) just skip
    // the entry; only iterator-level errors (checked after the loop via
    // `ec`) fail the expansion.
    std::error_code entry_ec;
    if (!entry.is_regular_file(entry_ec)) {
      continue;
    }
    // Cheap ELF-magic probe so a /usr/bin sweep skips scripts up front
    // instead of producing hundreds of parse-error rows.
    std::ifstream probe(entry.path(), std::ios::binary);
    char magic[4] = {};
    probe.read(magic, 4);
    if (probe.gcount() == 4 && magic[0] == 0x7f && magic[1] == 'E' &&
        magic[2] == 'L' && magic[3] == 'F') {
      found.push_back(entry.path().string());
    }
  }
  if (ec) {
    *error = "cannot read directory " + dir + ": " + ec.message();
    return false;
  }
  std::sort(found.begin(), found.end());
  out->insert(out->end(), found.begin(), found.end());
  return true;
}

std::size_t dedupe_paths(std::vector<std::string>* paths) {
  namespace fs = std::filesystem;
  std::unordered_set<std::string> seen;
  std::vector<std::string> kept;
  kept.reserve(paths->size());
  for (std::string& path : *paths) {
    // Normalize lexically (weakly_canonical also resolves symlinks and
    // works for nonexistent paths, which must still dedupe by spelling so
    // a repeated bad input yields one error row, not two).
    std::error_code ec;
    fs::path canonical = fs::weakly_canonical(path, ec);
    const std::string key =
        ec ? fs::path(path).lexically_normal().string() : canonical.string();
    if (seen.insert(key).second) {
      kept.push_back(std::move(path));
    }
  }
  const std::size_t removed = paths->size() - kept.size();
  *paths = std::move(kept);
  return removed;
}

}  // namespace fetch::eval
