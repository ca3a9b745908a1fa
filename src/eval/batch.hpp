#pragma once

/// \file batch.hpp
/// Multi-binary evaluation pipeline: score function detection on a fleet
/// of on-disk ELF files against each file's own symbol-table ground truth
/// (elf::FunctionTruth). This is the repo's first non-synthetic workload —
/// `fetch-cli batch` and `realbin_check` are thin front ends over it.
///
/// Files are evaluated concurrently on one util::ThreadPool (one job per
/// file: load → extract truth → run the detector → match) and reduced
/// serially in input order, so every output format — table, CSV, and the
/// `fetch-batch-v1` JSON document — is byte-identical for any `--jobs`
/// value. Unreadable or malformed inputs become per-file error rows
/// instead of aborting the run (see DESIGN.md, "Batch evaluation").

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace fetch::eval {

/// Which ground-truth source analysis scores against (the truth-source
/// hierarchy is symtab > dynsym > sidecar > eh_frame_hdr; see DESIGN.md,
/// "Stripped & hostile evaluation").
enum class TruthMode : std::uint8_t {
  kAuto,     ///< .symtab, falling back to .dynsym (historical default)
  kDynsym,   ///< .dynsym only — rehearses stripped-binary scoring
  kEhFrame,  ///< .eh_frame_hdr search table — no symbol table at all
  kSidecar,  ///< `<path>.truth.json` captured before stripping
};

/// "auto" / "dynsym" / "ehframe" / "sidecar" -> mode; nullopt otherwise.
[[nodiscard]] std::optional<TruthMode> parse_truth_mode(std::string_view name);
/// Stable flag-spelling name for a mode (inverse of parse_truth_mode).
[[nodiscard]] const char* truth_mode_name(TruthMode mode);

struct BatchOptions {
  /// Evaluation workers (0 = FETCH_JOBS env, else hardware concurrency).
  std::size_t jobs = 0;
  /// Ground-truth source every file is scored against.
  TruthMode truth = TruthMode::kAuto;
};

/// Detection-vs-truth counts and the ratios derived from them. One
/// definition for per-file rows and aggregated totals, so the metric
/// conventions (zero-division → 0.0) cannot diverge between the two.
struct MatchStats {
  std::size_t truth = 0;     ///< ground-truth function starts
  std::size_t detected = 0;  ///< reported starts (PLT stubs excluded)
  std::size_t tp = 0;        ///< detected ∩ truth
  std::size_t fp = 0;        ///< detected \ truth
  std::size_t fn = 0;        ///< truth \ detected

  [[nodiscard]] double precision() const {
    return detected == 0 ? 0.0
                         : static_cast<double>(tp) /
                               static_cast<double>(detected);
  }
  [[nodiscard]] double recall() const {
    return truth == 0 ? 0.0
                      : static_cast<double>(tp) / static_cast<double>(truth);
  }
  [[nodiscard]] double f1() const {
    const double p = precision();
    const double r = recall();
    return p + r == 0.0 ? 0.0 : 2.0 * p * r / (p + r);
  }
};

/// One file's outcome. Exactly one of two shapes: an error row (`ok`
/// false, `error` set, metrics zero) or a scored row. When
/// `truth_source` is "none" the MatchStats tp/fp/fn stay zero — only
/// `detected` is reported.
struct BatchRow : MatchStats {
  std::string path;
  bool ok = false;
  std::string error;  ///< load/parse/detection failure message when !ok

  /// Ground-truth provenance: "symtab", "dynsym" (stripped binary,
  /// exports only — precision against it is not meaningful), or "none".
  std::string truth_source = "none";
  /// Detected starts inside .plt* sections, dropped from the comparison:
  /// they are real runtime entries but never appear in symbol tables.
  std::size_t plt_excluded = 0;

  // FunctionTruth diagnostics, carried through so reports can explain
  // their ground truth (zero-size stubs kept, ifunc resolvers, aliases
  // collapsed).
  std::size_t zero_sized = 0;
  std::size_t ifuncs = 0;
  std::size_t aliases = 0;

  [[nodiscard]] bool has_truth() const { return ok && truth > 0; }
};

/// Micro-averaged totals over a subset of rows: sums of the per-file
/// counts, with precision/recall/F1 recomputed from the sums (so large
/// binaries weigh proportionally, matching the paper's corpus totals).
struct BatchTotals : MatchStats {
  std::size_t files = 0;

  void add(const BatchRow& row) {
    ++files;
    truth += row.truth;
    detected += row.detected;
    tp += row.tp;
    fp += row.fp;
    fn += row.fn;
  }
};

/// Every file is analyzed by the full FETCH pipeline (AnalysisSession);
/// reports name it "fetch-full".
class BatchReport {
 public:
  explicit BatchReport(std::vector<BatchRow> rows) : rows_(std::move(rows)) {}

  [[nodiscard]] const std::vector<BatchRow>& rows() const { return rows_; }
  [[nodiscard]] std::size_t error_count() const;

  /// Totals over every scored row with usable truth (symtab or dynsym).
  /// Recall is meaningful here; precision is diluted by dynsym rows.
  [[nodiscard]] BatchTotals totals_with_truth() const;
  /// Totals over symtab-truth rows only — the subset where precision and
  /// F1 are meaningful. This is what the regression gate thresholds.
  [[nodiscard]] BatchTotals totals_symtab() const;
  /// Totals over rows whose truth is *complete* — symtab or sidecar
  /// (sidecar truth is full symtab truth captured before stripping), the
  /// two sources against which precision/F1 are meaningful. The stripped
  /// realbin_check gate tier thresholds this.
  [[nodiscard]] BatchTotals totals_precise() const;

  /// The `fetch-batch-v1` JSON document (see DESIGN.md for the schema).
  /// Deterministic: member order is fixed and ratios use eval::fmt
  /// formatting, so equal runs dump byte-identical text.
  [[nodiscard]] util::json::Value json() const;

  /// One header + one line per row; RFC-4180-style quoting for the error
  /// field. Same determinism contract as json().
  [[nodiscard]] std::string csv() const;

  /// Human-readable per-file table plus aggregate summary lines; error
  /// rows are listed with their messages below the table.
  void print(std::ostream& os) const;

 private:
  std::vector<BatchRow> rows_;
};

/// Evaluates \p paths concurrently (one ThreadPool across all files, one
/// job per file) and reduces in input order.
[[nodiscard]] BatchReport run_batch(const std::vector<std::string>& paths,
                                    const BatchOptions& options = {});

/// Reads a newline-separated path list; blank lines and `#` comments are
/// skipped. Returns false with *error set when the list is unreadable.
[[nodiscard]] bool read_path_list(const std::string& list_path,
                                  std::vector<std::string>* out,
                                  std::string* error);

/// Appends every regular file in \p dir (non-recursive) that starts with
/// the ELF magic, in lexicographic order so batch inputs are stable.
[[nodiscard]] bool expand_directory(const std::string& dir,
                                    std::vector<std::string>* out,
                                    std::string* error);

/// Removes repeated inputs in place (first occurrence wins, order
/// otherwise preserved) so a file reachable both positionally and via
/// `--dir`/`--from-file` is scored once — duplicated rows would double-
/// count every aggregate. Paths are compared after symlink/.. resolution
/// (std::filesystem::weakly_canonical), falling back to lexical
/// normalization for paths that cannot be resolved. Returns how many
/// entries were dropped.
std::size_t dedupe_paths(std::vector<std::string>* paths);

}  // namespace fetch::eval
