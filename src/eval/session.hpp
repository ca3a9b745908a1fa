#pragma once

/// \file session.hpp
/// The single-file evaluation core shared by the batch pipeline
/// (eval/batch) and the analysis service (src/service/): load an ELF,
/// extract symbol-table ground truth, run the detector, score the match,
/// and keep the full per-function detection output. Extracted from
/// eval/batch so `fetch-cli batch`, `realbin_check`, and `fetch-cli
/// serve` cannot drift apart in what "analyze one binary" means — the
/// service caches exactly what a one-shot run would have produced.

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "eval/batch.hpp"
#include "obs/trace.hpp"

namespace fetch::eval {

/// Everything one analysis produces. `row` carries the metrics shape the
/// batch reports consume; the rest is the detection detail a `detect`/
/// `query` front end renders and the service caches.
struct FileAnalysis {
  /// Metrics row (path, ok/error, truth counts, tp/fp/fn, diagnostics).
  BatchRow row;

  /// XXH64 digest of the raw input bytes — the service's cache key.
  /// Zero when the file could not be read at all.
  std::uint64_t content_hash = 0;

  /// Every detected start with its provenance *name* (core::
  /// provenance_name), in address order — including `.plt*` starts that
  /// `row.detected` excludes, so rendering matches `fetch-cli detect`.
  std::vector<std::pair<std::uint64_t, std::string>> functions;

  // Pipeline counters for the detect-style summary line.
  std::size_t fde_starts = 0;          ///< raw FDE PC Begins
  std::size_t pointer_starts = 0;      ///< added by pointer detection
  std::size_t merged_parts = 0;        ///< removed by Algorithm 1 merging
  std::size_t invalid_fde_starts = 0;  ///< rejected by the CC check
};

/// Reusable "analyze one binary" context: the full FETCH pipeline plus the
/// policy glue (PLT exclusion, truth matching) that used to live inside
/// eval/batch. Stateless apart from the truth mode, so one session may be
/// shared by any number of threads.
class AnalysisSession {
 public:
  /// How much of a FileAnalysis to materialize. kRowOnly skips the
  /// content hash and the per-function provenance strings — the batch
  /// pipeline consumes only the metrics row, and paying a full-file
  /// hash plus tens of thousands of string allocations per fleet binary
  /// for fields that are immediately discarded adds up.
  enum class Detail : std::uint8_t { kRowOnly, kFull };

  /// \p truth selects the ground-truth source rows are scored against
  /// (TruthMode::kSidecar resolves `<label>.truth.json` next to the
  /// input; a missing/unusable sidecar degrades to truth_source "none",
  /// never an error row — the detection itself is unaffected).
  explicit AnalysisSession(TruthMode truth = TruthMode::kAuto)
      : truth_(truth) {}

  /// Reads \p path and analyzes its bytes. Never throws: unreadable or
  /// malformed inputs produce an error row (`row.ok` false).
  [[nodiscard]] FileAnalysis analyze_file(
      const std::string& path, Detail detail = Detail::kFull,
      obs::Trace* trace = nullptr) const;

  /// Analyzes an in-memory image; \p label becomes `row.path`. Never
  /// throws. When \p trace is non-null the pipeline stages (elf_parse,
  /// truth, detector_build, detect, score) record their spans into it;
  /// per-stage latency histograms in Registry::global() are fed either
  /// way.
  [[nodiscard]] FileAnalysis analyze_image(std::span<const std::uint8_t> image,
                                           const std::string& label,
                                           Detail detail = Detail::kFull,
                                           obs::Trace* trace = nullptr) const;

  /// The error analysis every front end reports for a file that cannot
  /// be opened — one definition, so the served and one-shot paths can
  /// never drift apart in wording.
  [[nodiscard]] static FileAnalysis unreadable(const std::string& path);

  /// The cache key the service uses: util::xxh64 (seed 0) of the bytes.
  [[nodiscard]] static std::uint64_t content_hash(
      std::span<const std::uint8_t> bytes);

 private:
  TruthMode truth_ = TruthMode::kAuto;
};

}  // namespace fetch::eval
