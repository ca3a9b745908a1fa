#pragma once

/// \file detector.hpp
/// Public facade of the FETCH reproduction: function-start detection from
/// exception-handling information, with each of the paper's strategies as
/// an independent toggle so the evaluation can reproduce every ladder step
/// of Figures 5a-5c and the full FETCH configuration of Table III.
///
/// The full pipeline (all options on) is §VI's FETCH:
///   1. extract FDE PC Begin values from .eh_frame as seeds
///   2. safe recursive disassembly from the seeds            (recursive)
///   3. soundness-driven function-pointer detection (§IV-E)  (pointer_detection)
///   4. Algorithm 1: conservative tail-call detection and
///      non-contiguous-function merging, plus the calling-
///      convention check on raw FDE starts (§V-B)            (fix_fde_errors)

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "disasm/code_view.hpp"
#include "disasm/recursive.hpp"
#include "ehframe/cfi_eval.hpp"
#include "ehframe/eh_frame.hpp"
#include "elf/elf_file.hpp"
#include "obs/trace.hpp"

namespace fetch::core {

/// How a reported function start was established. The numbers are stable
/// because golden digests hash them; 1 is unused.
enum class Provenance : std::uint8_t {
  kFde = 0,         ///< PC Begin of a call frame
  kEntryPoint = 2,  ///< ELF entry point
  kCallTarget = 3,  ///< target of a direct call seen by recursive disassembly
  kPointer = 4,     ///< validated function pointer (§IV-E)
  kTailCall = 5,    ///< target of a detected tail call (Algorithm 1)
};

[[nodiscard]] const char* provenance_name(Provenance p);

/// Stage switches of the pipeline. The Figure 5 ladders and `fetch-cli
/// compare` turn them off; `detect`, `batch` and `serve` run the defaults.
struct DetectorOptions {
  /// Seed from the ELF entry point.
  bool use_entry_point = true;
  /// Safe recursive disassembly (§IV-C).
  bool recursive = true;
  /// Function-pointer detection (§IV-E, "Xref" in Figure 5c).
  bool pointer_detection = true;
  /// Algorithm 1 + calling-convention check of raw FDE starts (§V-B).
  bool fix_fde_errors = true;
  disasm::Options disasm;
};

/// Extent of one detected function: entry, one past its highest
/// instruction byte (including merged non-contiguous parts), and the
/// number of instructions reached intra-procedurally.
struct FunctionExtent {
  std::uint64_t entry = 0;
  std::uint64_t end = 0;
  std::size_t instructions = 0;
};

struct DetectionResult {
  /// Final function starts with provenance.
  std::map<std::uint64_t, Provenance> functions;

  /// Extents for every start (only populated when `recursive` ran).
  std::map<std::uint64_t, FunctionExtent> extents;

  // --- Diagnostics for the evaluation harness -------------------------------
  std::set<std::uint64_t> fde_starts;      ///< raw FDE PC Begins
  std::set<std::uint64_t> pointer_starts;  ///< added by pointer detection
  std::set<std::uint64_t> tail_targets;    ///< added by Algorithm 1
  /// Starts removed by Algorithm 1 as non-beginning parts of
  /// non-contiguous functions, mapped to the function they merged into.
  std::map<std::uint64_t, std::uint64_t> merged_parts;
  /// FDE starts rejected by the calling-convention check (mislabeled,
  /// developer-inserted CFI — Figure 6b).
  std::set<std::uint64_t> invalid_fde_starts;
  /// Functions Algorithm 1 skipped because their CFI lacks complete stack
  /// height information (§V-C residual false positives live here).
  std::set<std::uint64_t> skipped_incomplete_cfi;

  /// Final start set, for convenience.
  [[nodiscard]] std::set<std::uint64_t> starts() const {
    std::set<std::uint64_t> out;
    for (const auto& [addr, prov] : functions) {
      out.insert(addr);
    }
    return out;
  }
};

/// One-binary detection context; owns the decode cache and parsed
/// .eh_frame so repeated runs with different options are cheap.
class FunctionDetector {
 public:
  explicit FunctionDetector(const elf::ElfFile& elf);

  /// Runs the pipeline selected by \p options. With a \p trace, each
  /// stage that runs records a `detect.<stage>` span into it: callconv,
  /// analyze, pointer, reanalyze, data_refs, alg1. Callconv, pointer,
  /// data_refs and alg1 also time themselves into the global registry's
  /// `detect_<stage>_us` histograms; the analyses' steps feed the
  /// `disasm_*_us` ones.
  [[nodiscard]] DetectionResult run(const DetectorOptions& options = {},
                                    obs::Trace* trace = nullptr) const;

  [[nodiscard]] const disasm::CodeView& code() const { return code_; }
  [[nodiscard]] const std::optional<eh::EhFrame>& eh_frame() const {
    return eh_;
  }

 private:
  const elf::ElfFile& elf_;
  disasm::CodeView code_;
  std::optional<eh::EhFrame> eh_;
};

}  // namespace fetch::core
