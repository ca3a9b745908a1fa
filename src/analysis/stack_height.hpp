#pragma once

/// \file stack_height.hpp
/// Static stack-height dataflow analysis, parameterized by capability flags
/// that model the fidelity differences between ANGR-style and DYNINST-style
/// implementations (the comparison of the paper's Table IV; §V-B explains
/// why FETCH prefers CFI-recorded heights over these analyses).
///
/// Height convention: at function entry the height is 0 and rsp points at
/// the return address; a `push` makes the height 8. This matches the CFI
/// side's `CfiTable::stack_height_at` (CFA offset - 8), so results are
/// directly comparable.

#include <cstdint>
#include <map>
#include <optional>

#include "disasm/code_view.hpp"
#include "disasm/recursive.hpp"

namespace fetch::analysis {

struct StackAnalysisConfig {
  /// Track `mov rbp, rsp` so that `leave` restores a known height.
  bool track_frame_pointer = true;
  /// Model callees that pop caller arguments (`ret imm16`): a call to such
  /// a function changes the caller's height. Neither emulated tool models
  /// this, which is one source of their inaccuracy.
  bool model_callee_pops = false;
  /// At CFG joins with conflicting heights: true → result is unknown
  /// (loses recall, keeps precision); false → keep the first-seen value
  /// (keeps recall, loses precision).
  bool conflicts_become_unknown = true;
};

/// ANGR-like configuration: no frame-pointer tracking, conflicts unknown.
[[nodiscard]] constexpr StackAnalysisConfig angr_like_config() {
  return {.track_frame_pointer = false,
          .model_callee_pops = false,
          .conflicts_become_unknown = true};
}

/// DYNINST-like configuration: frame-pointer tracking, first-wins joins.
[[nodiscard]] constexpr StackAnalysisConfig dyninst_like_config() {
  return {.track_frame_pointer = true,
          .model_callee_pops = false,
          .conflicts_become_unknown = false};
}

/// Exact configuration used by tests (all capabilities on).
[[nodiscard]] constexpr StackAnalysisConfig precise_config() {
  return {.track_frame_pointer = true,
          .model_callee_pops = true,
          .conflicts_become_unknown = true};
}

/// Per-instruction stack height. Missing key = instruction not reached;
/// std::nullopt = reached but height unknown.
using HeightMap = std::map<std::uint64_t, std::optional<std::int64_t>>;

/// Runs the dataflow over one function. \p callee_pops maps function
/// entries to the extra bytes their `ret imm16` pops (empty when
/// !config.model_callee_pops or no such callees).
[[nodiscard]] HeightMap analyze_stack_heights(
    const disasm::CodeView& code, const disasm::Function& fn,
    const StackAnalysisConfig& config,
    const std::map<std::uint64_t, std::uint64_t>& callee_pops = {});

/// Scans every function's `ret imm16` instructions to build the callee-pop
/// table consumed by analyze_stack_heights.
[[nodiscard]] std::map<std::uint64_t, std::uint64_t> compute_callee_pops(
    const disasm::CodeView& code, const disasm::Result& result);

}  // namespace fetch::analysis
