#pragma once

/// \file tail_call_merger.hpp
/// Algorithm 1 from the paper (§V-B): conservative tail-call detection and
/// non-contiguous-function merging, fixing the false function starts that
/// call frames themselves introduce.
///
/// For every direct/conditional jump `j` in function `f` with target `t`
/// outside `f`:
///   * `j` is a *tail call* iff
///       - the stack height at `j` is 0 (rsp points at the return address),
///         taken from the CFI-recorded heights, never from static analysis
///         (Table IV motivates this choice); functions whose CFI lacks
///         complete stack-height information are skipped entirely;
///       - the target meets the calling convention; and
///       - the target is referenced from somewhere other than jumps inside
///         `f` (this restriction cannot create false tail calls, and any
///         missed tail call's target is referenced nowhere else, so missing
///         it merely "inlines" the target — harmless).
///     Tail-call targets become function starts if not already known.
///   * otherwise, if `t` is a detected function start whose only reference
///     is `j`, then `t` is the continuation of a non-contiguous `f`:
///     merge `t` into `f` and remove it from the start list.
///
/// Additionally (§V-B end): raw FDE starts that violate the calling
/// convention (developer-mislabeled CFI, Figure 6b) are removed.

#include <cstdint>
#include <map>
#include <set>

#include "disasm/code_view.hpp"
#include "disasm/recursive.hpp"
#include "ehframe/eh_frame.hpp"

namespace fetch::core {

struct MergeOptions {
  /// When true (the paper's design), stack heights at jump sites come from
  /// CFI and functions with incomplete CFI height data are skipped. When
  /// false, heights come from static analysis (the Table IV ablation).
  bool use_cfi_heights = true;
  /// Static-analysis fallback selector for the ablation (ignored when
  /// use_cfi_heights): true → DYNINST-like, false → ANGR-like.
  bool static_dyninst_like = true;
};

struct MergeOutcome {
  /// part start -> merged-into function entry.
  std::map<std::uint64_t, std::uint64_t> merged;
  /// New starts discovered as tail-call targets.
  std::set<std::uint64_t> tail_targets;
  /// Functions skipped for lack of complete CFI stack-height info.
  std::set<std::uint64_t> skipped_incomplete;
};

/// Runs Algorithm 1 over \p state (mutating: merged parts are removed from
/// `state.starts`/`state.functions`, and a merged copy of each parent's
/// body replaces it in `state.functions`, so a body shared with a
/// BodyCache is never written; tail-call targets are added). \p data_refs
/// is the conservative data reference set (scan_data_pointers) used for
/// HasRefTo; \p fde_starts is the raw FDE PC Begin set (only FDE-carrying
/// targets are merge candidates — "whether the target has an FDE record",
/// §V-B).
[[nodiscard]] MergeOutcome merge_noncontiguous_functions(
    const disasm::CodeView& code, disasm::Result& state,
    const eh::EhFrame& eh, const std::set<std::uint64_t>& data_refs,
    const std::set<std::uint64_t>& fde_starts,
    const MergeOptions& options = {});

}  // namespace fetch::core
