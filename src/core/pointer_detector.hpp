#pragma once

/// \file pointer_detector.hpp
/// Soundness-driven function-pointer detection (§IV-E). For every candidate
/// pointer collected conservatively (sliding 8-byte windows + constants in
/// code), probing validates legitimacy by running conservative recursive
/// disassembly from the pointer and checking four error classes:
///   (i)   invalid opcodes;
///   (ii)  running into the middle of previously disassembled instructions;
///   (iii) control transfers into the middle of previously detected
///         functions;
///   (iv)  invalid calling conventions (non-argument registers must be
///         initialized before use).
/// Pointers that survive become new function starts; their instructions
/// are merged into the global state and any constants they reveal join the
/// candidate queue.

#include <cstdint>
#include <set>

#include "disasm/code_view.hpp"
#include "disasm/recursive.hpp"

namespace fetch::core {

struct PointerDetectionResult {
  /// Candidates accepted as function starts.
  std::set<std::uint64_t> accepted;
  /// Number of candidates probed (for the "0.31 per binary" style stats).
  std::size_t probed = 0;
};

struct PointerDetectionOptions {
  /// Restrict the data scan to 8-byte-aligned slots (DESIGN.md ablation
  /// #3). The paper's conservative superset keeps this false.
  bool aligned_only = false;
};

/// Probes pointer candidates against (and mutating) \p state: an accepted
/// pointer adds its start, instruction starts and covered bytes to \p
/// state, so later probes see them; it adds no function and no xrefs (the
/// caller reanalyzes with the enlarged start set). \p options is not read:
/// probing assumes every callee returns, so a probe also decodes the
/// bytes after a call to a no-return function and rejects the candidate
/// when they are not code. That is a useful filter: a build whose probes
/// stopped at calls to the pass' no-return functions accepted 33 more
/// starts on the 8 perfbench inputs, all of them false positives (symtab
/// F1 0.9618 → 0.9603; libtsan false positives 13 → 32).
[[nodiscard]] PointerDetectionResult detect_pointer_functions(
    const disasm::CodeView& code, disasm::Result& state,
    const disasm::Options& options,
    const PointerDetectionOptions& scan_options = {});

}  // namespace fetch::core
