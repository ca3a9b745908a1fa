#pragma once

/// \file callconv.hpp
/// System-V x64 calling-convention validation, the rule the paper uses in
/// §IV-E (pointer legitimacy) and §V-B (tail-call targets, mislabeled
/// FDEs): at a genuine function entry, every register other than the six
/// argument registers (rdi, rsi, rdx, rcx, r8, r9) must be written before
/// it is read. Reads by `push` (callee-save spills) and uses of rsp do not
/// count as violations.

#include <cstdint>

#include "disasm/code_view.hpp"

namespace fetch::analysis {

/// Returns true when the code at \p entry satisfies the convention, i.e.
/// no path from \p entry reads a non-argument register before initializing
/// it. The search is bounded: at most 64 paths (branches fork paths), each
/// examined for at most 48 instructions.
[[nodiscard]] bool meets_calling_convention(const disasm::CodeView& code,
                                            std::uint64_t entry);

}  // namespace fetch::analysis
