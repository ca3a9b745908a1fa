#pragma once

/// \file linear.hpp
/// Linear-sweep disassembly over a byte range, with objdump-style error
/// resynchronization. Used by the NUCLEUS/RADARE2-like baselines and by
/// ANGR's gap "Scan" heuristic emulation (§IV-D), and by the ROP gadget
/// finder.

#include <cstdint>
#include <vector>

#include "disasm/code_view.hpp"
#include "x86/insn.hpp"

namespace fetch::disasm {

struct LinearPiece {
  /// First correctly-decoded address of a contiguous run.
  std::uint64_t start = 0;
  /// Decoded instructions of the run.
  std::vector<x86::Insn> insns;
};

/// Decodes [lo, hi) sequentially. On an undecodable byte, skips forward one
/// byte at a time until decoding resumes, starting a new piece.
[[nodiscard]] std::vector<LinearPiece> linear_sweep(const CodeView& code,
                                                    std::uint64_t lo,
                                                    std::uint64_t hi);

}  // namespace fetch::disasm
