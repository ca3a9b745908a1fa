#include "disasm/linear.hpp"

namespace fetch::disasm {

std::vector<LinearPiece> linear_sweep(const CodeView& code, std::uint64_t lo,
                                      std::uint64_t hi) {
  std::vector<LinearPiece> pieces;
  std::uint64_t addr = lo;
  LinearPiece current;
  bool in_piece = false;

  while (addr < hi) {
    const std::optional<x86::Insn> insn = code.decode(addr);
    if (insn && addr + insn->length <= hi) {
      if (!in_piece) {
        current = LinearPiece{addr, {}};
        in_piece = true;
      }
      current.insns.push_back(*insn);
      addr += insn->length;
    } else {
      if (in_piece) {
        pieces.push_back(std::move(current));
        in_piece = false;
      }
      ++addr;  // resynchronize byte-by-byte
    }
  }
  if (in_piece) {
    pieces.push_back(std::move(current));
  }
  return pieces;
}

}  // namespace fetch::disasm
