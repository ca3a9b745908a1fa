#include "eval/gadget.hpp"

namespace fetch::eval {

namespace {

using x86::Kind;

/// Maximum instructions per gadget (ROPgadget's default depth).
constexpr std::size_t kMaxInsns = 5;
/// Bytes scanned forward from each start address.
constexpr std::size_t kWindowBytes = 64;

/// Is there a gadget starting exactly at \p addr?
bool gadget_at(const disasm::CodeView& code, std::uint64_t addr) {
  std::uint64_t pc = addr;
  for (std::size_t i = 0; i < kMaxInsns; ++i) {
    const disasm::Step* step = code.rec_at(pc).step;
    if (step == nullptr) {
      return false;
    }
    switch (step->kind) {
      case Kind::kRet:
      case Kind::kJmpIndirect:
      case Kind::kCallIndirect:
        return true;
      case Kind::kJmpDirect:
      case Kind::kCondJmp:
      case Kind::kCallDirect:
      case Kind::kUd2:
      case Kind::kHlt:
        return false;  // direct transfers end attacker-useful sequences
      default:
        pc += step->length;
        break;
    }
  }
  return false;
}

}  // namespace

std::size_t count_gadgets_at(const disasm::CodeView& code,
                             const std::set<std::uint64_t>& starts) {
  std::set<std::uint64_t> gadget_addrs;
  for (const std::uint64_t start : starts) {
    for (std::size_t off = 0; off < kWindowBytes; ++off) {
      const std::uint64_t addr = start + off;
      if (!code.is_code(addr)) {
        break;
      }
      if (gadget_at(code, addr)) {
        gadget_addrs.insert(addr);
      }
    }
  }
  return gadget_addrs.size();
}

}  // namespace fetch::eval
