#pragma once

/// \file insn.hpp
/// Decoded x86-64 instruction model. The decoder is *semantic-class*
/// oriented: it recovers exact lengths for (nearly) the full instruction
/// set, and detailed operand/semantics information for the subset that
/// function-start detection needs — control transfers, stack-pointer
/// arithmetic, moves/leas (pointer material, jump tables), and padding.

#include <cstdint>
#include <optional>
#include <string>

namespace fetch::x86 {

/// General-purpose registers, numbered as in ModRM/REX encoding.
enum class Reg : std::uint8_t {
  kRax = 0,
  kRcx = 1,
  kRdx = 2,
  kRbx = 3,
  kRsp = 4,
  kRbp = 5,
  kRsi = 6,
  kRdi = 7,
  kR8 = 8,
  kR9 = 9,
  kR10 = 10,
  kR11 = 11,
  kR12 = 12,
  kR13 = 13,
  kR14 = 14,
  kR15 = 15,
};

[[nodiscard]] constexpr std::uint16_t reg_bit(Reg r) {
  return static_cast<std::uint16_t>(1u << static_cast<unsigned>(r));
}

[[nodiscard]] const char* reg_name(Reg r);

/// Coarse semantic class, sufficient for disassembly and detection logic.
enum class Kind : std::uint8_t {
  kOther,         ///< ordinary fall-through instruction
  kNop,           ///< nop / multi-byte nop (potential padding)
  kInt3,          ///< 0xCC padding / trap
  kHlt,
  kUd2,
  kSyscall,
  kEndbr,         ///< endbr64 (CET landing pad)
  kPush,
  kPop,
  kLea,
  kMov,           ///< register/memory moves incl. movzx/movsx/movsxd
  kCallDirect,
  kCallIndirect,
  kJmpDirect,     ///< unconditional direct jmp (rel8/rel32)
  kJmpIndirect,   ///< jmp r/m64
  kCondJmp,       ///< jcc rel8/rel32 (also loop/jrcxz)
  kRet,
  kLeave,
};

/// Memory operand shape ([base + index*scale + disp] or [rip + disp]).
struct MemOperand {
  std::optional<Reg> base;
  std::optional<Reg> index;
  std::uint8_t scale = 1;
  std::int64_t disp = 0;
  bool rip_relative = false;
  friend bool operator==(const MemOperand&, const MemOperand&) = default;
};

struct Insn {
  std::uint64_t addr = 0;
  std::uint8_t length = 0;
  Kind kind = Kind::kOther;

  /// Target of a direct call/jmp/jcc, already resolved to an absolute
  /// virtual address.
  std::optional<std::uint64_t> target;

  /// Absolute address referenced by a RIP-relative memory operand.
  std::optional<std::uint64_t> mem_target;

  /// Immediate operand (zero-extended bit pattern of the operand). Used by
  /// the pointer scan (constants in code) and rsp arithmetic.
  std::optional<std::uint64_t> imm;

  /// Statically-known net effect on rsp (push/pop/sub/add/ret...). Empty
  /// when the instruction does not touch rsp.
  std::optional<std::int64_t> rsp_delta;

  /// rsp is written in a way we cannot model as a delta (mov rsp,..., leave,
  /// and rsp,imm ...). Stack-height analyses must give up or special-case.
  bool rsp_clobbered = false;

  /// Memory operand details (when a ModRM memory form is present and the
  /// instruction is in the detailed subset).
  std::optional<MemOperand> mem;

  /// The ModRM `reg` operand, when it names a GPR in the detailed subset.
  std::optional<Reg> reg_op;
  /// The ModRM `rm` operand when mod==11 (register form).
  std::optional<Reg> rm_reg;

  /// GPR def/use bitmasks (best effort; exact for the detailed subset,
  /// empty for instructions outside it).
  std::uint16_t regs_read = 0;
  std::uint16_t regs_written = 0;

  /// True for instructions used by compilers as inter-function padding.
  [[nodiscard]] bool is_padding() const {
    return kind == Kind::kNop || kind == Kind::kInt3;
  }

  /// True if control never falls through to the next instruction.
  [[nodiscard]] bool is_terminator() const {
    switch (kind) {
      case Kind::kJmpDirect:
      case Kind::kJmpIndirect:
      case Kind::kRet:
      case Kind::kUd2:
      case Kind::kHlt:
        return true;
      default:
        return false;
    }
  }

  [[nodiscard]] bool is_call() const {
    return kind == Kind::kCallDirect || kind == Kind::kCallIndirect;
  }

  [[nodiscard]] bool is_branch() const {
    switch (kind) {
      case Kind::kJmpDirect:
      case Kind::kJmpIndirect:
      case Kind::kCondJmp:
      case Kind::kCallDirect:
      case Kind::kCallIndirect:
        return true;
      default:
        return false;
    }
  }

  /// Short human-readable form (class + key operands), for diagnostics.
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const Insn&, const Insn&) = default;
};

}  // namespace fetch::x86
