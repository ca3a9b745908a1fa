#pragma once

/// \file assembler.hpp
/// Small x86-64 assembler used by the corpus synthesizer to emit real
/// machine code. Supports labels with rel8/rel32/abs64 fixups and the
/// instruction subset the synthesizer needs (which is, by construction,
/// fully understood by fetch::x86::decode — tests assert the round trip).

#include <cstdint>
#include <optional>
#include <vector>

#include "util/error.hpp"
#include "x86/insn.hpp"

namespace fetch::x86 {

/// x86 condition codes (the low nibble of 0F 8x / 0F 9x opcodes).
enum class Cond : std::uint8_t {
  kO = 0x0,
  kNo = 0x1,
  kB = 0x2,
  kAe = 0x3,
  kE = 0x4,
  kNe = 0x5,
  kBe = 0x6,
  kA = 0x7,
  kS = 0x8,
  kNs = 0x9,
  kP = 0xa,
  kNp = 0xb,
  kL = 0xc,
  kGe = 0xd,
  kLe = 0xe,
  kG = 0xf,
};

class Assembler;

/// Opaque label handle. Create with Assembler::label(), place with bind().
struct Label {
  std::uint32_t id = UINT32_MAX;
  [[nodiscard]] bool valid() const { return id != UINT32_MAX; }
};

/// Memory operand builder for the assembler.
struct MemRef {
  std::optional<Reg> base;
  std::optional<Reg> index;
  std::uint8_t scale = 1;
  std::int32_t disp = 0;
  bool rip = false;
  std::uint64_t rip_target = 0;  // absolute VA (when rip && !rip_label)
  Label rip_label;               // label-relative (when valid())

  static MemRef at(Reg base, std::int32_t disp = 0) {
    MemRef m;
    m.base = base;
    m.disp = disp;
    return m;
  }
  static MemRef sib(Reg base, Reg index, std::uint8_t scale,
                    std::int32_t disp = 0) {
    MemRef m;
    m.base = base;
    m.index = index;
    m.scale = scale;
    m.disp = disp;
    return m;
  }
  /// [rip + disp32] resolved to the given absolute virtual address.
  static MemRef rip_abs(std::uint64_t target) {
    MemRef m;
    m.rip = true;
    m.rip_target = target;
    return m;
  }
  /// [rip + disp32] resolved to a label in the same assembler.
  static MemRef rip_to(Label l) {
    MemRef m;
    m.rip = true;
    m.rip_label = l;
    return m;
  }
};

class Assembler {
 public:
  /// \p base is the virtual address of the first emitted byte.
  explicit Assembler(std::uint64_t base) : base_(base) {}

  [[nodiscard]] std::uint64_t base() const { return base_; }
  [[nodiscard]] std::uint64_t pc() const { return base_ + buf_.size(); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

  Label label() {
    labels_.push_back(kUnbound);
    return Label{static_cast<std::uint32_t>(labels_.size() - 1)};
  }
  void bind(Label l) {
    FETCH_ASSERT(l.valid() && labels_[l.id] == kUnbound);
    labels_[l.id] = pc();
  }
  /// Creates a label already bound to an absolute address (possibly outside
  /// this assembler's buffer, e.g. a data-section address).
  Label label_at(std::uint64_t addr) {
    labels_.push_back(addr);
    return Label{static_cast<std::uint32_t>(labels_.size() - 1)};
  }
  [[nodiscard]] std::uint64_t address_of(Label l) const {
    FETCH_ASSERT(l.valid() && labels_[l.id] != kUnbound);
    return labels_[l.id];
  }

  /// Resolves all fixups and returns the code bytes. All referenced labels
  /// must be bound.
  [[nodiscard]] std::vector<std::uint8_t> finish();

  // --- Instructions (64-bit operand size unless noted) ---------------------
  void push(Reg r);
  void pop(Reg r);
  void mov_ri64(Reg r, std::uint64_t imm);   // movabs r, imm64
  void mov_ri32(Reg r, std::uint32_t imm);   // mov r32, imm32 (zero-extends)
  void mov_rr(Reg dst, Reg src);             // mov dst, src (64-bit)
  void mov_rm(Reg dst, const MemRef& m);     // mov dst, [m]
  void mov_rm32(Reg dst, const MemRef& m);   // mov dst32, [m]
  void mov_mr(const MemRef& m, Reg src);     // mov [m], src
  void mov_mi32(const MemRef& m, std::uint32_t imm);  // mov dword [m], imm
  void lea(Reg dst, const MemRef& m);
  void movsxd(Reg dst, const MemRef& m);     // movsxd dst, dword [m]
  void xor_rr(Reg dst, Reg src);             // 32-bit form (zeroing idiom)
  void add_rr(Reg dst, Reg src);
  void sub_rr(Reg dst, Reg src);
  void add_ri(Reg r, std::int32_t imm);
  void sub_ri(Reg r, std::int32_t imm);
  void cmp_ri(Reg r, std::int32_t imm);
  void cmp_rr(Reg a, Reg b);
  void test_rr(Reg a, Reg b);
  void imul_rr(Reg dst, Reg src);
  void shl_ri(Reg r, std::uint8_t imm);
  void call(Label target);
  void call_abs(std::uint64_t target);       // direct rel32 to absolute VA
  void call_reg(Reg r);
  void call_mem(const MemRef& m);
  void jmp(Label target);
  void jmp_abs(std::uint64_t target);
  void jmp_reg(Reg r);
  /// Short (rel8) unconditional jump; the target must land within ±127
  /// bytes (checked at finish()).
  void jmp_short(Label target);
  void jcc(Cond cc, Label target);
  /// Short (rel8) conditional jump.
  void jcc_short(Cond cc, Label target);
  void ret();
  void leave();
  void nop(std::size_t bytes = 1);           // canonical multi-byte nops
  void int3();
  void ud2();
  void hlt();
  void endbr64();
  void syscall();

  /// Raw escape hatch (used for deliberately odd byte sequences in tests).
  void raw(std::initializer_list<std::uint8_t> bytes) {
    for (const std::uint8_t b : bytes) {
      u8(b);
    }
  }

 private:
  static constexpr std::uint64_t kUnbound = ~0ULL;

  enum class FixKind : std::uint8_t { kRel32, kRel8, kAbs64 };
  struct Fixup {
    std::size_t offset;  // position of the displacement field in buf_
    std::uint32_t label;
    FixKind kind;
  };

  void u8(std::uint8_t b) { buf_.push_back(b); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void rex(bool w, bool r, bool x, bool b, bool force = false);
  void modrm_reg(std::uint8_t reg, std::uint8_t rm);
  /// Emits ModRM (+SIB/disp) for a memory operand; \p reg is the 3-bit
  /// reg/opcode field (extension bits handled by the caller via REX).
  void modrm_mem(std::uint8_t reg, const MemRef& m);
  /// REX for an r/m-form instruction with the given operands.
  void rex_rm(bool w, std::uint8_t reg, const MemRef& m);
  void rel32_to(Label l);

  std::uint64_t base_;
  std::vector<std::uint8_t> buf_;
  std::vector<std::uint64_t> labels_;
  std::vector<Fixup> fixups_;
};

}  // namespace fetch::x86
