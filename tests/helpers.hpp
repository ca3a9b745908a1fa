#pragma once

/// \file helpers.hpp
/// Shared test scaffolding: a tiny builder that assembles hand-written
/// code/data/eh_frame into a parseable ELF image, so tests can construct
/// precise scenarios without going through the corpus synthesizer.

#include <cstdint>
#include <vector>

#include "disasm/code_view.hpp"
#include "ehframe/eh_builder.hpp"
#include "elf/elf_builder.hpp"
#include "elf/elf_file.hpp"
#include "x86/assembler.hpp"

namespace fetch::test {

constexpr std::uint64_t kTextAddr = 0x401000;
constexpr std::uint64_t kEhFrameAddr = 0x500000;
constexpr std::uint64_t kRodataAddr = 0x600000;
constexpr std::uint64_t kDataAddr = 0x700000;

/// Builds an ELF with .text from \p a, optional .rodata/.data/.eh_frame.
class MiniBinary {
 public:
  explicit MiniBinary(x86::Assembler& a) : text_(a.finish()) {}

  MiniBinary& rodata(std::vector<std::uint8_t> bytes) {
    rodata_ = std::move(bytes);
    return *this;
  }
  MiniBinary& data(std::vector<std::uint8_t> bytes) {
    data_ = std::move(bytes);
    return *this;
  }
  MiniBinary& eh_frame(const eh::EhFrameBuilder& builder) {
    eh_ = builder.build(kEhFrameAddr);
    return *this;
  }
  MiniBinary& entry(std::uint64_t e) {
    entry_ = e;
    return *this;
  }

  [[nodiscard]] elf::ElfFile build() const {
    elf::ElfBuilder b;
    b.add_section(".text", elf::kShtProgbits,
                  elf::kShfAlloc | elf::kShfExecinstr, kTextAddr, text_, 16);
    if (!eh_.empty()) {
      b.add_section(".eh_frame", elf::kShtProgbits, elf::kShfAlloc,
                    kEhFrameAddr, eh_, 8);
    }
    if (!rodata_.empty()) {
      b.add_section(".rodata", elf::kShtProgbits, elf::kShfAlloc, kRodataAddr,
                    rodata_, 8);
    }
    if (!data_.empty()) {
      b.add_section(".data", elf::kShtProgbits,
                    elf::kShfAlloc | elf::kShfWrite, kDataAddr, data_, 8);
    }
    b.emit_symtab(false);
    b.set_entry(entry_ == 0 ? kTextAddr : entry_);
    return elf::ElfFile(b.build());
  }

 private:
  std::vector<std::uint8_t> text_;
  std::vector<std::uint8_t> rodata_;
  std::vector<std::uint8_t> data_;
  std::vector<std::uint8_t> eh_;
  std::uint64_t entry_ = 0;
};

/// The flow step a CodeView must publish for \p insn, derived here
/// independently: the record's fields plus the ElfFile queries the walks
/// would otherwise make per visit.
inline disasm::Step expected_step(const x86::Insn& insn,
                                  const elf::ElfFile& elf) {
  using disasm::Step;
  Step step;
  step.target = insn.target ? *insn.target : 0;
  step.length = insn.length;
  step.kind = insn.kind;
  if (elf.is_code_address(insn.addr + insn.length)) {
    step.flags |= Step::kNextIsCode;
  }
  if (insn.target && elf.is_code_address(*insn.target)) {
    step.flags |= Step::kTargetIsCode;
  }
  if (insn.mem_target) {
    step.flags |= Step::kHasMemTarget;
    if (elf.is_code_address(*insn.mem_target)) {
      step.flags |= Step::kMemIsCode;
    }
  }
  if (insn.imm && elf.section_at(*insn.imm) != nullptr) {
    step.flags |= Step::kImmInSection;
  }
  if (insn.imm && elf.is_code_address(*insn.imm)) {
    step.flags |= Step::kImmIsCode;
  }
  return step;
}

/// Little-endian u64 bytes (for .data pointer slots).
inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

}  // namespace fetch::test
