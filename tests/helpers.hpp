#pragma once

/// \file helpers.hpp
/// Shared test scaffolding: a tiny builder that assembles hand-written
/// code/data/eh_frame into a parseable ELF image, so tests can construct
/// precise scenarios without going through the corpus synthesizer.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "disasm/code_view.hpp"
#include "ehframe/eh_builder.hpp"
#include "elf/elf_builder.hpp"
#include "elf/elf_file.hpp"
#include "x86/assembler.hpp"
#include "x86/decoder.hpp"

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
  if (insn.target) {
    step.target = *insn.target;
  } else if (insn.mem_target) {
    step.target = *insn.mem_target;
  } else if (insn.imm && elf.section_at(*insn.imm) != nullptr) {
    step.target = *insn.imm;
  }
  step.regs_read = insn.regs_read;
  step.regs_written = insn.regs_written;
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

/// Every field of an x86::Insn, flattened for equality.
inline std::string insn_fingerprint(const x86::Insn& insn) {
  std::ostringstream os;
  auto opt = [&os](const char* name, const auto& v) {
    if (v) {
      os << "|" << name << "=" << static_cast<std::uint64_t>(*v);
    }
  };
  os << insn.to_string() << "|addr=" << insn.addr
     << "|len=" << static_cast<int>(insn.length)
     << "|kind=" << static_cast<int>(insn.kind) << "|rd=" << insn.regs_read
     << "|wr=" << insn.regs_written << "|clob=" << insn.rsp_clobbered;
  opt("t", insn.target);
  opt("mt", insn.mem_target);
  opt("imm", insn.imm);
  opt("rsp", insn.rsp_delta);
  opt("reg", insn.reg_op);
  opt("rm", insn.rm_reg);
  if (insn.mem) {
    opt("base", insn.mem->base);
    opt("index", insn.mem->index);
    os << "|scale=" << static_cast<int>(insn.mem->scale)
       << "|disp=" << insn.mem->disp << "|rip=" << insn.mem->rip_relative;
  }
  return os.str();
}

/// Checks every slot of \p code's executable bytes: the step the cache
/// publishes (or its absence) against a fresh x86::decode of the same
/// bytes through the same 15-byte window, clamped to the slot's run, and the
/// re-decode of the slot against that decode. Returns the number of
/// decoded slots; \p lo / \p hi narrow the check to an address range.
inline std::uint64_t expect_steps_match_fresh_decode(
    const disasm::CodeView& code, std::uint64_t lo = 0,
    std::uint64_t hi = ~std::uint64_t{0}) {
  std::uint64_t decoded = 0;
  for (const disasm::CodeView::SlotRange& range : code.slot_ranges()) {
    const auto bytes = code.bytes_at(range.addr, range.count);
    EXPECT_TRUE(bytes.has_value());
    if (!bytes) {
      continue;
    }
    for (std::uint64_t off = 0; off < range.count; ++off) {
      const std::uint64_t addr = range.addr + off;
      if (addr < lo || addr >= hi) {
        continue;
      }
      const auto fresh = x86::decode(
          bytes->subspan(off, std::min<std::uint64_t>(15, range.count - off)),
          addr);
      const disasm::CodeView::Rec rec = code.rec_at(addr);
      EXPECT_EQ(rec.step != nullptr, fresh.has_value()) << std::hex << addr;
      if (rec.step == nullptr || !fresh) {
        continue;
      }
      EXPECT_EQ(*rec.step, expected_step(*fresh, code.elf()))
          << std::hex << addr;
      EXPECT_EQ(&code.step(rec.slot), rec.step) << std::hex << addr;
      x86::Insn again;
      code.redecode(rec.slot, again);
      if (!(again == *fresh)) {
        ADD_FAILURE() << std::hex << addr << ": " << insn_fingerprint(again)
                      << " vs " << insn_fingerprint(*fresh);
      }
      ++decoded;
    }
  }
  return decoded;
}

/// Little-endian u64 bytes (for .data pointer slots).
inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

}  // namespace fetch::test
