#include <gtest/gtest.h>

#include "analysis/stack_height.hpp"
#include "disasm/recursive.hpp"
#include "ehframe/cfi_eval.hpp"
#include "ehframe/eh_frame.hpp"
#include "helpers.hpp"
#include "synth/codegen.hpp"
#include "synth/corpus.hpp"

namespace fetch::analysis {
namespace {

using test::kTextAddr;
using test::MiniBinary;
using x86::Assembler;
using x86::Cond;
using x86::Label;
using x86::MemRef;
using x86::Reg;

/// Builds the function, runs safe disassembly, returns (fn, heights).
struct Analyzed {
  elf::ElfFile elf;
  disasm::Result result;
};

Analyzed analyze_fn(Assembler& a, std::vector<std::uint64_t> seeds = {}) {
  if (seeds.empty()) {
    seeds.push_back(kTextAddr);
  }
  elf::ElfFile elf = MiniBinary(a).build();
  disasm::CodeView code(elf);
  disasm::Result r = disasm::analyze(code, seeds, {});
  return {std::move(elf), std::move(r)};
}

TEST(StackHeight, PrologueEpilogue) {
  Assembler a(kTextAddr);
  a.push(Reg::kRbx);              // h: 0 -> 8
  a.sub_ri(Reg::kRsp, 0x20);      // h: 8 -> 40
  a.mov_ri32(Reg::kRax, 1);       // h: 40
  a.add_ri(Reg::kRsp, 0x20);      // h: 40 -> 8
  a.pop(Reg::kRbx);               // h: 8 -> 0
  a.ret();
  Analyzed an = analyze_fn(a);
  disasm::CodeView code(an.elf);
  const auto heights = analyze_stack_heights(
      code, an.result.functions.at(kTextAddr), precise_config());

  EXPECT_EQ(heights.at(kTextAddr), 0);            // before push
  EXPECT_EQ(heights.at(kTextAddr + 1), 8);        // before sub
  EXPECT_EQ(heights.at(kTextAddr + 5), 40);       // before mov
  EXPECT_EQ(heights.at(kTextAddr + 10), 40);      // before add
  EXPECT_EQ(heights.at(kTextAddr + 14), 8);       // before pop
  EXPECT_EQ(heights.at(kTextAddr + 15), 0);       // before ret
}

TEST(StackHeight, FramePointerWithLeave) {
  Assembler a(kTextAddr);
  a.push(Reg::kRbp);
  a.mov_rr(Reg::kRbp, Reg::kRsp);
  a.sub_ri(Reg::kRsp, 0x10);
  a.leave();
  a.ret();
  Analyzed an = analyze_fn(a);
  disasm::CodeView code(an.elf);
  const auto& fn = an.result.functions.at(kTextAddr);

  // With frame-pointer tracking, leave restores a known height.
  const auto with_fp =
      analyze_stack_heights(code, fn, dyninst_like_config());
  const std::uint64_t ret_addr = kTextAddr + 1 + 3 + 4 + 1;
  EXPECT_EQ(with_fp.at(ret_addr), 0);

  // Without it (ANGR-like), the height after leave is unknown.
  const auto without_fp =
      analyze_stack_heights(code, fn, angr_like_config());
  EXPECT_FALSE(without_fp.at(ret_addr).has_value());
}

TEST(StackHeight, CalleePopsModeledOnlyWhenEnabled) {
  // if/else around a call to a ret-16 helper (the Table IV construct).
  Assembler a(kTextAddr);
  Label skip = a.label();
  Label helper = a.label();
  a.test_rr(Reg::kRdi, Reg::kRdi);
  a.jcc(Cond::kE, skip);
  a.sub_ri(Reg::kRsp, 16);
  a.call(helper);
  a.bind(skip);
  a.ret();
  a.bind(helper);
  a.raw({0xc2, 0x10, 0x00});  // ret 16

  const std::uint64_t helper_addr = a.address_of(helper);
  const std::uint64_t skip_addr = a.address_of(skip);
  Analyzed an = analyze_fn(a, {kTextAddr, helper_addr});
  disasm::CodeView code(an.elf);
  const auto& fn = an.result.functions.at(kTextAddr);
  const auto pops = compute_callee_pops(code, an.result);
  ASSERT_EQ(pops.at(helper_addr), 16u);

  // Precise config: both paths join at height 0 → exact.
  const auto precise =
      analyze_stack_heights(code, fn, precise_config(), pops);
  EXPECT_EQ(precise.at(skip_addr), 0);

  // ANGR-like (no callee-pop model, conflicts → unknown): join is unknown.
  const auto angr = analyze_stack_heights(code, fn, angr_like_config());
  EXPECT_FALSE(angr.at(skip_addr).has_value());

  // DYNINST-like (first-seen wins): join keeps one of the two values —
  // reported, but possibly wrong (precision loss).
  const auto dyninst =
      analyze_stack_heights(code, fn, dyninst_like_config());
  ASSERT_TRUE(dyninst.count(skip_addr));
  EXPECT_TRUE(dyninst.at(skip_addr).has_value());
}

TEST(StackHeight, RspClobberPoisons) {
  Assembler a(kTextAddr);
  a.push(Reg::kRbx);
  a.raw({0x48, 0x83, 0xe4, 0xf0});  // and rsp, -16
  a.pop(Reg::kRbx);
  a.ret();
  Analyzed an = analyze_fn(a);
  disasm::CodeView code(an.elf);
  const auto heights = analyze_stack_heights(
      code, an.result.functions.at(kTextAddr), dyninst_like_config());
  EXPECT_EQ(heights.at(kTextAddr), 0);
  EXPECT_FALSE(heights.at(kTextAddr + 5).has_value());  // after the and
}

TEST(StackHeight, BranchesWithEqualHeightsJoinCleanly) {
  Assembler a(kTextAddr);
  Label other = a.label();
  Label join = a.label();
  a.push(Reg::kRbx);
  a.test_rr(Reg::kRdi, Reg::kRdi);
  a.jcc(Cond::kE, other);
  a.mov_ri32(Reg::kRax, 1);
  a.jmp(join);
  a.bind(other);
  a.mov_ri32(Reg::kRax, 2);
  a.bind(join);
  a.pop(Reg::kRbx);
  a.ret();
  Analyzed an = analyze_fn(a);
  disasm::CodeView code(an.elf);
  const auto heights = analyze_stack_heights(
      code, an.result.functions.at(kTextAddr), angr_like_config());
  ASSERT_TRUE(heights.count(a.address_of(join)));
  EXPECT_EQ(heights.at(a.address_of(join)), 8);
}

TEST(StackHeight, AgreesWithCfiOnCorpusFunctions) {
  // Property: on complete-CFI functions of a corpus binary, the precise
  // static analysis agrees with the CFI-recorded heights wherever both
  // are defined (the baseline relationship behind Table IV).
  auto spec = synth::make_program(synth::projects()[1],
                                  synth::profile_for("gcc", "O2"), 1234);
  const synth::SynthBinary bin = synth::generate(spec);
  const elf::ElfFile elf(bin.image);
  disasm::CodeView code(elf);
  const auto eh = eh::EhFrame::from_elf(elf);
  ASSERT_TRUE(eh.has_value());
  std::vector<std::uint64_t> seeds = eh->pc_begins();
  disasm::Options dopts;
  dopts.conditional_noreturn = bin.truth.error_like;
  const disasm::Result r = disasm::analyze(code, seeds, dopts);
  const auto pops = compute_callee_pops(code, r);

  std::size_t compared = 0;
  std::size_t disagreements = 0;
  for (const auto& [entry, fn] : r.functions) {
    const eh::Fde* fde = eh->fde_covering(entry);
    if (fde == nullptr || fde->pc_begin != entry) {
      continue;
    }
    const auto table = eh::evaluate_cfi(eh->cie_for(*fde), *fde);
    if (!table || !table->complete_stack_height()) {
      continue;
    }
    const auto heights =
        analyze_stack_heights(code, *fn, precise_config(), pops);
    for (const auto& [addr, h] : heights) {
      if (!h || addr >= fde->pc_end()) {
        continue;
      }
      const auto cfi_h = table->stack_height_at(addr);
      if (!cfi_h) {
        continue;
      }
      ++compared;
      disagreements += (*cfi_h != *h) ? 1 : 0;
    }
  }
  EXPECT_GT(compared, 200u);
  EXPECT_EQ(disagreements, 0u);
}

}  // namespace
}  // namespace fetch::analysis
