#include <gtest/gtest.h>

#include "core/tail_call_merger.hpp"
#include "disasm/recursive.hpp"
#include "ehframe/cfi_eval.hpp"
#include "helpers.hpp"

namespace fetch::core {
namespace {

using test::kEhFrameAddr;
using test::kTextAddr;
using test::MiniBinary;
using x86::Assembler;
using x86::Cond;
using x86::Label;
using x86::Reg;

/// Scenario builder: a "hot" function with a conditional jump to a distant
/// part, both with FDEs. Returns everything the merger needs.
struct Scenario {
  elf::ElfFile elf;
  eh::EhFrame eh;
  disasm::Result state;
  std::set<std::uint64_t> fde_starts;
  std::uint64_t hot = 0;
  std::uint64_t part = 0;
};

/// \p complete_cfi: emit full stack-height CFI for the hot function;
/// \p height_at_jump_zero: place the jump after the epilogue (height 0)
/// instead of mid-body;
/// \p extra_call_to_part: add a caller referencing the part directly.
Scenario build_scenario(bool complete_cfi, bool height_at_jump_zero,
                        bool extra_call_to_part) {
  Assembler a(kTextAddr);
  Label hot = a.label();
  Label part = a.label();
  Label resume = a.label();
  Label caller = a.label();

  a.bind(hot);
  a.push(Reg::kRbx);                       // height 8
  std::uint64_t jump_site;
  if (height_at_jump_zero) {
    a.mov_ri32(Reg::kRax, 1);
    a.pop(Reg::kRbx);                      // height 0
    jump_site = a.pc();
    a.jmp(part);                           // jump at height 0
  } else {
    jump_site = a.pc();
    a.test_rr(Reg::kRsi, Reg::kRsi);
    a.jcc(Cond::kE, part);                 // jump at height 8
    a.bind(resume);
    a.pop(Reg::kRbx);
    a.ret();
  }
  const std::uint64_t hot_end = a.pc();

  if (extra_call_to_part) {
    a.bind(caller);
    a.call(part);
    a.ret();
  }

  a.nop(8);
  a.bind(part);
  a.mov_ri32(Reg::kRax, 7);
  if (height_at_jump_zero) {
    a.ret();                               // part at height 0: callable
  } else {
    a.jmp(resume);                         // part returns to the hot body
  }
  const std::uint64_t part_end = a.pc();

  const std::uint64_t hot_addr = a.address_of(hot);
  const std::uint64_t part_addr = a.address_of(part);

  eh::EhFrameBuilder ehb;
  if (complete_cfi) {
    std::vector<eh::CfiOp> ops = {eh::CfiOp::advance(1),
                                  eh::CfiOp::def_cfa_offset(16),
                                  eh::CfiOp::offset(eh::dwreg::kRbx, 2)};
    if (height_at_jump_zero) {
      // mov(5) then pop(1): back to 8 before the jump.
      ops.push_back(eh::CfiOp::advance(6));
      ops.push_back(eh::CfiOp::def_cfa_offset(8));
    }
    ehb.add_fde(hot_addr, hot_end - hot_addr, std::move(ops));
  } else {
    // Frame-pointer-style CFI: CFA not rsp-based → incomplete.
    ehb.add_fde(hot_addr, hot_end - hot_addr,
                {eh::CfiOp::def_cfa_register(eh::dwreg::kRbp)});
  }
  ehb.add_fde(part_addr, part_end - part_addr,
              {eh::CfiOp::def_cfa_offset(height_at_jump_zero ? 8 : 16)});

  std::vector<std::uint64_t> seeds = {hot_addr, part_addr};
  if (extra_call_to_part) {
    seeds.push_back(a.address_of(caller));
  }

  elf::ElfFile elf = MiniBinary(a).eh_frame(ehb).build();
  eh::EhFrame eh_parsed = *eh::EhFrame::from_elf(elf);
  disasm::CodeView code(elf);
  disasm::Result state = disasm::analyze(code, seeds, {});
  (void)jump_site;
  return Scenario{std::move(elf),
                  std::move(eh_parsed),
                  std::move(state),
                  {hot_addr, part_addr},
                  hot_addr,
                  part_addr};
}

TEST(TailCallMerger, MergesNonContiguousPart) {
  Scenario s = build_scenario(/*complete_cfi=*/true,
                              /*height_at_jump_zero=*/false,
                              /*extra_call_to_part=*/false);
  disasm::CodeView code(s.elf);
  const std::set<std::uint64_t> no_data;
  const MergeOutcome mo = merge_noncontiguous_functions(
      code, s.state, s.eh, no_data, s.fde_starts);
  ASSERT_EQ(mo.merged.size(), 1u);
  EXPECT_EQ(mo.merged.begin()->first, s.part);
  EXPECT_EQ(mo.merged.begin()->second, s.hot);
  EXPECT_FALSE(s.state.starts.count(s.part));
  // The part's instructions now belong to the hot function.
  EXPECT_TRUE(s.state.functions.at(s.hot).contains(s.part));
}

TEST(TailCallMerger, MergeCopiesTheCachedParentBody) {
  Scenario s = build_scenario(/*complete_cfi=*/true,
                              /*height_at_jump_zero=*/false,
                              /*extra_call_to_part=*/false);
  disasm::CodeView code(s.elf);
  disasm::BodyCache cache;
  const std::vector<std::uint64_t> seeds = {s.hot, s.part};
  disasm::Result state = disasm::analyze(code, seeds, {}, &cache);
  const disasm::FunctionTable::Body cached =
      state.functions.find(s.hot)->second;
  const disasm::Function before = *cached;
  const std::set<std::uint64_t> no_data;
  const MergeOutcome mo = merge_noncontiguous_functions(
      code, state, s.eh, no_data, s.fde_starts);
  ASSERT_EQ(mo.merged.size(), 1u);
  EXPECT_TRUE(state.functions.at(s.hot).contains(s.part));
  EXPECT_NE(state.functions.find(s.hot)->second, cached);
  // Copy-on-write: the body the cache shares is untouched...
  EXPECT_FALSE(cached->contains(s.part));
  EXPECT_EQ(cached->insn_addrs, before.insn_addrs);
  EXPECT_EQ(cached->jumps.size(), before.jumps.size());
  EXPECT_EQ(cached->max_end, before.max_end);
  // ...so a reanalysis over the cache reuses it unmerged.
  const disasm::Result again = disasm::analyze(code, seeds, {}, &cache);
  EXPECT_EQ(again.functions.find(s.hot)->second, cached);
  EXPECT_EQ(again.functions.count(s.part), 1u);
}

TEST(TailCallMerger, SkipsIncompleteCfi) {
  Scenario s = build_scenario(/*complete_cfi=*/false,
                              /*height_at_jump_zero=*/false,
                              /*extra_call_to_part=*/false);
  disasm::CodeView code(s.elf);
  const std::set<std::uint64_t> no_data;
  const MergeOutcome mo = merge_noncontiguous_functions(
      code, s.state, s.eh, no_data, s.fde_starts);
  EXPECT_TRUE(mo.merged.empty());
  EXPECT_TRUE(mo.skipped_incomplete.count(s.hot));
  EXPECT_TRUE(s.state.starts.count(s.part));  // residual false positive
}

TEST(TailCallMerger, DetectsTailCallWhenReferencedElsewhere) {
  // Height 0 at the jump + the target is called from another function:
  // a genuine tail call — the target must stay a function.
  Scenario s = build_scenario(/*complete_cfi=*/true,
                              /*height_at_jump_zero=*/true,
                              /*extra_call_to_part=*/true);
  disasm::CodeView code(s.elf);
  const std::set<std::uint64_t> no_data;
  const MergeOutcome mo = merge_noncontiguous_functions(
      code, s.state, s.eh, no_data, s.fde_starts);
  EXPECT_TRUE(mo.merged.empty());
  EXPECT_TRUE(s.state.starts.count(s.part));
}

TEST(TailCallMerger, InlinesTailOnlyTarget) {
  // Height 0 + no other references: Algorithm 1 cannot prove a tail call
  // and merges — the deliberate, harmless inlining of §V-C.
  Scenario s = build_scenario(/*complete_cfi=*/true,
                              /*height_at_jump_zero=*/true,
                              /*extra_call_to_part=*/false);
  disasm::CodeView code(s.elf);
  const std::set<std::uint64_t> no_data;
  const MergeOutcome mo = merge_noncontiguous_functions(
      code, s.state, s.eh, no_data, s.fde_starts);
  ASSERT_EQ(mo.merged.size(), 1u);
  EXPECT_FALSE(s.state.starts.count(s.part));
}

TEST(TailCallMerger, DataReferenceBlocksMerge) {
  // Same shape as InlinesTailOnlyTarget but the part's address appears in
  // the conservative data-reference set: HasRefTo holds, so at height 0
  // this is a tail call and the target survives.
  Scenario s = build_scenario(/*complete_cfi=*/true,
                              /*height_at_jump_zero=*/true,
                              /*extra_call_to_part=*/false);
  disasm::CodeView code(s.elf);
  const std::set<std::uint64_t> data_refs = {s.part};
  const MergeOutcome mo = merge_noncontiguous_functions(
      code, s.state, s.eh, data_refs, s.fde_starts);
  EXPECT_TRUE(mo.merged.empty());
  EXPECT_TRUE(mo.tail_targets.empty());  // already a known start
  EXPECT_TRUE(s.state.starts.count(s.part));
}

TEST(TailCallMerger, NonFdeTargetNeverMerged) {
  Scenario s = build_scenario(/*complete_cfi=*/true,
                              /*height_at_jump_zero=*/false,
                              /*extra_call_to_part=*/false);
  disasm::CodeView code(s.elf);
  const std::set<std::uint64_t> no_data;
  // Pretend the part has no FDE record: the merge gate must refuse.
  const std::set<std::uint64_t> fde_starts = {s.hot};
  const MergeOutcome mo = merge_noncontiguous_functions(
      code, s.state, s.eh, no_data, fde_starts);
  EXPECT_TRUE(mo.merged.empty());
}

TEST(TailCallMerger, ChainOfPartsCollapsesToRoot) {
  // hot → part1 → part2, each connected by a mid-body jump and referenced
  // only by that jump: both must fold into hot.
  Assembler a(kTextAddr);
  Label hot = a.label();
  Label part1 = a.label();
  Label part2 = a.label();
  Label resume = a.label();

  a.bind(hot);
  a.push(Reg::kRbx);
  a.test_rr(Reg::kRsi, Reg::kRsi);
  a.jcc(Cond::kE, part1);
  a.bind(resume);
  a.pop(Reg::kRbx);
  a.ret();
  const std::uint64_t hot_end = a.pc();

  a.nop(4);
  a.bind(part1);
  a.test_rr(Reg::kRdx, Reg::kRdx);
  a.jcc(Cond::kE, part2);
  a.jmp(resume);
  const std::uint64_t part1_end = a.pc();

  a.nop(4);
  a.bind(part2);
  a.mov_ri32(Reg::kRax, 9);
  a.jmp(resume);
  const std::uint64_t part2_end = a.pc();

  const std::uint64_t h = a.address_of(hot);
  const std::uint64_t p1 = a.address_of(part1);
  const std::uint64_t p2 = a.address_of(part2);

  eh::EhFrameBuilder ehb;
  ehb.add_fde(h, hot_end - h,
              {eh::CfiOp::advance(1), eh::CfiOp::def_cfa_offset(16),
               eh::CfiOp::offset(eh::dwreg::kRbx, 2)});
  ehb.add_fde(p1, part1_end - p1, {eh::CfiOp::def_cfa_offset(16)});
  ehb.add_fde(p2, part2_end - p2, {eh::CfiOp::def_cfa_offset(16)});

  elf::ElfFile elf = MiniBinary(a).eh_frame(ehb).build();
  disasm::CodeView code(elf);
  disasm::Result state = disasm::analyze(code, {h, p1, p2}, {});
  const auto eh_parsed = eh::EhFrame::from_elf(elf);
  const MergeOutcome mo = merge_noncontiguous_functions(
      code, state, *eh_parsed, {}, {h, p1, p2});

  ASSERT_EQ(mo.merged.size(), 2u);
  EXPECT_EQ(mo.merged.at(p1), h);
  EXPECT_EQ(mo.merged.at(p2), h);  // redirected to the root
  EXPECT_EQ(state.functions.size(), 1u);
}

}  // namespace
}  // namespace fetch::core
