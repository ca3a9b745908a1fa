#include <gtest/gtest.h>

#include "analysis/pointer_scan.hpp"
#include "core/pointer_detector.hpp"
#include "disasm/recursive.hpp"
#include "helpers.hpp"

namespace fetch::core {
namespace {

using test::kDataAddr;
using test::kTextAddr;
using test::MiniBinary;
using x86::Assembler;
using x86::Label;
using x86::MemRef;
using x86::Reg;

TEST(PointerScan, SlidingWindowFindsUnalignedPointers) {
  Assembler a(kTextAddr);
  a.ret();
  std::vector<std::uint8_t> data;
  data.push_back(0xaa);  // misalign by one byte
  test::put_u64(data, kTextAddr);
  const elf::ElfFile elf = MiniBinary(a).data(std::move(data)).build();
  disasm::CodeView code(elf);
  const disasm::Result r = disasm::analyze(code, {kTextAddr}, {});
  const auto candidates = analysis::scan_data_pointers(elf, r);
  EXPECT_TRUE(candidates.count(kTextAddr));
}

TEST(PointerScan, IgnoresNonCodeValues) {
  Assembler a(kTextAddr);
  a.ret();
  std::vector<std::uint8_t> data;
  test::put_u64(data, kDataAddr);             // data address: not code
  test::put_u64(data, 0x1122334455667788ULL); // junk
  const elf::ElfFile elf = MiniBinary(a).data(std::move(data)).build();
  disasm::CodeView code(elf);
  const disasm::Result r = disasm::analyze(code, {kTextAddr}, {});
  EXPECT_TRUE(analysis::scan_data_pointers(elf, r).empty());
}

TEST(PointerScan, ConstantsInCodeAreCandidates) {
  Assembler a(kTextAddr);
  Label hidden = a.label();
  a.mov_ri64(Reg::kRax, 0);  // patched below
  a.ret();
  a.bind(hidden);
  a.ret();
  // Re-emit with the real address (two-pass for the immediate).
  Assembler b(kTextAddr);
  Label h2 = b.label();
  b.mov_ri64(Reg::kRax, a.address_of(hidden));
  b.ret();
  b.bind(h2);
  b.ret();
  const elf::ElfFile elf = MiniBinary(b).build();
  disasm::CodeView code(elf);
  const disasm::Result r = disasm::analyze(code, {kTextAddr}, {});
  const auto candidates = analysis::collect_pointer_candidates(elf, r);
  EXPECT_TRUE(candidates.count(b.address_of(h2)));
}

/// Full probe pipeline on a binary with one good hidden function and
/// several decoys.
TEST(PointerDetector, AcceptsValidRejectsInvalid) {
  Assembler a(kTextAddr);
  Label hidden = a.label();
  Label garbage = a.label();
  a.mov_rm(Reg::kRax, MemRef::rip_abs(kDataAddr));  // load pointer slot
  a.call_reg(Reg::kRax);
  a.ret();
  a.nop(16);
  a.bind(hidden);  // valid function: clean body
  a.push(Reg::kRbx);
  a.mov_rr(Reg::kRax, Reg::kRdi);
  a.pop(Reg::kRbx);
  a.ret();
  a.nop(8);
  a.bind(garbage);  // invalid: reads uninitialized scratch then junk
  a.mov_rr(Reg::kRcx, Reg::kRax);
  a.raw({0x06});

  const std::uint64_t hidden_addr = a.address_of(hidden);
  const std::uint64_t garbage_addr = a.address_of(garbage);

  std::vector<std::uint8_t> data;
  test::put_u64(data, hidden_addr);
  test::put_u64(data, garbage_addr);
  test::put_u64(data, kTextAddr + 1);  // middle of an instruction

  const elf::ElfFile elf = MiniBinary(a).data(std::move(data)).build();
  disasm::CodeView code(elf);
  disasm::Result state = disasm::analyze(code, {kTextAddr}, {});
  ASSERT_FALSE(state.covered.count(hidden_addr));

  const PointerDetectionResult pd =
      detect_pointer_functions(code, state, {});
  EXPECT_TRUE(pd.accepted.count(hidden_addr));
  EXPECT_FALSE(pd.accepted.count(garbage_addr));
  EXPECT_FALSE(pd.accepted.count(kTextAddr + 1));
  EXPECT_TRUE(state.starts.count(hidden_addr));
  EXPECT_TRUE(state.covered.count(hidden_addr));
}

TEST(PointerDetector, PointerIntoCoveredCodeIsNotANewStart) {
  Assembler a(kTextAddr);
  a.mov_ri32(Reg::kRax, 1);
  a.ret();
  std::vector<std::uint8_t> data;
  test::put_u64(data, kTextAddr + 5);  // the ret: covered, a valid boundary
  const elf::ElfFile elf = MiniBinary(a).data(std::move(data)).build();
  disasm::CodeView code(elf);
  disasm::Result state = disasm::analyze(code, {kTextAddr}, {});
  const PointerDetectionResult pd =
      detect_pointer_functions(code, state, {});
  EXPECT_TRUE(pd.accepted.empty());
}

TEST(PointerDetector, AcceptedCodeFeedsNewCandidates) {
  // hidden1's body holds a constant pointing at hidden2 (reachable only
  // through the §IV-E "update the pointer collection" iteration).
  Assembler a(kTextAddr);
  Label hidden1 = a.label();
  Label hidden2 = a.label();
  a.ret();
  a.nop(8);
  a.bind(hidden1);
  a.mov_ri64(Reg::kRax, 0xdead);  // placeholder; real emit below
  a.ret();
  a.bind(hidden2);
  a.xor_rr(Reg::kRax, Reg::kRax);
  a.ret();
  const std::uint64_t h2 = a.address_of(hidden2);
  // Second pass with the real constant.
  Assembler b(kTextAddr);
  Label bh1 = b.label();
  Label bh2 = b.label();
  b.ret();
  b.nop(8);
  b.bind(bh1);
  b.mov_ri64(Reg::kRax, h2);
  b.ret();
  b.bind(bh2);
  b.xor_rr(Reg::kRax, Reg::kRax);
  b.ret();
  ASSERT_EQ(b.address_of(bh2), h2);

  std::vector<std::uint8_t> data;
  test::put_u64(data, b.address_of(bh1));

  const elf::ElfFile elf = MiniBinary(b).data(std::move(data)).build();
  disasm::CodeView code(elf);
  disasm::Result state = disasm::analyze(code, {kTextAddr}, {});
  const PointerDetectionResult pd =
      detect_pointer_functions(code, state, {});
  EXPECT_TRUE(pd.accepted.count(b.address_of(bh1)));
  EXPECT_TRUE(pd.accepted.count(h2));
}

/// Long probes: the into-the-middle checks (§IV-E ii/iii) answer from the
/// probe's dense state, so a probe of thousands of instructions stays
/// linear. One pointer per hidden function, none reached by recursion.
TEST(PointerDetector, LongProbesAreAcceptedOrRejectedExactly) {
  constexpr int kLong = 12000;
  Assembler a(kTextAddr);
  Label ok = a.label();
  Label self_middle = a.label();
  Label runaway = a.label();
  a.ret();
  a.nop(8);
  a.bind(ok);  // kLong movs then ret: legitimate
  for (int i = 0; i < kLong; ++i) {
    a.mov_ri32(Reg::kRax, static_cast<std::uint32_t>(i));
  }
  a.ret();
  a.bind(self_middle);  // ends jumping into its own first instruction
  for (int i = 0; i < kLong; ++i) {
    a.mov_ri32(Reg::kRax, static_cast<std::uint32_t>(i));
  }
  a.jmp_abs(a.address_of(self_middle) + 1);
  a.bind(runaway);  // longer than any probe may run
  for (int i = 0; i < (1 << 14) + 8; ++i) {
    a.mov_ri32(Reg::kRax, static_cast<std::uint32_t>(i));
  }
  a.ret();

  std::vector<std::uint8_t> data;
  for (const Label l : {ok, self_middle, runaway}) {
    test::put_u64(data, a.address_of(l));
  }
  const std::uint64_t ok_addr = a.address_of(ok);
  const std::uint64_t middle_addr = a.address_of(self_middle);
  const std::uint64_t runaway_addr = a.address_of(runaway);
  const elf::ElfFile elf = MiniBinary(a).data(std::move(data)).build();
  disasm::CodeView code(elf);
  disasm::Result state = disasm::analyze(code, {kTextAddr}, {});
  const PointerDetectionResult pd =
      detect_pointer_functions(code, state, {});
  EXPECT_EQ(pd.accepted, (std::set<std::uint64_t>{ok_addr}));
  // The accepted probe's kLong + 1 instructions (5-byte movs, then ret)
  // join the instruction starts and covered bytes; nothing past them does.
  const std::uint64_t ok_end = ok_addr + 5 * kLong + 1;
  std::size_t ok_insns = 0;
  for (std::uint64_t addr = ok_addr; addr < ok_end; ++addr) {
    ok_insns += state.insn_starts.count(addr);
    ASSERT_TRUE(state.covered.count(addr) != 0) << std::hex << addr;
  }
  EXPECT_EQ(ok_insns, static_cast<std::size_t>(kLong) + 1);
  EXPECT_TRUE(state.insn_starts.count(ok_end - 1) != 0);  // the ret
  EXPECT_FALSE(state.covered.count(middle_addr));
  EXPECT_FALSE(state.covered.count(runaway_addr));
}

}  // namespace
}  // namespace fetch::core
