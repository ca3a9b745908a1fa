#include <gtest/gtest.h>

#include "disasm/code_view.hpp"
#include "disasm/linear.hpp"
#include "disasm/recursive.hpp"
#include "helpers.hpp"

namespace fetch::disasm {
namespace {

using test::kTextAddr;
using test::MiniBinary;
using x86::Assembler;
using x86::Cond;
using x86::Label;
using x86::MemRef;
using x86::Reg;

TEST(Recursive, FindsDirectCallTargets) {
  Assembler a(kTextAddr);
  Label f = a.label();
  Label g = a.label();
  // main: call f; call g; ret
  a.call(f);
  a.call(g);
  a.ret();
  a.bind(f);
  a.mov_ri32(Reg::kRax, 1);
  a.ret();
  a.bind(g);
  a.mov_ri32(Reg::kRax, 2);
  a.ret();
  const std::uint64_t f_addr = a.address_of(f);
  const std::uint64_t g_addr = a.address_of(g);

  const elf::ElfFile elf = MiniBinary(a).build();
  CodeView code(elf);
  const Result r = analyze(code, {kTextAddr}, {});

  EXPECT_EQ(r.starts.size(), 3u);
  EXPECT_TRUE(r.starts.count(kTextAddr));
  EXPECT_TRUE(r.starts.count(f_addr));
  EXPECT_TRUE(r.starts.count(g_addr));
  EXPECT_TRUE(r.functions.at(kTextAddr).contains(kTextAddr));
}

TEST(Recursive, StopsAtStructuralNoReturn) {
  Assembler a(kTextAddr);
  Label exit_fn = a.label();
  // main: call exit_fn; <garbage byte that must never be decoded>
  a.call(exit_fn);
  a.raw({0x06});  // invalid in 64-bit mode
  a.bind(exit_fn);
  a.mov_ri32(Reg::kRax, 60);
  a.syscall();
  a.ud2();
  const elf::ElfFile elf = MiniBinary(a).build();
  CodeView code(elf);
  const Result r = analyze(code, {kTextAddr}, {});

  // The garbage byte is not covered: the call was recognized noreturn.
  EXPECT_FALSE(r.covered.count(kTextAddr + 5));
}

TEST(Recursive, ConditionalNoReturnSlice) {
  // error-style callee: returns iff edi == 0.
  Assembler a(kTextAddr);
  Label error_fn = a.label();
  Label site_zero = a.label();
  Label site_nonzero = a.label();

  a.bind(site_zero);
  a.xor_rr(Reg::kRdi, Reg::kRdi);
  a.call(error_fn);
  a.mov_ri32(Reg::kRax, 1);  // must be reached (arg is zero)
  a.ret();

  a.bind(site_nonzero);
  a.mov_ri32(Reg::kRdi, 2);
  a.call(error_fn);
  a.raw({0x06});  // must NOT be reached (arg nonzero → noreturn)

  a.bind(error_fn);
  a.test_rr(Reg::kRdi, Reg::kRdi);
  Label ret = a.label();
  a.jcc(Cond::kE, ret);
  a.mov_ri32(Reg::kRax, 60);
  a.syscall();
  a.ud2();
  a.bind(ret);
  a.ret();

  const std::uint64_t err = a.address_of(error_fn);
  const std::uint64_t nz = a.address_of(site_nonzero);
  const elf::ElfFile elf = MiniBinary(a).build();
  CodeView code(elf);
  Options opts;
  opts.conditional_noreturn = {err};
  const Result r = analyze(code, {a.address_of(site_zero), nz}, opts);

  // After the zero-arg call the code continues (mov rax,1 covered).
  EXPECT_TRUE(r.covered.count(kTextAddr + 2 + 5));
  // After the nonzero-arg call the body ends: mov edi and the call only.
  EXPECT_EQ(r.functions.at(nz).insn_addrs,
            (std::vector<std::uint64_t>{nz, nz + 5}));
}

TEST(Recursive, RecordsJumpsAndBuildsFunctions) {
  Assembler a(kTextAddr);
  Label f = a.label();
  Label g = a.label();
  Label inside = a.label();
  a.bind(f);
  a.test_rr(Reg::kRdi, Reg::kRdi);
  a.jcc(Cond::kE, inside);
  a.mov_ri32(Reg::kRax, 1);
  a.bind(inside);
  a.jmp(g);  // escaping jump (tail-call shaped)
  a.bind(g);
  a.ret();

  const std::uint64_t g_addr = a.address_of(g);
  const elf::ElfFile elf = MiniBinary(a).build();
  CodeView code(elf);
  const Result r = analyze(code, {kTextAddr, g_addr}, {});

  const Function& fn = r.functions.at(kTextAddr);
  ASSERT_EQ(fn.jumps.size(), 2u);
  // The escaping jmp must not pull g's body into f.
  EXPECT_FALSE(fn.contains(g_addr));
  // Conditional jump edge recorded.
  EXPECT_TRUE(fn.jumps[0].conditional || fn.jumps[1].conditional);
}

TEST(Recursive, XrefsRecorded) {
  Assembler a(kTextAddr);
  Label f = a.label();
  a.call(f);
  a.lea(Reg::kRcx, MemRef::rip_abs(test::kRodataAddr));
  a.ret();
  a.bind(f);
  a.ret();
  const std::uint64_t f_addr = a.address_of(f);
  const elf::ElfFile elf =
      MiniBinary(a).rodata({1, 2, 3, 4, 5, 6, 7, 8}).build();
  CodeView code(elf);
  const Result r = analyze(code, {kTextAddr}, {});

  const auto call_refs = r.xrefs.at(f_addr);
  ASSERT_FALSE(call_refs.empty());
  EXPECT_EQ(call_refs.front().kind, RefKind::kCall);
  const auto mem_refs = r.xrefs.at(test::kRodataAddr);
  ASSERT_FALSE(mem_refs.empty());
  EXPECT_EQ(mem_refs.front().kind, RefKind::kMemory);
}

TEST(Recursive, SeedOutsideCodeIgnored) {
  Assembler a(kTextAddr);
  a.ret();
  const elf::ElfFile elf = MiniBinary(a).build();
  CodeView code(elf);
  const Result r = analyze(code, {0xdead000, kTextAddr}, {});
  EXPECT_EQ(r.starts.size(), 1u);
}

TEST(NoReturn, MutualRecursionWithoutBaseCase) {
  // f calls g unconditionally, g calls f: neither can return.
  Assembler a(kTextAddr);
  Label f = a.label();
  Label g = a.label();
  a.bind(f);
  a.call(g);
  a.ud2();
  a.bind(g);
  a.call(f);
  a.ud2();
  const elf::ElfFile elf = MiniBinary(a).build();
  CodeView code(elf);
  Result r = explore(code, {a.address_of(f), a.address_of(g)}, {});
  const auto noreturn = find_noreturn_functions(code, r, {});
  EXPECT_EQ(noreturn.size(), 2u);
}

TEST(NoReturn, TailJumpToReturningFunctionReturns) {
  Assembler a(kTextAddr);
  Label f = a.label();
  Label g = a.label();
  a.bind(f);
  a.jmp(g);  // tail call
  a.bind(g);
  a.ret();
  const elf::ElfFile elf = MiniBinary(a).build();
  CodeView code(elf);
  Result r = explore(code, {a.address_of(f), a.address_of(g)}, {});
  const auto noreturn = find_noreturn_functions(code, r, {});
  EXPECT_TRUE(noreturn.empty());
}

TEST(LinearSweep, ResynchronizesAfterGarbage) {
  Assembler a(kTextAddr);
  a.mov_ri32(Reg::kRax, 1);  // 5 bytes
  a.raw({0x06});             // invalid
  a.ret();                   // 1 byte
  const elf::ElfFile elf = MiniBinary(a).build();
  CodeView code(elf);
  const auto pieces = linear_sweep(code, kTextAddr, kTextAddr + 7);
  ASSERT_EQ(pieces.size(), 2u);
  EXPECT_EQ(pieces[0].start, kTextAddr);
  EXPECT_EQ(pieces[0].insns.size(), 1u);
  EXPECT_EQ(pieces[1].start, kTextAddr + 6);
  EXPECT_EQ(pieces[1].insns[0].kind, x86::Kind::kRet);
}

TEST(LinearSweep, EmptyRange) {
  Assembler a(kTextAddr);
  a.ret();
  const elf::ElfFile elf = MiniBinary(a).build();
  CodeView code(elf);
  EXPECT_TRUE(linear_sweep(code, kTextAddr, kTextAddr).empty());
}

}  // namespace
}  // namespace fetch::disasm
