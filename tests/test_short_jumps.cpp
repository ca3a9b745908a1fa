#include <gtest/gtest.h>

#include "disasm/code_view.hpp"
#include "disasm/recursive.hpp"
#include "helpers.hpp"
#include "x86/decoder.hpp"

namespace fetch::x86 {
namespace {

using test::kTextAddr;
using test::MiniBinary;

TEST(ShortJumps, EncodeAndDecode) {
  Assembler a(kTextAddr);
  Label back = a.label();
  a.bind(back);
  a.nop(2);
  Label fwd = a.label();
  a.jmp_short(fwd);            // eb rel8 forward
  a.jcc_short(Cond::kNe, back);  // 75 rel8 backward
  a.bind(fwd);
  a.ret();
  const auto bytes = a.finish();

  const auto jmp = decode({bytes.data() + 2, bytes.size() - 2},
                          kTextAddr + 2);
  ASSERT_TRUE(jmp);
  EXPECT_EQ(jmp->length, 2);
  EXPECT_EQ(jmp->kind, Kind::kJmpDirect);
  EXPECT_EQ(jmp->target, a.address_of(fwd));

  const auto jcc = decode({bytes.data() + 4, bytes.size() - 4},
                          kTextAddr + 4);
  ASSERT_TRUE(jcc);
  EXPECT_EQ(jcc->length, 2);
  EXPECT_EQ(jcc->kind, Kind::kCondJmp);
  EXPECT_EQ(jcc->target, kTextAddr);
}

TEST(ShortJumps, RecursiveDisassemblyFollowsThem) {
  Assembler a(kTextAddr);
  Label skip = a.label();
  Label tail = a.label();
  a.jcc_short(Cond::kE, skip);
  a.mov_ri32(Reg::kRax, 1);
  a.bind(skip);
  a.jmp_short(tail);
  a.raw({0x06});  // unreachable garbage: must not be decoded
  a.bind(tail);
  a.ret();

  const elf::ElfFile elf = MiniBinary(a).build();
  disasm::CodeView code(elf);
  const disasm::Result r = disasm::analyze(code, {kTextAddr}, {});
  const disasm::Function& fn = r.functions.at(kTextAddr);
  EXPECT_TRUE(fn.contains(a.address_of(skip)));
  EXPECT_TRUE(fn.contains(a.address_of(tail)));
  EXPECT_EQ(fn.jumps.size(), 2u);
}

TEST(ShortJumps, MaxDisplacementBoundary) {
  // Forward jump of exactly +127: must assemble and resolve.
  Assembler a(kTextAddr);
  Label far = a.label();
  a.jmp_short(far);
  a.nop(127);
  a.bind(far);
  a.ret();
  const auto bytes = a.finish();
  const auto jmp = decode({bytes.data(), bytes.size()}, kTextAddr);
  ASSERT_TRUE(jmp);
  EXPECT_EQ(jmp->target, kTextAddr + 2 + 127);
}

}  // namespace
}  // namespace fetch::x86
