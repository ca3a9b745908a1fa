/// \file test_codeview_stress.cpp
/// The lock-free dense decode cache: multithreaded determinism (PR 1's
/// byte-identical guarantee extended to concurrent insn_at), the
/// section-boundary decode clamp, O(1) failure-path behavior on
/// resynchronization runs, and pointer stability of published records.

#include "disasm/code_view.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "disasm/linear.hpp"
#include "elf/elf_builder.hpp"
#include "elf/elf_file.hpp"
#include "helpers.hpp"
#include "synth/codegen.hpp"
#include "synth/corpus.hpp"
#include "x86/decoder.hpp"

namespace fetch::disasm {
namespace {

using test::kTextAddr;
using test::MiniBinary;
using x86::Assembler;
using x86::Reg;

/// A corpus-shaped binary (real prologues, calls, padding, jump tables).
const synth::SynthBinary& stress_binary() {
  static const synth::SynthBinary bin = synth::generate(synth::make_program(
      synth::projects()[0], synth::profile_for("gcc", "O2"), 20260730));
  return bin;
}

/// Everything detection logic reads from an Insn, flattened for equality.
std::string fingerprint(const x86::Insn* insn) {
  if (insn == nullptr) {
    return "<invalid>";
  }
  std::ostringstream os;
  os << insn->to_string() << "|addr=" << insn->addr
     << "|len=" << static_cast<int>(insn->length)
     << "|kind=" << static_cast<int>(insn->kind)
     << "|rd=" << insn->regs_read << "|wr=" << insn->regs_written
     << "|clob=" << insn->rsp_clobbered;
  if (insn->rsp_delta) {
    os << "|rsp=" << *insn->rsp_delta;
  }
  if (insn->target) {
    os << "|t=" << *insn->target;
  }
  if (insn->mem_target) {
    os << "|mt=" << *insn->mem_target;
  }
  if (insn->imm) {
    os << "|imm=" << *insn->imm;
  }
  return os.str();
}

TEST(CodeViewStress, ConcurrentDecodeIsByteIdenticalToSerial) {
  const elf::ElfFile elf(stress_binary().image);
  const elf::Section* text = elf.section(".text");
  ASSERT_NE(text, nullptr);
  const std::uint64_t lo = text->addr;
  const std::uint64_t hi = text->addr + text->size;

  const CodeView shared(elf);
  constexpr std::size_t kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&shared, lo, hi, t] {
      // Overlapping ranges: every thread walks the whole section, but
      // phase-shifted and with a stride-probing second pass so claims
      // collide at different addresses in different threads.
      std::uint64_t addr = lo + t;
      while (addr < hi) {
        const x86::Insn* insn = shared.insn_at(addr);
        // A published record must be stable: the second lookup has to
        // return the exact same pointer.
        ASSERT_EQ(shared.insn_at(addr), insn);
        addr += insn != nullptr ? insn->length : 1;
      }
      for (std::uint64_t a = lo + (t * 7) % 13; a < hi; a += 13) {
        (void)shared.insn_at(a);
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }

  // Reference: a fresh, strictly single-threaded decode of every byte.
  const CodeView serial(elf);
  for (std::uint64_t addr = lo; addr < hi; ++addr) {
    ASSERT_EQ(fingerprint(shared.insn_at(addr)),
              fingerprint(serial.insn_at(addr)))
        << "divergence at " << std::hex << addr;
  }
  // Every decoded address produced exactly one record (no double decode).
  const auto stats = shared.cache_stats();
  EXPECT_EQ(shared.decoded_records(), stats.decoded);
}

TEST(CodeViewBoundary, WindowIsClampedAtSectionEnd) {
  // .text ends mid-window: a ret followed by a truncated `movabs rax,
  // imm64` (2 of 10 bytes). The adjacent .text.hot section starts with
  // the 8 bytes that would complete it — decoding across the boundary
  // would fabricate an instruction.
  const std::vector<std::uint8_t> head = {0xC3, 0x48, 0xB8};
  const std::vector<std::uint8_t> tail = {0x11, 0x22, 0x33, 0x44,
                                          0x55, 0x66, 0x77, 0x88, 0xC3};
  // Sanity: the concatenated bytes do decode as one movabs.
  std::vector<std::uint8_t> joined(head.begin() + 1, head.end());
  joined.insert(joined.end(), tail.begin(), tail.end());
  const auto crossing = x86::decode(joined, kTextAddr + 1);
  ASSERT_TRUE(crossing.has_value());
  ASSERT_EQ(crossing->length, 10);

  elf::ElfBuilder b;
  b.add_section(".text", elf::kShtProgbits,
                elf::kShfAlloc | elf::kShfExecinstr, kTextAddr, head, 1);
  b.add_section(".text.hot", elf::kShtProgbits,
                elf::kShfAlloc | elf::kShfExecinstr, kTextAddr + head.size(),
                tail, 1);
  b.set_entry(kTextAddr);
  const elf::ElfFile elf(b.build());
  const CodeView code(elf);

  const x86::Insn* ret = code.insn_at(kTextAddr);
  ASSERT_NE(ret, nullptr);
  EXPECT_EQ(ret->kind, x86::Kind::kRet);
  // The truncated movabs must NOT be completed from the next section.
  EXPECT_EQ(code.insn_at(kTextAddr + 1), nullptr);
  // The neighboring section decodes independently.
  EXPECT_NE(code.insn_at(kTextAddr + head.size() + tail.size() - 1), nullptr);
}

TEST(CodeViewBoundary, OverlappingSectionsResolveToTheLastStartAtOrBelow) {
  // Hostile layout: .text.b sits inside .text, which is the larger
  // section. An address resolves to the section with the greatest start
  // at or below it, and only if that section holds it: inside .text.b
  // the bytes are .text.b's, and past .text.b's end nothing decodes,
  // although .text still covers those addresses.
  elf::ElfBuilder b;
  b.add_section(".text", elf::kShtProgbits,
                elf::kShfAlloc | elf::kShfExecinstr, kTextAddr,
                std::vector<std::uint8_t>(64, 0x90), 1);  // nops
  b.add_section(".text.b", elf::kShtProgbits,
                elf::kShfAlloc | elf::kShfExecinstr, kTextAddr + 32,
                std::vector<std::uint8_t>(16, 0xC3), 1);  // rets
  b.set_entry(kTextAddr);
  const elf::ElfFile elf(b.build());
  const CodeView code(elf);
  auto kind_at = [&](std::uint64_t addr) -> std::string {
    const x86::Insn* insn = code.insn_at(addr);
    return insn == nullptr ? "none"
           : insn->kind == x86::Kind::kNop ? "nop"
           : insn->kind == x86::Kind::kRet ? "ret"
                                           : "other";
  };
  EXPECT_EQ(kind_at(kTextAddr), "nop");
  EXPECT_EQ(kind_at(kTextAddr + 31), "nop");   // last byte before .text.b
  EXPECT_EQ(kind_at(kTextAddr + 32), "ret");   // .text.b's first byte
  EXPECT_EQ(kind_at(kTextAddr + 40), "ret");
  EXPECT_EQ(kind_at(kTextAddr + 47), "ret");   // .text.b's last byte
  EXPECT_EQ(kind_at(kTextAddr + 48), "none");  // past .text.b, inside .text
  EXPECT_EQ(kind_at(kTextAddr + 63), "none");  // .text's last byte
  EXPECT_EQ(kind_at(kTextAddr + 64), "none");  // past both
  EXPECT_EQ(kind_at(kTextAddr - 1), "none");
}

TEST(CodeViewDense, ResyncFailureRunCostsNoRecords) {
  // 256 bytes that never decode (0x06 is invalid in 64-bit mode), then a
  // ret. The old map cached one heap node per failed resync byte; the
  // dense cache marks pre-allocated slots and allocates nothing.
  Assembler a(kTextAddr);
  for (int i = 0; i < 256; ++i) {
    a.raw({0x06});
  }
  a.ret();
  const elf::ElfFile elf = MiniBinary(a).build();
  const CodeView code(elf);

  const auto pieces = linear_sweep(code, kTextAddr, kTextAddr + 257);
  ASSERT_EQ(pieces.size(), 1u);
  EXPECT_EQ(pieces[0].start, kTextAddr + 256);

  const auto stats = code.cache_stats();
  EXPECT_EQ(stats.code_bytes, 257u);
  EXPECT_EQ(stats.invalid, 256u);
  EXPECT_EQ(stats.decoded, 1u);
  EXPECT_EQ(code.decoded_records(), 1u);  // arena did not grow per failure
}

TEST(CodeViewDense, RecordsStayValidAcrossArenaGrowth) {
  const elf::ElfFile elf(stress_binary().image);
  const elf::Section* text = elf.section(".text");
  const CodeView code(elf);
  const x86::Insn* first = code.insn_at(text->addr);
  ASSERT_NE(first, nullptr);
  const std::string before = fingerprint(first);
  // Force the arena through several geometric bucket growths.
  for (std::uint64_t a = text->addr; a < text->addr + text->size;) {
    const x86::Insn* insn = code.insn_at(a);
    a += insn != nullptr ? insn->length : 1;
  }
  ASSERT_GT(code.decoded_records(), 1000u);
  EXPECT_EQ(code.insn_at(text->addr), first);  // same slot, same record
  EXPECT_EQ(fingerprint(first), before);       // record untouched by growth
}

TEST(CodeViewDense, NonCodeAddressesAreRejectedWithoutState) {
  Assembler a(kTextAddr);
  a.ret();
  const elf::ElfFile elf =
      MiniBinary(a).rodata(std::vector<std::uint8_t>(64, 0xC3)).build();
  const CodeView code(elf);
  EXPECT_EQ(code.insn_at(test::kRodataAddr), nullptr);  // not executable
  EXPECT_EQ(code.insn_at(0x12345), nullptr);            // unmapped
  EXPECT_EQ(code.decoded_records(), 0u);
  EXPECT_EQ(code.cache_stats().code_bytes, 1u);
}

// The sanitizer-matrix stress case (ctest label "concurrency", run under
// TSan in CI): readers race rec_at on cold slots, so threads claim
// kDecoding slots while others wait on them and chase freshly published
// records and steps into the arenas. Each reader must see a step agree
// with its record and with the ElfFile queries the step stands for, and
// once they settle a serial decode must agree byte for byte.
TEST(CodeViewStress, ConcurrentStepReadsAgreeWithRecords) {
  const elf::ElfFile elf(stress_binary().image);
  const elf::Section* text = elf.section(".text");
  ASSERT_NE(text, nullptr);
  const std::uint64_t lo = text->addr;
  const std::uint64_t hi = text->addr + text->size;

  const CodeView shared(elf);
  constexpr std::size_t kReaders = 8;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (std::size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&shared, &elf, lo, hi, t] {
      // Phase-shifted so the readers claim different slots first.
      for (std::uint64_t k = 0; k < hi - lo; ++k) {
        const std::uint64_t a = lo + (k + t * 97) % (hi - lo);
        const CodeView::Rec rec = shared.rec_at(a);
        if (rec.step == nullptr) {
          ASSERT_EQ(shared.insn_at(a), nullptr);
          continue;
        }
        const x86::Insn& insn = shared.record(rec.index);
        ASSERT_EQ(insn.addr, a);
        ASSERT_EQ(*rec.step, test::expected_step(insn, elf));
        ASSERT_EQ(shared.rec_at(a).step, rec.step);
      }
    });
  }
  for (std::thread& th : readers) {
    th.join();
  }

  const CodeView serial(elf);
  for (std::uint64_t addr = lo; addr < hi; ++addr) {
    ASSERT_EQ(fingerprint(shared.insn_at(addr)),
              fingerprint(serial.insn_at(addr)))
        << "divergence at " << std::hex << addr;
  }
  EXPECT_EQ(shared.decoded_records(), shared.cache_stats().decoded);
}

}  // namespace
}  // namespace fetch::disasm
