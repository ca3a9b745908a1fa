/// \file test_codeview_stress.cpp
/// The lock-free dense decode cache: multithreaded determinism (the
/// byte-identical guarantee extended to concurrent rec_at), the
/// section-boundary decode clamp, O(1) failure-path behavior on
/// resynchronization runs, stability of published steps, and every step
/// checked against a fresh decode of its bytes.

#include "disasm/code_view.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "disasm/linear.hpp"
#include "disasm/recursive.hpp"
#include "elf/elf_builder.hpp"
#include "elf/elf_file.hpp"
#include "helpers.hpp"
#include "synth/codegen.hpp"
#include "synth/corpus.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"
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

/// \p image with its section-header table moved to the end of the file
/// and one copy of header \p index appended per address in \p addrs: each
/// copy maps the same file bytes at its own address.
std::vector<std::uint8_t> with_aliases(std::vector<std::uint8_t> image,
                                       std::uint16_t index,
                                       const std::vector<std::uint64_t>& addrs) {
  auto get = [&](std::size_t at, std::size_t n) {
    std::uint64_t v = 0;
    std::memcpy(&v, image.data() + at, n);
    return v;
  };
  const std::uint64_t shoff = get(0x28, 8);
  const std::uint64_t entsize = get(0x3a, 2);
  const std::uint64_t shnum = get(0x3c, 2);
  std::vector<std::uint8_t> headers(image.begin() + shoff,
                                    image.begin() + shoff + shnum * entsize);
  for (const std::uint64_t addr : addrs) {
    const std::size_t at = headers.size();
    headers.insert(headers.end(), image.begin() + shoff + index * entsize,
                   image.begin() + shoff + (index + 1) * entsize);
    std::memcpy(headers.data() + at + 0x10, &addr, 8);  // sh_addr
  }
  image.resize((image.size() + 7) / 8 * 8);
  const std::uint64_t new_shoff = image.size();
  const auto new_shnum = static_cast<std::uint16_t>(shnum + addrs.size());
  image.insert(image.end(), headers.begin(), headers.end());
  std::memcpy(image.data() + 0x28, &new_shoff, 8);
  std::memcpy(image.data() + 0x3c, &new_shnum, 2);
  return image;
}

/// The step at \p addr, or a marker for "nothing decodes here".
std::string step_text(const CodeView& code, std::uint64_t addr) {
  const Step* step = code.rec_at(addr).step;
  if (step == nullptr) {
    return "<invalid>";
  }
  return std::to_string(step->target) + "|" + std::to_string(step->length) +
         "|" + std::to_string(static_cast<int>(step->kind)) + "|" +
         std::to_string(step->flags) + "|" + std::to_string(step->regs_read) +
         "|" + std::to_string(step->regs_written);
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
        const Step* step = shared.rec_at(addr).step;
        // A published step must be stable: the second lookup has to
        // return the exact same pointer.
        ASSERT_EQ(shared.rec_at(addr).step, step);
        addr += step != nullptr ? step->length : 1;
      }
      for (std::uint64_t a = lo + (t * 7) % 13; a < hi; a += 13) {
        (void)shared.rec_at(a);
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }

  // Reference: a fresh, strictly single-threaded decode of every byte.
  const CodeView serial(elf);
  for (std::uint64_t addr = lo; addr < hi; ++addr) {
    ASSERT_EQ(step_text(shared, addr), step_text(serial, addr))
        << "divergence at " << std::hex << addr;
  }
  // Every decoded address produced exactly one step (no double decode).
  const auto stats = shared.cache_stats();
  EXPECT_EQ(shared.decoded_steps(), stats.decoded);
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

  const Step* ret = code.rec_at(kTextAddr).step;
  ASSERT_NE(ret, nullptr);
  EXPECT_EQ(ret->kind, x86::Kind::kRet);
  // The truncated movabs must NOT be completed from the next section,
  // neither in the cache nor by a fresh decode.
  EXPECT_EQ(code.rec_at(kTextAddr + 1).step, nullptr);
  EXPECT_FALSE(code.decode(kTextAddr + 1).has_value());
  // The neighboring section decodes independently.
  EXPECT_NE(code.rec_at(kTextAddr + head.size() + tail.size() - 1).step,
            nullptr);
}

TEST(CodeViewBoundary, OverlappingSectionsResolveToTheFirstInHeaderOrder) {
  // Hostile layout: .text.b sits inside .text, and .text.c overlaps
  // .text's tail and runs past its end. As for ElfFile::section_at, the
  // first section in header order owns every byte it covers: .text's
  // nops decode across .text.b, whose rets never do, and .text.c owns
  // only the bytes past .text's end. .text ends in a truncated `movabs
  // rax, imm64` that .text.c's bytes would complete if a decode window
  // crossed from one run into the next.
  std::vector<std::uint8_t> text(62, 0x90);  // nops
  text.push_back(0x48);
  text.push_back(0xB8);
  elf::ElfBuilder b;
  b.add_section(".text", elf::kShtProgbits,
                elf::kShfAlloc | elf::kShfExecinstr, kTextAddr, text, 1);
  b.add_section(".text.b", elf::kShtProgbits,
                elf::kShfAlloc | elf::kShfExecinstr, kTextAddr + 32,
                std::vector<std::uint8_t>(16, 0xC3), 1);  // rets
  b.add_section(".text.c", elf::kShtProgbits,
                elf::kShfAlloc | elf::kShfExecinstr, kTextAddr + 56,
                std::vector<std::uint8_t>(24, 0xCC), 1);  // int3s
  b.set_entry(kTextAddr);
  const elf::ElfFile elf(b.build());
  const CodeView code(elf);
  auto kind_at = [&](std::uint64_t addr) -> std::string {
    const Step* step = code.rec_at(addr).step;
    return step == nullptr ? "none"
           : step->kind == x86::Kind::kNop ? "nop"
           : step->kind == x86::Kind::kRet ? "ret"
           : step->kind == x86::Kind::kInt3 ? "int3"
                                            : "other";
  };
  EXPECT_EQ(kind_at(kTextAddr - 1), "none");
  EXPECT_EQ(kind_at(kTextAddr), "nop");
  EXPECT_EQ(kind_at(kTextAddr + 32), "nop");   // .text.b's first byte
  EXPECT_EQ(kind_at(kTextAddr + 47), "nop");   // .text.b's last byte
  EXPECT_EQ(kind_at(kTextAddr + 56), "nop");   // .text.c's first byte
  EXPECT_EQ(kind_at(kTextAddr + 62), "none");  // movabs cut at .text's end
  EXPECT_EQ(kind_at(kTextAddr + 63), "none");
  EXPECT_EQ(kind_at(kTextAddr + 64), "int3");  // .text.c's own bytes
  EXPECT_EQ(kind_at(kTextAddr + 79), "int3");
  EXPECT_EQ(kind_at(kTextAddr + 80), "none");  // past all three

  // Every address has a step exactly where its owning section's bytes
  // decode, through a window clamped to the address' code run, and the
  // step is the one that decode implies.
  const auto runs = elf.code_runs();
  for (std::uint64_t addr = kTextAddr - 8; addr < kTextAddr + 88; ++addr) {
    std::optional<x86::Insn> fresh;
    for (const elf::ElfFile::SectionRun& run : runs) {
      if (addr >= run.lo && addr < run.hi) {
        const auto bytes =
            elf.bytes_at(addr, std::min<std::uint64_t>(15, run.hi - addr));
        ASSERT_TRUE(bytes.has_value()) << std::hex << addr;
        fresh = x86::decode(*bytes, addr);
      }
    }
    const Step* step = code.rec_at(addr).step;
    ASSERT_EQ(step != nullptr, fresh.has_value()) << std::hex << addr;
    if (step != nullptr) {
      EXPECT_EQ(*step, test::expected_step(*fresh, elf)) << std::hex << addr;
    }
  }
  // One slot per code byte, however many headers cover it.
  EXPECT_EQ(code.cache_stats().code_bytes, 80u);
  EXPECT_EQ(test::expect_steps_match_fresh_decode(code), 62u + 16u);
}

TEST(CodeViewBoundary, ManyCopiesOfOneHeaderCostOneShard) {
  // A 4 KiB code section whose header is repeated 600 more times at the
  // same address: the copies own no byte, so they add no slot, and the
  // analysis is the single header's.
  Assembler a(kTextAddr);
  const x86::Label f = a.label();
  const x86::Label g = a.label();
  a.push(Reg::kRbp);
  a.call(f);
  a.call(g);
  a.pop(Reg::kRbp);
  a.ret();
  a.nop(11);
  a.bind(f);
  a.push(Reg::kRbx);
  a.mov_ri32(Reg::kRax, 1);
  a.pop(Reg::kRbx);
  a.ret();
  a.bind(g);
  a.xor_rr(Reg::kRax, Reg::kRax);
  a.ret();
  std::vector<std::uint8_t> text = a.finish();
  text.resize(4096, 0xCC);
  auto image = [&](int headers) {
    elf::ElfBuilder b;
    for (int i = 0; i < headers; ++i) {
      b.add_section(".text", elf::kShtProgbits,
                    elf::kShfAlloc | elf::kShfExecinstr, kTextAddr, text, 16);
    }
    b.emit_symtab(false);
    b.set_entry(kTextAddr);
    return b.build();
  };
  const elf::ElfFile one(image(1));
  const elf::ElfFile many(image(601));
  ASSERT_EQ(many.sections().size(), one.sections().size() + 600);
  const CodeView one_code(one);
  const CodeView many_code(many);
  EXPECT_EQ(many_code.slot_ranges().size(), 1u);
  EXPECT_EQ(many_code.cache_stats().code_bytes, 4096u);

  const Result want = analyze(one_code, {kTextAddr});
  const Result got = analyze(many_code, {kTextAddr});
  EXPECT_EQ(want.starts.size(), 3u);
  EXPECT_EQ(got.starts, want.starts);
  ASSERT_EQ(got.functions.size(), want.functions.size());
  for (const auto& [entry, fn] : want.functions) {
    ASSERT_EQ(got.functions.count(entry), 1u) << std::hex << entry;
    EXPECT_EQ(got.functions.at(entry).insn_addrs, fn->insn_addrs);
    EXPECT_EQ(got.functions.at(entry).callees, fn->callees);
  }
  EXPECT_EQ(got.covered.gaps(kTextAddr, kTextAddr + 4096),
            want.covered.gaps(kTextAddr, kTextAddr + 4096));
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

  // A resynchronizing sweep through the cache: one lookup per byte.
  for (std::uint64_t addr = kTextAddr; addr < kTextAddr + 257; ++addr) {
    EXPECT_EQ(code.rec_at(addr).step == nullptr, addr < kTextAddr + 256);
  }
  // The baselines' linear sweep re-decodes and leaves the cache alone.
  const auto pieces = linear_sweep(code, kTextAddr, kTextAddr + 257);
  ASSERT_EQ(pieces.size(), 1u);
  EXPECT_EQ(pieces[0].start, kTextAddr + 256);

  const auto stats = code.cache_stats();
  EXPECT_EQ(stats.code_bytes, 257u);
  EXPECT_EQ(stats.invalid, 256u);
  EXPECT_EQ(stats.decoded, 1u);
  EXPECT_EQ(code.decoded_steps(), 1u);  // arena did not grow per failure
}

TEST(CodeViewDense, StepsStayValidAcrossArenaGrowth) {
  const elf::ElfFile elf(stress_binary().image);
  const elf::Section* text = elf.section(".text");
  const CodeView code(elf);
  const Step* first = code.rec_at(text->addr).step;
  ASSERT_NE(first, nullptr);
  const Step before = *first;
  // Force the arena through several geometric bucket growths.
  for (std::uint64_t a = text->addr; a < text->addr + text->size;) {
    const Step* step = code.rec_at(a).step;
    a += step != nullptr ? step->length : 1;
  }
  ASSERT_GT(code.decoded_steps(), 1000u);
  EXPECT_EQ(code.rec_at(text->addr).step, first);  // same slot, same step
  EXPECT_EQ(*first, before);                       // untouched by growth
  // Every step, old buckets and new, agrees with a fresh decode of its
  // bytes. (Checking every byte also decodes the misaligned starts.)
  const std::uint64_t checked = test::expect_steps_match_fresh_decode(
      code, text->addr, text->addr + text->size);
  EXPECT_EQ(checked, code.decoded_steps());
}

TEST(CodeViewDense, NonCodeAddressesAreRejectedWithoutState) {
  Assembler a(kTextAddr);
  a.ret();
  const elf::ElfFile elf =
      MiniBinary(a).rodata(std::vector<std::uint8_t>(64, 0xC3)).build();
  const CodeView code(elf);
  EXPECT_EQ(code.rec_at(test::kRodataAddr).step, nullptr);  // not executable
  EXPECT_EQ(code.rec_at(0x12345).step, nullptr);            // unmapped
  EXPECT_FALSE(code.decode(test::kRodataAddr).has_value());
  EXPECT_EQ(code.decoded_steps(), 0u);
  EXPECT_EQ(code.cache_stats().code_bytes, 1u);
}

// The sanitizer-matrix stress case (ctest label "concurrency", run under
// TSan in CI): readers race rec_at on cold slots, so threads claim
// kDecoding slots while others wait on them and chase freshly published
// steps into the arena, and re-decode slots beside them. Each reader must
// see a step agree with a fresh decode of its bytes and with the ElfFile
// queries the step stands for, and once they settle a serial CodeView
// must agree byte for byte with no slot decoded twice.
TEST(CodeViewStress, ConcurrentStepReadsAgreeWithFreshDecodes) {
  const elf::ElfFile elf(stress_binary().image);
  const elf::Section* text = elf.section(".text");
  ASSERT_NE(text, nullptr);
  const std::uint64_t lo = text->addr;
  const std::uint64_t hi = text->addr + text->size;
  const std::span<const std::uint8_t> bytes = elf.section_bytes(*text);

  const CodeView shared(elf);
  constexpr std::size_t kReaders = 8;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (std::size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&shared, &elf, bytes, lo, hi, t] {
      // Phase-shifted so the readers claim different slots first.
      for (std::uint64_t k = 0; k < hi - lo; ++k) {
        const std::uint64_t a = lo + (k + t * 97) % (hi - lo);
        const auto fresh = x86::decode(
            bytes.subspan(a - lo, std::min<std::uint64_t>(15, hi - a)), a);
        const CodeView::Rec rec = shared.rec_at(a);
        ASSERT_EQ(rec.step != nullptr, fresh.has_value()) << a;
        if (rec.step == nullptr) {
          continue;
        }
        ASSERT_EQ(*rec.step, test::expected_step(*fresh, elf));
        ASSERT_EQ(shared.rec_at(a).step, rec.step);
        ASSERT_EQ(&shared.step(rec.slot), rec.step);
        if (k % 64 == t) {  // a sample of on-demand re-decodes
          x86::Insn again;
          shared.redecode(rec.slot, again);
          ASSERT_TRUE(again == *fresh) << test::insn_fingerprint(again);
        }
      }
    });
  }
  for (std::thread& th : readers) {
    th.join();
  }

  const CodeView serial(elf);
  for (std::uint64_t addr = lo; addr < hi; ++addr) {
    ASSERT_EQ(step_text(shared, addr), step_text(serial, addr))
        << "divergence at " << std::hex << addr;
  }
  EXPECT_EQ(shared.decoded_steps(), shared.cache_stats().decoded);
}

TEST(CodeViewDense, SlotNumbersPast32BitsAreAParseError) {
  // 65,000 section headers that map one 70,000-byte executable section's
  // bytes at as many distinct addresses: a 4.3 MB file whose slots would
  // number 4.55e9 and need 18 GB. The view refuses it before allocating:
  // its code exceeds the file's size long before slot numbers pass 32
  // bits (HeadersAliasingOneSectionAreAParseError below).
  constexpr std::size_t kHeaders = 65000;
  elf::ElfBuilder b;
  const std::uint16_t text = b.add_section(
      ".text", elf::kShtProgbits, elf::kShfAlloc | elf::kShfExecinstr,
      kTextAddr, std::vector<std::uint8_t>(70000, 0x90), 16);
  b.set_entry(kTextAddr);
  const std::vector<std::uint8_t> plain = b.build();
  std::vector<std::uint64_t> addrs;
  for (std::size_t i = elf::ElfFile(plain).sections().size(); i < kHeaders;
       ++i) {
    addrs.push_back(kTextAddr + i * 70000);
  }
  const elf::ElfFile elf(with_aliases(plain, text, addrs));
  ASSERT_EQ(elf.sections().size(), kHeaders);
  EXPECT_THROW(CodeView{elf}, ParseError);
}

TEST(CodeViewBoundary, HeadersAliasingOneSectionAreAParseError) {
  // A second header that maps a 4 KiB code section's file bytes at another
  // address: each alias would cost slots, decodes and probes of its own,
  // so a file whose code runs hold more bytes than the file is refused.
  elf::ElfBuilder b;
  std::vector<std::uint8_t> code_bytes(4096, 0x90);
  code_bytes.back() = 0xC3;
  const std::uint16_t text = b.add_section(
      ".text", elf::kShtProgbits, elf::kShfAlloc | elf::kShfExecinstr,
      kTextAddr, std::move(code_bytes), 16);
  b.set_entry(kTextAddr);
  const std::vector<std::uint8_t> plain = b.build();
  const elf::ElfFile one(plain);
  EXPECT_EQ(CodeView(one).cache_stats().code_bytes, 4096u);

  const elf::ElfFile two(with_aliases(plain, text, {kTextAddr + 0x100000}));
  ASSERT_EQ(two.sections().size(), one.sections().size() + 1);
  ASSERT_EQ(two.code_runs().size(), 2u);
  EXPECT_THROW(CodeView{two}, ParseError);
}

// A real compiler's output, not the synthesizer's: every executable slot
// of a binary from this build tree, step against a fresh decode.
TEST(CodeViewDense, BuildTreeBinaryStepsMatchFreshDecodes) {
  std::vector<std::uint8_t> image;
  ASSERT_TRUE(util::read_file_bytes(FETCH_CLI_PATH, &image));
  const elf::ElfFile elf(image);
  const elf::Section* text = elf.section(".text");
  ASSERT_NE(text, nullptr);
  const CodeView code(elf);
  const std::uint64_t decoded = test::expect_steps_match_fresh_decode(
      code, text->addr, text->addr + text->size);
  EXPECT_GT(decoded, text->size / 4);  // most bytes start some instruction
  EXPECT_EQ(decoded, code.decoded_steps());
}

}  // namespace
}  // namespace fetch::disasm
