#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <fstream>

#include "elf/elf_builder.hpp"
#include "elf/elf_file.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace fetch::elf {
namespace {

std::vector<std::uint8_t> text_bytes() {
  return {0x55, 0x48, 0x89, 0xe5, 0xc3};  // push rbp; mov rbp,rsp; ret
}

ElfBuilder simple_builder() {
  ElfBuilder b;
  const std::uint16_t text = b.add_section(
      ".text", kShtProgbits, kShfAlloc | kShfExecinstr, 0x401000,
      text_bytes(), 16);
  b.add_section(".data", kShtProgbits, kShfAlloc | kShfWrite, 0x500000,
                {1, 2, 3, 4, 5, 6, 7, 8}, 8);
  b.add_symbol("f", 0x401000, 5, sym_info(kStbGlobal, kSttFunc), text);
  b.add_symbol("local_obj", 0x500000, 8, sym_info(kStbLocal, kSttObject),
               text + 1);
  b.set_entry(0x401000);
  return b;
}

TEST(ElfRoundtrip, HeaderAndSections) {
  const auto image = simple_builder().build();
  ElfFile elf(image);
  EXPECT_EQ(elf.type(), Type::kExec);
  EXPECT_EQ(elf.entry(), 0x401000u);
  ASSERT_NE(elf.section(".text"), nullptr);
  ASSERT_NE(elf.section(".data"), nullptr);
  ASSERT_NE(elf.section(".shstrtab"), nullptr);
  EXPECT_EQ(elf.section(".text")->addr, 0x401000u);
  EXPECT_EQ(elf.section(".text")->size, 5u);
  EXPECT_TRUE(elf.section(".text")->executable());
  EXPECT_FALSE(elf.section(".data")->executable());
  EXPECT_TRUE(elf.section(".data")->writable());
}

TEST(ElfRoundtrip, SectionContents) {
  const auto image = simple_builder().build();
  ElfFile elf(image);
  const auto bytes = elf.section_bytes(*elf.section(".text"));
  ASSERT_EQ(bytes.size(), 5u);
  EXPECT_EQ(bytes[0], 0x55u);
  EXPECT_EQ(bytes[4], 0xc3u);
}

TEST(ElfRoundtrip, Symbols) {
  const auto image = simple_builder().build();
  ElfFile elf(image);
  ASSERT_TRUE(elf.has_symtab());
  ASSERT_EQ(elf.symbols().size(), 2u);
  // Locals are emitted before globals per the gABI.
  EXPECT_EQ(elf.symbols()[0].name, "local_obj");
  EXPECT_FALSE(elf.symbols()[0].is_function());
  EXPECT_EQ(elf.symbols()[1].name, "f");
  EXPECT_TRUE(elf.symbols()[1].is_function());
  EXPECT_EQ(elf.symbols()[1].value, 0x401000u);
  EXPECT_EQ(elf.symbols()[1].size, 5u);
}

TEST(ElfRoundtrip, StrippedBinaryHasNoSymtab) {
  ElfBuilder b = simple_builder();
  b.emit_symtab(false);
  ElfFile elf(b.build());
  EXPECT_FALSE(elf.has_symtab());
  EXPECT_TRUE(elf.symbols().empty());
  // Sections must still be intact.
  EXPECT_NE(elf.section(".text"), nullptr);
  EXPECT_EQ(elf.section(".symtab"), nullptr);
}

TEST(ElfRoundtrip, ProgramHeadersCoverAllocSections) {
  const auto image = simple_builder().build();
  ElfFile elf(image);
  ASSERT_EQ(elf.segments().size(), 2u);
  EXPECT_EQ(elf.segments()[0].vaddr, 0x401000u);
  EXPECT_EQ(elf.segments()[0].type, kPtLoad);
  EXPECT_NE(elf.segments()[0].flags & kPfX, 0u);
  EXPECT_NE(elf.segments()[1].flags & kPfW, 0u);
}

TEST(ElfAddressing, BytesAtAndSectionAt) {
  const auto image = simple_builder().build();
  ElfFile elf(image);
  const auto bytes = elf.bytes_at(0x401001, 3);
  ASSERT_TRUE(bytes.has_value());
  EXPECT_EQ((*bytes)[0], 0x48u);
  EXPECT_FALSE(elf.bytes_at(0x401003, 10).has_value());  // crosses the end
  EXPECT_FALSE(elf.bytes_at(0x700000, 1).has_value());   // unmapped
  EXPECT_TRUE(elf.is_code_address(0x401004));
  EXPECT_FALSE(elf.is_code_address(0x401005));
  EXPECT_FALSE(elf.is_code_address(0x500000));
  ASSERT_NE(elf.section_at(0x500004), nullptr);
  EXPECT_EQ(elf.section_at(0x500004)->name, ".data");
}

/// Hostile layouts overlap sections; lookups keep the first section (in
/// header order) that contains an address, as a linear scan would.
TEST(ElfAddressing, OverlappingSectionsResolveToTheFirstInHeaderOrder) {
  ElfBuilder b;
  b.add_section(".rodata", kShtProgbits, kShfAlloc, 0x400000,
                std::vector<std::uint8_t>(16, 0), 8);
  b.add_section(".text", kShtProgbits, kShfAlloc | kShfExecinstr, 0x401000,
                std::vector<std::uint8_t>(32, 0x90), 16);
  b.add_section(".data", kShtProgbits, kShfAlloc | kShfWrite, 0x402000,
                std::vector<std::uint8_t>(8, 0), 8);
  std::vector<std::uint8_t> image = b.build();
  auto patch = [&](const char* name, std::uint64_t addr, std::uint64_t size) {
    const ElfFile parsed(image);
    std::uint64_t shoff = 0;
    std::memcpy(&shoff, &image[0x28], 8);
    for (std::size_t i = 0; i < parsed.sections().size(); ++i) {
      if (parsed.sections()[i].name == name) {
        std::memcpy(&image[shoff + i * 64 + 16], &addr, 8);
        std::memcpy(&image[shoff + i * 64 + 32], &size, 8);
      }
    }
  };
  patch(".rodata", 0x400ff8, 16);      // covers .text's first 8 bytes
  patch(".data", 0x401010, 8);         // inside .text, later in header order
  patch(".text", 0x401000, 32);
  const ElfFile elf(image);
  auto name_at = [&](std::uint64_t addr) -> std::string {
    const Section* s = elf.section_at(addr);
    return s == nullptr ? "" : s->name;
  };
  EXPECT_EQ(name_at(0x400ff8), ".rodata");
  EXPECT_EQ(name_at(0x401004), ".rodata");
  EXPECT_FALSE(elf.is_code_address(0x401004));
  EXPECT_EQ(name_at(0x401008), ".text");
  EXPECT_TRUE(elf.is_code_address(0x401008));
  EXPECT_EQ(name_at(0x401012), ".text");  // .data comes later
  EXPECT_EQ(name_at(0x401020), "");
  // Every address agrees with a first-match linear scan.
  for (std::uint64_t addr = 0x400ff0; addr < 0x401030; ++addr) {
    const Section* expected = nullptr;
    for (const Section& s : elf.sections()) {
      if (s.contains(addr)) {
        expected = &s;
        break;
      }
    }
    EXPECT_EQ(elf.section_at(addr), expected) << std::hex << addr;
    EXPECT_EQ(elf.is_code_address(addr),
              expected != nullptr && expected->executable());
  }
}

/// is_code_address against a naive scan of code_runs(), on random layouts
/// of disjoint executable sections with data sections and holes between
/// them: below, between, inside and above the runs, and at every run edge.
TEST(ElfAddressing, IsCodeAddressMatchesAScanOfTheCodeRuns) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    ElfBuilder b;
    std::uint64_t at = 0x400000 + 16 * rng.below(64);
    const std::size_t sections = 2 + rng.below(6);
    for (std::size_t i = 0; i < sections; ++i) {
      const bool code = i % 2 == 1;  // data below and between code
      const std::uint64_t size = 1 + rng.below(300);
      b.add_section(code ? ".text" : ".data", kShtProgbits,
                    code ? kShfAlloc | kShfExecinstr : kShfAlloc, at,
                    std::vector<std::uint8_t>(size, 0x90), 16);
      at = (at + size + 15) / 16 * 16 + 16 * rng.below(3);  // hole or not
    }
    b.add_section(".text", kShtProgbits, kShfAlloc | kShfExecinstr, at,
                  std::vector<std::uint8_t>(16, 0xc3), 16);
    const ElfFile elf(b.build());
    const auto runs = elf.code_runs();
    ASSERT_FALSE(runs.empty());
    auto naive = [&](std::uint64_t v) {
      return std::any_of(runs.begin(), runs.end(), [&](const auto& r) {
        return r.lo <= v && v < r.hi;
      });
    };
    std::vector<std::uint64_t> probes = {0, 1, ~std::uint64_t{0},
                                         ~std::uint64_t{0} - 1};
    for (const auto& r : runs) {
      probes.insert(probes.end(), {r.lo - 1, r.lo, r.hi - 1, r.hi});
    }
    const std::uint64_t lo = runs.front().lo;
    const std::uint64_t hi = runs.back().hi;
    for (int i = 0; i < 200; ++i) {
      probes.push_back(rng.below(lo));                        // below
      probes.push_back(lo + rng.below(hi - lo));              // between/in
      probes.push_back(hi + rng.below(~std::uint64_t{0} - hi));  // above
    }
    for (const std::uint64_t v : probes) {
      EXPECT_EQ(elf.is_code_address(v), naive(v))
          << "seed " << seed << " addr " << std::hex << v;
    }
  }
}

TEST(ElfAddressing, SectionEndPastTheAddressSpaceContainsNothing) {
  ElfBuilder b = simple_builder();
  std::vector<std::uint8_t> image = b.build();
  const ElfFile parsed(image);
  std::uint64_t shoff = 0;
  std::memcpy(&shoff, &image[0x28], 8);
  for (std::size_t i = 0; i < parsed.sections().size(); ++i) {
    if (parsed.sections()[i].name == ".data") {
      const std::uint64_t addr = ~std::uint64_t{0} - 3;
      std::memcpy(&image[shoff + i * 64 + 16], &addr, 8);
    }
  }
  const ElfFile elf(image);
  EXPECT_EQ(elf.section_at(~std::uint64_t{0} - 1), nullptr);
  EXPECT_TRUE(elf.is_code_address(0x401000));
}

TEST(ElfParse, RejectsBadMagic) {
  auto image = simple_builder().build();
  image[0] = 0x00;
  EXPECT_THROW(ElfFile{image}, ParseError);
}

TEST(ElfParse, RejectsTruncatedHeader) {
  auto image = simple_builder().build();
  image.resize(30);
  EXPECT_THROW(ElfFile{image}, ParseError);
}

TEST(ElfParse, Rejects32Bit) {
  auto image = simple_builder().build();
  image[4] = 1;  // ELFCLASS32
  EXPECT_THROW(ElfFile{image}, ParseError);
}

TEST(ElfParse, RejectsOutOfBoundsSectionHeaders) {
  auto image = simple_builder().build();
  // shoff lives at offset 40 in the ELF header.
  const std::uint64_t bogus = image.size() + 1000;
  std::memcpy(image.data() + 40, &bogus, 8);
  EXPECT_THROW(ElfFile{image}, ParseError);
}

TEST(ElfParse, LoadFromDiskRoundtrip) {
  const auto image = simple_builder().build();
  const std::string path = ::testing::TempDir() + "/fetch_elf_test.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(image.data()),
              static_cast<std::streamsize>(image.size()));
  }
  const ElfFile elf = ElfFile::load(path);
  EXPECT_EQ(elf.entry(), 0x401000u);
  EXPECT_THROW(ElfFile::load(path + ".does-not-exist"), ParseError);
}

TEST(ElfParse, RealSystemBinaryIfPresent) {
  // Pure-parsing integration check against a real compiler/linker output.
  std::ifstream probe("/bin/ls", std::ios::binary);
  if (!probe) {
    GTEST_SKIP() << "/bin/ls not available";
  }
  const ElfFile elf = ElfFile::load("/bin/ls");
  EXPECT_FALSE(elf.sections().empty());
  const Section* text = elf.section(".text");
  ASSERT_NE(text, nullptr);
  EXPECT_TRUE(text->executable());
  EXPECT_GT(text->size, 0u);
}

}  // namespace
}  // namespace fetch::elf
