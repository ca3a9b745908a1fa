#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "ehframe/eh_builder.hpp"
#include "ehframe/eh_frame.hpp"
#include "ehframe/eh_frame_hdr.hpp"
#include "elf/elf_builder.hpp"
#include "elf/elf_file.hpp"
#include "elf/strip.hpp"
#include "eval/session.hpp"
#include "eval/truth_sidecar.hpp"
#include "synth/codegen.hpp"
#include "synth/corpus.hpp"
#include "util/error.hpp"

namespace fetch {
namespace {

using elf::Addr;
using elf::ElfBuilder;
using elf::ElfFile;

/// Coverage of the stripped-evaluation-tier producers: the strip_image
/// transform, the dynsym-only TruthRequest, the fetch-truth-v1 sidecar
/// round trip, and the eh_frame_hdr truth extractor (the lowest rung of
/// the truth hierarchy: symtab > dynsym > sidecar > eh_frame_hdr).

std::vector<std::uint8_t> nop_code(std::size_t n) {
  return std::vector<std::uint8_t>(n, 0x90);
}

/// .text at 0x401000 with both symbol tables populated.
std::vector<std::uint8_t> both_tables_image() {
  ElfBuilder b;
  b.add_section(".text", elf::kShtProgbits,
                elf::kShfAlloc | elf::kShfExecinstr, 0x401000, nop_code(64),
                16);
  b.set_entry(0x401000);
  b.add_symbol("local_fn", 0x401000, 8,
               elf::sym_info(elf::kStbGlobal, elf::kSttFunc), 1);
  b.add_symbol("other_fn", 0x401010, 8,
               elf::sym_info(elf::kStbGlobal, elf::kSttFunc), 1);
  b.add_dynamic_symbol("exported_fn", 0x401020, 8,
                       elf::sym_info(elf::kStbGlobal, elf::kSttFunc), 1);
  return b.build();
}

TEST(Strip, DropsSymtabKeepsDynsymAndLayout) {
  const std::vector<std::uint8_t> image = both_tables_image();
  const ElfFile before({image.data(), image.size()});
  ASSERT_TRUE(before.has_symtab());
  ASSERT_TRUE(before.has_dynsym());

  const elf::StripResult result = elf::strip_image({image.data(),
                                                    image.size()});
  EXPECT_EQ(result.dropped,
            (std::vector<std::string>{".symtab", ".strtab"}));

  const ElfFile after({result.image.data(), result.image.size()});
  EXPECT_FALSE(after.has_symtab());
  EXPECT_TRUE(after.has_dynsym());

  // Every surviving allocated section keeps its address, offset, and
  // size: the program image is unchanged, only the header table shrank.
  for (const elf::Section& section : after.sections()) {
    bool found = false;
    for (const elf::Section& original : before.sections()) {
      if (original.name == section.name) {
        EXPECT_EQ(original.addr, section.addr) << section.name;
        EXPECT_EQ(original.offset, section.offset) << section.name;
        EXPECT_EQ(original.size, section.size) << section.name;
        found = true;
      }
    }
    EXPECT_TRUE(found) << section.name;
  }

  // Truth falls down the hierarchy: symtab before, dynsym after.
  EXPECT_EQ(before.function_truth().source, "symtab");
  const elf::FunctionTruth after_truth = after.function_truth();
  EXPECT_EQ(after_truth.source, "dynsym");
  EXPECT_EQ(after_truth.starts, std::set<Addr>{0x401020});
}

TEST(Strip, DropDynsymLeavesNoSymbolInformation) {
  const std::vector<std::uint8_t> image = both_tables_image();
  elf::StripOptions options;
  options.drop_dynsym = true;
  const elf::StripResult result =
      elf::strip_image({image.data(), image.size()}, options);

  const ElfFile after({result.image.data(), result.image.size()});
  EXPECT_FALSE(after.has_symtab());
  EXPECT_FALSE(after.has_dynsym());
  EXPECT_EQ(after.function_truth().source, "none");
  for (const std::string_view name : {".symtab", ".dynsym"}) {
    for (const elf::Section& section : after.sections()) {
      EXPECT_NE(section.name, name);
    }
  }
}

TEST(Strip, DeterministicAndIdempotent) {
  const std::vector<std::uint8_t> image = both_tables_image();
  const elf::StripResult once = elf::strip_image({image.data(),
                                                  image.size()});
  const elf::StripResult again = elf::strip_image({image.data(),
                                                   image.size()});
  EXPECT_EQ(once.image, again.image);

  // Stripping a stripped image is the identity transform.
  const elf::StripResult twice =
      elf::strip_image({once.image.data(), once.image.size()});
  EXPECT_TRUE(twice.dropped.empty());
  EXPECT_EQ(twice.image, once.image);
}

TEST(Strip, DetectionIsUnchangedByStripping) {
  // Detection never consults symbol tables, so a stripped copy must
  // produce the exact same starts as the original.
  synth::ProgramSpec spec = synth::make_program(
      synth::projects()[0], synth::profile_for("gcc", "O2"), 7171);
  spec.stripped = false;  // keep .symtab in the original
  const synth::SynthBinary bin = synth::generate(spec);
  const elf::StripResult stripped =
      elf::strip_image({bin.image.data(), bin.image.size()});
  EXPECT_LT(stripped.image.size(), bin.image.size());

  const eval::AnalysisSession session;
  const eval::FileAnalysis original = session.analyze_image(
      {bin.image.data(), bin.image.size()}, "original");
  const eval::FileAnalysis after = session.analyze_image(
      {stripped.image.data(), stripped.image.size()}, "stripped");
  ASSERT_TRUE(original.row.ok);
  ASSERT_TRUE(after.row.ok);
  EXPECT_EQ(original.functions, after.functions);
}

TEST(Strip, MalformedInputThrowsParseError) {
  const std::vector<std::uint8_t> garbage = {0x7f, 'E', 'L', 'F'};
  EXPECT_THROW(
      { auto r = elf::strip_image({garbage.data(), garbage.size()}); },
      ParseError);
  const std::vector<std::uint8_t> empty;
  EXPECT_THROW({ auto r = elf::strip_image({empty.data(), 0}); }, ParseError);

  // A lying e_shoff must be a parse error, not an out-of-bounds read.
  std::vector<std::uint8_t> image = both_tables_image();
  image[0x28] = 0xff;
  image[0x2f] = 0xff;
  EXPECT_THROW(
      { auto r = elf::strip_image({image.data(), image.size()}); },
      ParseError);
}

TEST(Strip, DynsymOnlyTruthRequestMatchesStrippedTruth) {
  // Rehearsing stripped-binary scoring on the unstripped input must give
  // the same truth the stripped copy produces by itself.
  const std::vector<std::uint8_t> image = both_tables_image();
  const ElfFile original({image.data(), image.size()});
  const elf::StripResult stripped = elf::strip_image({image.data(),
                                                      image.size()});
  const ElfFile after({stripped.image.data(), stripped.image.size()});

  const elf::FunctionTruth rehearsed =
      original.function_truth(elf::TruthRequest::kDynsymOnly);
  const elf::FunctionTruth real = after.function_truth();
  EXPECT_EQ(rehearsed.source, "dynsym");
  EXPECT_EQ(rehearsed.starts, real.starts);
}

TEST(TruthSidecar, RoundTripsStartsAndCounters) {
  elf::FunctionTruth truth;
  truth.starts = {0x401000, 0x401040, 0xffffffff12345678ULL};
  truth.source = "symtab";
  truth.zero_sized = 3;
  truth.ifuncs = 1;
  truth.aliases = 4;
  truth.undefined = 9;
  truth.non_code = 2;

  const std::string path = ::testing::TempDir() + "/sidecar_roundtrip.bin";
  const std::string sidecar = eval::truth_sidecar_path(path);
  EXPECT_EQ(sidecar, path + ".truth.json");
  std::string error;
  ASSERT_TRUE(eval::write_truth_sidecar(sidecar, truth, &error)) << error;

  const auto loaded = eval::load_truth_sidecar(sidecar, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->source, "sidecar");  // provenance, not trust level
  EXPECT_EQ(loaded->starts, truth.starts);
  EXPECT_EQ(loaded->zero_sized, truth.zero_sized);
  EXPECT_EQ(loaded->ifuncs, truth.ifuncs);
  EXPECT_EQ(loaded->aliases, truth.aliases);
  EXPECT_EQ(loaded->undefined, truth.undefined);
  EXPECT_EQ(loaded->non_code, truth.non_code);
  std::remove(sidecar.c_str());
}

TEST(TruthSidecar, MissingAndMalformedSidecarsLoadAsNothing) {
  std::string error;
  EXPECT_FALSE(eval::load_truth_sidecar(
      ::testing::TempDir() + "/no_such.truth.json", &error));
  EXPECT_FALSE(error.empty());

  const std::string path = ::testing::TempDir() + "/bad.truth.json";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"schema\":\"not-a-truth-file\"}", f);
    std::fclose(f);
  }
  EXPECT_FALSE(eval::load_truth_sidecar(path, &error));
  std::remove(path.c_str());
}

TEST(EhFrameHdrTruth, RecoversFdeStartsFromSynthBinary) {
  const synth::ProgramSpec spec = synth::make_program(
      synth::projects()[0], synth::profile_for("gcc", "O2"), 4242);
  const synth::SynthBinary bin = synth::generate(spec);
  const ElfFile elf({bin.image.data(), bin.image.size()});

  const elf::FunctionTruth truth = eh::truth_from_eh_frame_hdr(elf);
  EXPECT_EQ(truth.source, "eh_frame_hdr");
  ASSERT_FALSE(truth.starts.empty());
  // Every eh_frame_hdr start is a real FDE location: a function entry or
  // a cold part (cold parts carry their own FDEs — that is the paper's
  // false-positive mechanism, which is why this is the lowest truth rung).
  for (const Addr start : truth.starts) {
    const bool is_entry = bin.truth.starts.count(start) != 0;
    const bool is_cold = bin.truth.cold_parts.count(start) != 0;
    EXPECT_TRUE(is_entry || is_cold) << std::hex << start;
  }
  // And every FDE-covered entry is present.
  for (const std::uint64_t start : bin.truth.fde_covered) {
    EXPECT_EQ(truth.starts.count(start), 1u) << std::hex << start;
  }
}

TEST(EhFrameHdrTruth, DropsEntriesOutsideExecutableSections) {
  // Handcraft an .eh_frame whose second FDE covers a .data address: the
  // extractor must pin it in the non_code counter, not in starts.
  const std::uint64_t text_addr = 0x401000;
  const std::uint64_t data_addr = 0x500000;
  const std::uint64_t hdr_addr = 0x4ff000;
  const std::uint64_t frame_addr = 0x4ff800;

  eh::EhFrameBuilder ehb;
  ehb.add_fde(text_addr, 16, {});
  ehb.add_fde(data_addr, 16, {});
  std::vector<std::uint8_t> eh_bytes = ehb.build(frame_addr);
  const eh::EhFrame parsed =
      eh::EhFrame::parse({eh_bytes.data(), eh_bytes.size()}, frame_addr);
  std::vector<std::uint8_t> hdr_bytes =
      eh::build_eh_frame_hdr(parsed, frame_addr, hdr_addr);

  ElfBuilder b;
  b.add_section(".text", elf::kShtProgbits,
                elf::kShfAlloc | elf::kShfExecinstr, text_addr, nop_code(32),
                16);
  b.add_section(".eh_frame_hdr", elf::kShtProgbits, elf::kShfAlloc, hdr_addr,
                std::move(hdr_bytes), 4);
  b.add_section(".eh_frame", elf::kShtProgbits, elf::kShfAlloc, frame_addr,
                std::move(eh_bytes), 8);
  b.add_section(".data", elf::kShtProgbits,
                elf::kShfAlloc | elf::kShfWrite, data_addr, nop_code(32), 8);
  b.set_entry(text_addr);
  const std::vector<std::uint8_t> image = b.build();
  const ElfFile elf({image.data(), image.size()});

  const elf::FunctionTruth truth = eh::truth_from_eh_frame_hdr(elf);
  EXPECT_EQ(truth.source, "eh_frame_hdr");
  EXPECT_EQ(truth.starts, std::set<Addr>{text_addr});
  EXPECT_EQ(truth.non_code, 1u);
  EXPECT_EQ(truth.aliases, 0u);
}

TEST(EhFrameHdrTruth, AbsentTablesDegradeToNone) {
  ElfBuilder b;
  b.add_section(".text", elf::kShtProgbits,
                elf::kShfAlloc | elf::kShfExecinstr, 0x401000, nop_code(32),
                16);
  b.set_entry(0x401000);
  const std::vector<std::uint8_t> image = b.build();
  const ElfFile elf({image.data(), image.size()});
  const elf::FunctionTruth truth = eh::truth_from_eh_frame_hdr(elf);
  EXPECT_EQ(truth.source, "none");
  EXPECT_TRUE(truth.starts.empty());
}

}  // namespace
}  // namespace fetch
