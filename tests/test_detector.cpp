#include <gtest/gtest.h>

#include "core/detector.hpp"
#include "elf/elf_builder.hpp"
#include "x86/assembler.hpp"
#include "eval/metrics.hpp"
#include "eval/runner.hpp"
#include "synth/codegen.hpp"
#include "synth/corpus.hpp"

namespace fetch::core {
namespace {

struct DetectorCase {
  std::size_t project;
  const char* compiler;
  const char* opt;
};

class FetchOnCorpusBinary : public ::testing::TestWithParam<DetectorCase> {};

/// The central correctness property of the reproduction, mirroring the
/// paper's headline results (§IV-E, §V-C):
///  * FETCH's false positives are exactly the cold parts whose CFI lacks
///    complete stack-height info (plus nothing else);
///  * FETCH's false negatives are only the harmless classes: unreachable
///    assembly and tail-call-only targets (inlined by Algorithm 1), plus
///    assembly functions reachable through no evidence at all.
TEST_P(FetchOnCorpusBinary, FalsePositivesAndNegativesAreTheKnownClasses) {
  const DetectorCase& c = GetParam();
  const auto spec =
      synth::make_program(synth::projects()[c.project],
                          synth::profile_for(c.compiler, c.opt),
                          0x9e3779b9u ^ (c.project * 1009));
  const synth::SynthBinary bin = synth::generate(spec);
  const elf::ElfFile elf(bin.image);

  FunctionDetector detector(elf);
  const DetectionResult result =
      detector.run(eval::fetch_options(bin.truth));
  const auto detected = result.starts();
  const eval::BinaryEval e = eval::evaluate_starts(detected, bin.truth);

  for (const std::uint64_t fp : e.false_positives) {
    EXPECT_TRUE(bin.truth.incomplete_cfi_cold_parts.count(fp))
        << "unexpected FP at " << std::hex << fp;
  }
  for (const std::uint64_t fn : e.false_negatives) {
    const eval::MissKind kind = eval::classify_miss(fn, bin.truth);
    EXPECT_NE(kind, eval::MissKind::kOther)
        << "unexpected FN at " << std::hex << fn;
  }
}

TEST_P(FetchOnCorpusBinary, MergedPartsAreExactlyTheCompleteCfiColdParts) {
  const DetectorCase& c = GetParam();
  const auto spec =
      synth::make_program(synth::projects()[c.project],
                          synth::profile_for(c.compiler, c.opt),
                          0x9e3779b9u ^ (c.project * 1009));
  const synth::SynthBinary bin = synth::generate(spec);
  const elf::ElfFile elf(bin.image);
  FunctionDetector detector(elf);
  const DetectionResult result =
      detector.run(eval::fetch_options(bin.truth));

  for (const auto& [part, parent] : result.merged_parts) {
    if (bin.truth.cold_parts.count(part) != 0) {
      // A cold part must merge into its true parent.
      EXPECT_EQ(bin.truth.cold_parts.at(part), parent);
      EXPECT_FALSE(bin.truth.incomplete_cfi_cold_parts.count(part));
    } else {
      // Otherwise it is a tail-only target (deliberate inlining).
      EXPECT_TRUE(bin.truth.tail_only_single.count(part))
          << std::hex << part;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ProjectsAndProfiles, FetchOnCorpusBinary,
    ::testing::Values(DetectorCase{0, "gcc", "O2"},
                      DetectorCase{3, "gcc", "O3"},    // openssl: asm-heavy
                      DetectorCase{4, "llvm", "O2"},   // d8: C++-ish
                      DetectorCase{9, "gcc", "Ofast"}, // mysql
                      DetectorCase{13, "llvm", "Os"},  // mysqld
                      DetectorCase{15, "gcc", "O2"},   // glibc: asm-heavy
                      DetectorCase{21, "llvm", "Ofast"}),
    [](const ::testing::TestParamInfo<DetectorCase>& info) {
      std::string name = synth::projects()[info.param.project].name;
      for (char& c : name) {
        if (c == '-') {
          c = '_';
        }
      }
      return name + "_" + info.param.compiler + "_" + info.param.opt;
    });

TEST(Detector, FdeOnlyModeReportsRawPcBegins) {
  const auto spec = synth::make_program(
      synth::projects()[0], synth::profile_for("gcc", "O2"), 42);
  const synth::SynthBinary bin = synth::generate(spec);
  const elf::ElfFile elf(bin.image);
  FunctionDetector detector(elf);

  DetectorOptions options;
  options.recursive = false;
  options.pointer_detection = false;
  options.fix_fde_errors = false;
  options.use_entry_point = false;
  const DetectionResult result = detector.run(options);

  // Raw FDE mode must report every FDE PC Begin — including cold parts
  // (the §V-A false positives) — and nothing else.
  std::set<std::uint64_t> expected;
  for (const std::uint64_t s : bin.truth.fde_covered) {
    expected.insert(s);
  }
  for (const auto& [part, parent] : bin.truth.cold_parts) {
    if (bin.truth.fde_covered.count(parent)) {
      expected.insert(part);
    }
  }
  EXPECT_EQ(result.starts(), expected);
}

TEST(Detector, RecursiveAddsCallTargetsWithoutFalsePositives) {
  const auto spec = synth::make_program(
      synth::projects()[3], synth::profile_for("gcc", "O2"), 43);
  const synth::SynthBinary bin = synth::generate(spec);
  const elf::ElfFile elf(bin.image);
  FunctionDetector detector(elf);

  DetectorOptions fde_only;
  fde_only.recursive = false;
  fde_only.pointer_detection = false;
  fde_only.fix_fde_errors = false;
  DetectorOptions with_rec = eval::fetch_options(bin.truth);
  with_rec.pointer_detection = false;
  with_rec.fix_fde_errors = false;

  const auto starts_fde = detector.run(fde_only).starts();
  const auto starts_rec = detector.run(with_rec).starts();

  // Recursion can only add true starts (safe approach).
  for (const std::uint64_t s : starts_rec) {
    if (starts_fde.count(s) == 0 && s != elf.entry()) {
      EXPECT_TRUE(bin.truth.starts.count(s)) << std::hex << s;
    }
  }
  EXPECT_GE(starts_rec.size(), starts_fde.size());
}

TEST(Detector, BinaryWithoutEhFrameStillRuns) {
  // A binary with no .eh_frame: detection degrades to entry + recursion.
  x86::Assembler a(0x401000);
  a.call_abs(0x401010);
  a.ret();
  a.nop(16 - (a.size() % 16));
  a.xor_rr(x86::Reg::kRax, x86::Reg::kRax);
  a.ret();
  elf::ElfBuilder b;
  b.add_section(".text", elf::kShtProgbits,
                elf::kShfAlloc | elf::kShfExecinstr, 0x401000, a.finish(),
                16);
  b.emit_symtab(false);
  b.set_entry(0x401000);
  const elf::ElfFile elf(b.build());
  FunctionDetector detector(elf);
  const DetectionResult result = detector.run({});
  EXPECT_TRUE(result.functions.count(0x401000));
  EXPECT_TRUE(result.functions.count(0x401010));
}

TEST(Detector, ProvenanceNamesAreStable) {
  EXPECT_STREQ(provenance_name(Provenance::kFde), "fde");
  EXPECT_STREQ(provenance_name(Provenance::kPointer), "pointer");
  EXPECT_STREQ(provenance_name(Provenance::kTailCall), "tail-call");
}

}  // namespace
}  // namespace fetch::core
