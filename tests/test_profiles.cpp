#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "elf/elf_file.hpp"
#include "eval/session.hpp"
#include "synth/codegen.hpp"
#include "synth/corpus.hpp"
#include "util/error.hpp"

namespace fetch::synth {
namespace {

/// Pinned behavior of the unconventional-toolchain corpus profiles (the
/// CorpusSpec `features` axis): no-unwind-tables, static-PIE, and CET
/// layouts, plus the seed-stability contract that keeps the historical
/// corpus byte-identical when the axis is absent.

CorpusSpec one_cell_spec(std::vector<std::string> features) {
  CorpusSpec spec;
  spec.kind = CorpusSpec::Kind::kSelfBuilt;
  spec.scale = Scale::kDefault;
  spec.compilers = {"gcc"};
  spec.opts = {"O2"};
  spec.variants = 1;
  spec.features = std::move(features);
  return spec;
}

ProgramSpec feature_program(const std::string& feature, std::uint64_t seed) {
  Profile profile = profile_for("gcc", "O2");
  apply_feature(&profile, feature);
  ProgramSpec spec = make_program(projects()[0], profile, seed);
  spec.stripped = true;  // match the evaluation corpus
  return spec;
}

bool has_section(const elf::ElfFile& elf, const std::string& name) {
  for (const elf::Section& section : elf.sections()) {
    if (section.name == name) {
      return true;
    }
  }
  return false;
}

TEST(Profiles, FeatureAxisMultipliesEachCell) {
  const CorpusSpec plain = one_cell_spec({});
  const CorpusSpec doubled = one_cell_spec({"default", "no-unwind"});
  const std::vector<ProgramSpec> base = plain.expand();
  const std::vector<ProgramSpec> expanded = doubled.expand();
  ASSERT_EQ(expanded.size(), base.size() * 2);

  for (std::size_t i = 0; i < base.size(); ++i) {
    // Entries interleave per cell: default first, then the feature.
    const ProgramSpec& dflt = expanded[2 * i];
    const ProgramSpec& feat = expanded[2 * i + 1];
    // The feature half is a genuinely distinct program: suffixed name,
    // chained seed, toggled layout flag. (Adding a non-default axis is a
    // new population: the axis folds into every entry's seed, so even
    // the default half gets fresh seeds — only an absent-or-lone-default
    // axis reproduces the historical corpus, pinned separately below.)
    EXPECT_EQ(dflt.name, base[i].name);
    EXPECT_TRUE(dflt.unwind_tables);
    EXPECT_EQ(feat.name, base[i].name + "-no-unwind");
    EXPECT_NE(feat.seed, dflt.seed);
    EXPECT_FALSE(feat.unwind_tables);
    EXPECT_TRUE(feat.stripped);
  }
}

TEST(Profiles, SeedsAreStableForDefaultFeatureAxis) {
  // Absent axis and a lone "default" are the same corpus — same names and
  // seeds, so pinned seeds and digests survive the axis.
  const std::vector<ProgramSpec> a = one_cell_spec({}).expand();
  const std::vector<ProgramSpec> b = one_cell_spec({"default"}).expand();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].seed, b[i].seed);
  }

  // A non-default entry reseeds the whole population, its default half
  // included.
  const std::vector<ProgramSpec> with_cet =
      one_cell_spec({"default", "cet"}).expand();
  ASSERT_EQ(with_cet.size(), 2 * a.size());
  EXPECT_EQ(with_cet[0].name, a[0].name);
  EXPECT_NE(with_cet[0].seed, a[0].seed);
}

TEST(Profiles, UnknownFeatureThrows) {
  Profile profile = profile_for("gcc", "O2");
  EXPECT_THROW(apply_feature(&profile, "sse9000"), ContractError);
  EXPECT_THROW(apply_feature(&profile, ""), ContractError);

  CorpusSpec spec = one_cell_spec({"no-unwind-tables"});  // wrong spelling
  EXPECT_THROW({ auto e = spec.expand(); }, ContractError);
}

TEST(Profiles, NoUnwindBinaryHasNoEhFrameAndDegradesGracefully) {
  const ProgramSpec spec = feature_program("no-unwind", 9001);
  ASSERT_FALSE(spec.unwind_tables);
  const SynthBinary bin = generate(spec);

  const elf::ElfFile elf({bin.image.data(), bin.image.size()});
  EXPECT_FALSE(has_section(elf, ".eh_frame"));
  EXPECT_FALSE(has_section(elf, ".eh_frame_hdr"));
  EXPECT_TRUE(bin.truth.fde_covered.empty());
  ASSERT_FALSE(bin.truth.starts.empty());

  // The detector's primary signal is gone. That must degrade — an ok row
  // with whatever the fallback finds, or a clean error row — never a
  // crash or an exception.
  const eval::AnalysisSession session;
  eval::FileAnalysis analysis;
  EXPECT_NO_THROW(analysis = session.analyze_image(
                      {bin.image.data(), bin.image.size()}, spec.name));
  if (!analysis.row.ok) {
    EXPECT_FALSE(analysis.row.error.empty());
  }
}

TEST(Profiles, StaticPieIsEtDynAtLowBase) {
  const ProgramSpec spec = feature_program("static-pie", 9002);
  ASSERT_TRUE(spec.static_pie);
  const SynthBinary bin = generate(spec);

  const elf::ElfFile elf({bin.image.data(), bin.image.size()});
  EXPECT_EQ(elf.type(), elf::Type::kDyn);
  // PIE-style link layout: everything below the classic 0x400000 base.
  EXPECT_LT(elf.entry(), 0x400000u);
  for (const elf::Section& section : elf.sections()) {
    if (section.addr != 0) {
      EXPECT_LT(section.addr, 0x400000u) << section.name;
    }
  }

  // Detection must work on the relocated layout.
  const eval::AnalysisSession session;
  const eval::FileAnalysis analysis = session.analyze_image(
      {bin.image.data(), bin.image.size()}, spec.name);
  ASSERT_TRUE(analysis.row.ok) << analysis.row.error;
  EXPECT_GT(analysis.row.detected, 0u);
}

TEST(Profiles, CetBinaryHasEndbr64AtEveryFunctionEntry) {
  const ProgramSpec spec = feature_program("cet", 9003);
  ASSERT_TRUE(spec.endbr64);
  const SynthBinary bin = generate(spec);
  ASSERT_FALSE(bin.truth.starts.empty());

  const elf::ElfFile elf({bin.image.data(), bin.image.size()});
  const std::uint8_t kEndbr64[4] = {0xf3, 0x0f, 0x1e, 0xfa};
  for (const std::uint64_t start : bin.truth.starts) {
    const elf::Section* home = nullptr;
    for (const elf::Section& section : elf.sections()) {
      if (start >= section.addr && start < section.addr + section.size) {
        home = &section;
        break;
      }
    }
    ASSERT_NE(home, nullptr) << std::hex << start;
    const std::uint64_t off = home->offset + (start - home->addr);
    ASSERT_LE(off + 4, bin.image.size());
    EXPECT_EQ(0, std::memcmp(bin.image.data() + off, kEndbr64, 4))
        << std::hex << start;
  }

  // The landing pads shift every instruction but must not break
  // detection: the FDE set still nails the entry addresses.
  const eval::AnalysisSession session;
  const eval::FileAnalysis analysis = session.analyze_image(
      {bin.image.data(), bin.image.size()}, spec.name);
  ASSERT_TRUE(analysis.row.ok) << analysis.row.error;
  EXPECT_GT(analysis.row.detected, 0u);
}

TEST(Profiles, FeatureGenerationIsDeterministic) {
  for (const char* feature : {"no-unwind", "static-pie", "cet"}) {
    const ProgramSpec spec = feature_program(feature, 4321);
    const SynthBinary a = generate(spec);
    const SynthBinary b = generate(spec);
    EXPECT_EQ(a.image, b.image) << feature;
    EXPECT_EQ(a.truth, b.truth) << feature;
  }
}

}  // namespace
}  // namespace fetch::synth
