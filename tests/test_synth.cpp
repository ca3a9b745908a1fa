#include <gtest/gtest.h>

#include <set>

#include "util/error.hpp"

#include "disasm/code_view.hpp"
#include "ehframe/cfi_eval.hpp"
#include "ehframe/eh_frame.hpp"
#include "elf/elf_file.hpp"
#include "synth/codegen.hpp"
#include "synth/corpus.hpp"

namespace fetch::synth {
namespace {

ProgramSpec sample_spec(std::uint64_t seed = 77) {
  return make_program(projects()[0], profile_for("gcc", "O2"), seed);
}

TEST(Synth, Deterministic) {
  const SynthBinary a = generate(sample_spec());
  const SynthBinary b = generate(sample_spec());
  EXPECT_EQ(a.image, b.image);
  EXPECT_EQ(a.truth.starts, b.truth.starts);
}

TEST(Synth, DifferentSeedsDiffer) {
  const SynthBinary a = generate(sample_spec(1));
  const SynthBinary b = generate(sample_spec(2));
  EXPECT_NE(a.image, b.image);
}

TEST(Synth, GroundTruthConsistency) {
  const SynthBinary bin = generate(sample_spec());
  const auto& t = bin.truth;
  // Cold parts are not function starts.
  for (const auto& [part, parent] : t.cold_parts) {
    EXPECT_FALSE(t.starts.count(part));
    EXPECT_TRUE(t.starts.count(parent));
  }
  // fde_covered and asm_functions partition the starts.
  for (const std::uint64_t s : t.starts) {
    EXPECT_EQ(t.fde_covered.count(s) + t.asm_functions.count(s), 1u)
        << std::hex << s;
  }
  // Special sets are subsets of starts.
  for (const std::uint64_t s : t.noreturn) {
    EXPECT_TRUE(t.starts.count(s));
  }
  for (const std::uint64_t s : t.unreachable) {
    EXPECT_TRUE(t.starts.count(s));
  }
  for (const std::uint64_t s : t.incomplete_cfi_cold_parts) {
    EXPECT_TRUE(t.cold_parts.count(s));
  }
}

TEST(Synth, ImageParsesAndFdesMatchTruth) {
  const SynthBinary bin = generate(sample_spec());
  const elf::ElfFile elf(bin.image);
  const auto eh = eh::EhFrame::from_elf(elf);
  ASSERT_TRUE(eh.has_value());

  std::set<std::uint64_t> fde_starts;
  for (const std::uint64_t pc : eh->pc_begins()) {
    fde_starts.insert(pc);
  }
  std::set<std::uint64_t> expected;
  for (const std::uint64_t s : bin.truth.fde_covered) {
    expected.insert(s);
  }
  for (const auto& [part, parent] : bin.truth.cold_parts) {
    if (bin.truth.fde_covered.count(parent)) {
      expected.insert(part);
    }
  }
  EXPECT_EQ(fde_starts, expected);
}

TEST(Synth, SymbolsCoverFunctionsAndColdParts) {
  ProgramSpec spec = sample_spec();
  spec.stripped = false;
  const SynthBinary bin = generate(spec);
  const elf::ElfFile elf(bin.image);
  ASSERT_TRUE(elf.has_symtab());
  std::set<std::uint64_t> sym_addrs;
  for (const elf::Symbol& sym : elf.symbols()) {
    if (sym.is_function()) {
      sym_addrs.insert(sym.value);
    }
  }
  for (const std::uint64_t s : bin.truth.starts) {
    EXPECT_TRUE(sym_addrs.count(s)) << std::hex << s;
  }
  // Symbols share the FDE false-positive problem (paper §V-A): cold parts
  // have their own symbols.
  for (const auto& [part, parent] : bin.truth.cold_parts) {
    EXPECT_TRUE(sym_addrs.count(part)) << std::hex << part;
  }
}

TEST(Synth, StrippedBinaryHasNoSymtab) {
  ProgramSpec spec = sample_spec();
  spec.stripped = true;
  const elf::ElfFile elf(generate(spec).image);
  EXPECT_FALSE(elf.has_symtab());
}

TEST(Synth, EveryFunctionBodyDecodes) {
  const SynthBinary bin = generate(sample_spec());
  const elf::ElfFile elf(bin.image);
  const disasm::CodeView code(elf);
  // From every true start, straight-line decoding must succeed until a
  // terminator (sanity of the emitted machine code).
  for (const std::uint64_t s : bin.truth.starts) {
    std::uint64_t addr = s;
    for (int i = 0; i < 200; ++i) {
      const auto insn = code.decode(addr);
      ASSERT_TRUE(insn) << "undecodable byte at " << std::hex << addr
                        << " in function " << s;
      if (insn->is_terminator()) {
        break;
      }
      addr += insn->length;
    }
  }
}

TEST(Synth, CfiEvaluatesForEveryFde) {
  const SynthBinary bin = generate(sample_spec());
  const elf::ElfFile elf(bin.image);
  const auto eh = eh::EhFrame::from_elf(elf);
  ASSERT_TRUE(eh.has_value());
  for (const eh::Fde& fde : eh->fdes()) {
    const auto table = eh::evaluate_cfi(eh->cie_for(fde), fde);
    ASSERT_TRUE(table.has_value()) << std::hex << fde.pc_begin;
    EXPECT_EQ(table->pc_begin(), fde.pc_begin);
  }
}

TEST(Synth, IncompleteCfiExactlyForFramePointerFunctions) {
  const SynthBinary bin = generate(sample_spec());
  const elf::ElfFile elf(bin.image);
  const auto eh = eh::EhFrame::from_elf(elf);
  for (const eh::Fde& fde : eh->fdes()) {
    if (bin.truth.incomplete_cfi_cold_parts.count(fde.pc_begin)) {
      const auto table = eh::evaluate_cfi(eh->cie_for(fde), fde);
      ASSERT_TRUE(table.has_value());
      EXPECT_FALSE(table->complete_stack_height());
    }
  }
}

TEST(Corpus, HasExpectedShape) {
  const auto corpus = CorpusSpec::self_built(Scale::kDefault).expand();
  EXPECT_EQ(corpus.size(), projects().size() * 2 * 4);
  std::set<std::string> opts;
  std::set<std::string> compilers;
  for (const ProgramSpec& spec : corpus) {
    opts.insert(spec.opt);
    compilers.insert(spec.compiler);
    EXPECT_GE(spec.functions.size(), 12u);
    EXPECT_TRUE(spec.stripped);
  }
  EXPECT_EQ(opts.size(), 4u);
  EXPECT_EQ(compilers.size(), 2u);
}

TEST(Corpus, WildSuiteMixesSymbolPresence) {
  const auto wild = CorpusSpec::wild(Scale::kDefault).expand();
  EXPECT_EQ(wild.size(), wild_defs().size());
  bool some_stripped = false;
  bool some_with_symbols = false;
  for (const ProgramSpec& spec : wild) {
    (spec.stripped ? some_stripped : some_with_symbols) = true;
  }
  EXPECT_TRUE(some_stripped);
  EXPECT_TRUE(some_with_symbols);
}

TEST(CorpusSpec, FullScaleReachesPaperPopulation) {
  const auto specs = CorpusSpec::self_built(Scale::kFull).expand();
  EXPECT_GE(specs.size(), 1352u);  // the paper's self-built corpus size
  std::set<std::string> names;
  std::set<std::uint64_t> seeds;
  std::set<std::string> opts;
  for (const ProgramSpec& spec : specs) {
    names.insert(spec.name);
    seeds.insert(spec.seed);
    opts.insert(spec.opt);
    EXPECT_TRUE(spec.stripped);
  }
  EXPECT_EQ(names.size(), specs.size()) << "entry names must be unique";
  EXPECT_EQ(seeds.size(), specs.size())
      << "every entry must own an independent RNG stream";
  EXPECT_EQ(opts.size(), 6u);  // the full -O{0,1,2,3,s,fast} ladder
}

TEST(CorpusSpec, SmokeIsPrefixOfDefault) {
  const auto smoke = CorpusSpec::self_built(Scale::kSmoke).expand();
  const auto deflt = CorpusSpec::self_built(Scale::kDefault).expand();
  ASSERT_EQ(smoke.size(), 8u);
  ASSERT_GE(deflt.size(), smoke.size());
  for (std::size_t i = 0; i < smoke.size(); ++i) {
    EXPECT_EQ(smoke[i].name, deflt[i].name);
    EXPECT_EQ(smoke[i].seed, deflt[i].seed);
  }
}

TEST(Corpus, ProfilesDifferByOptLevel) {
  const Profile o2 = profile_for("gcc", "O2");
  const Profile os = profile_for("gcc", "Os");
  const Profile ofast = profile_for("gcc", "Ofast");
  EXPECT_LT(os.cold_prob, o2.cold_prob);
  EXPECT_GT(ofast.cold_prob, o2.cold_prob);
  EXPECT_THROW(profile_for("gcc", "O7"), fetch::ContractError);
  EXPECT_THROW(profile_for("icc", "O2"), fetch::ContractError);
}

TEST(Corpus, UnoptimizedProfilesModelFramePointersAndNoTailCalls) {
  const Profile o0 = profile_for("gcc", "O0");
  const Profile o1 = profile_for("gcc", "O1");
  const Profile o2 = profile_for("gcc", "O2");
  // -O0: no sibling-call optimization, no hot/cold splitting, frame
  // pointers (incomplete CFI heights) nearly everywhere.
  EXPECT_EQ(o0.tail_prob, 0.0);
  EXPECT_EQ(o0.cold_prob, 0.0);
  EXPECT_GT(o0.frame_ptr_prob, 0.9);
  // -O1 sits between -O0 and -O2 on every one of those axes.
  EXPECT_GT(o1.frame_ptr_prob, o2.frame_ptr_prob);
  EXPECT_LT(o1.frame_ptr_prob, o0.frame_ptr_prob);
  EXPECT_GT(o1.tail_prob, 0.0);
  EXPECT_LT(o1.tail_prob, o2.tail_prob);
}

TEST(Corpus, AggressiveGccProfilesUseWideAlignment) {
  EXPECT_EQ(profile_for("gcc", "O2").alignment, 16u);
  EXPECT_EQ(profile_for("gcc", "O3").alignment, 32u);
  EXPECT_EQ(profile_for("gcc", "Ofast").alignment, 32u);
  EXPECT_EQ(profile_for("llvm", "O3").alignment, 16u);
}

TEST(Corpus, ExtendedProjectsDefinePerProjectDistributions) {
  for (const ProjectDef& def : extended_projects()) {
    EXPECT_GT(def.min_funcs, 0) << def.name;
    EXPECT_GE(def.max_funcs, def.min_funcs) << def.name;
    EXPECT_GT(def.block_factor, 0.0) << def.name;
  }
  // The per-project bounds really drive the generated function counts.
  ProjectDef small = extended_projects()[0];
  small.min_funcs = 20;
  small.max_funcs = 24;
  small.size_factor = 1.0;
  const ProgramSpec spec =
      make_program(small, profile_for("gcc", "O2"), 999);
  EXPECT_GE(spec.functions.size(), 20u);
  EXPECT_LE(spec.functions.size(), 24u);
}

class CorpusBinaryWellFormed
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CorpusBinaryWellFormed, GeneratesAndParses) {
  const auto& project = projects()[GetParam() % projects().size()];
  const auto profile =
      profile_for(GetParam() % 2 == 0 ? "gcc" : "llvm",
                  std::vector<std::string>{"O0", "O1", "O2", "O3", "Os",
                                           "Ofast"}[GetParam() % 6]);
  const SynthBinary bin =
      generate(make_program(project, profile, GetParam() * 7919));
  const elf::ElfFile elf(bin.image);
  EXPECT_TRUE(elf.section(".text") != nullptr);
  EXPECT_TRUE(eh::EhFrame::from_elf(elf).has_value());
  EXPECT_GE(bin.truth.starts.size(), 12u);
  EXPECT_TRUE(bin.truth.starts.count(elf.entry()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorpusBinaryWellFormed,
                         ::testing::Range<std::uint64_t>(0, 24));

}  // namespace
}  // namespace fetch::synth
