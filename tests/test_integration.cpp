#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "core/detector.hpp"
#include "ehframe/cfi_eval.hpp"
#include "ehframe/eh_frame.hpp"
#include "elf/elf_file.hpp"
#include "eval/runner.hpp"

namespace fetch {
namespace {

/// End-to-end over the wild suite: every binary must run through the full
/// pipeline without throwing, and the invariants of the FETCH claims must
/// hold on each.
TEST(Integration, WildSuiteEndToEnd) {
  const eval::Corpus wild = eval::Corpus::wild(eval::CorpusOptions{});
  ASSERT_GT(wild.size(), 10u);
  for (const eval::CorpusEntry& entry : wild.entries()) {
    core::FunctionDetector detector(entry.elf);
    const auto result = detector.run(eval::fetch_options(entry.bin.truth));
    const auto e = eval::evaluate_starts(result.starts(), entry.bin.truth);
    for (const std::uint64_t fp : e.false_positives) {
      EXPECT_TRUE(entry.bin.truth.incomplete_cfi_cold_parts.count(fp))
          << entry.bin.name << " FP " << std::hex << fp;
    }
    for (const std::uint64_t fn : e.false_negatives) {
      EXPECT_NE(eval::classify_miss(fn, entry.bin.truth),
                eval::MissKind::kOther)
          << entry.bin.name << " FN " << std::hex << fn;
    }
  }
}

TEST(Integration, SymbolsAgreeWithFdesOnWildBinaries) {
  // Table I's FDE column: on unstripped wild binaries, FDE PC Begins cover
  // (nearly) all function symbols.
  const eval::Corpus wild = eval::Corpus::wild(eval::CorpusOptions{});
  for (const eval::CorpusEntry& entry : wild.entries()) {
    if (!entry.elf.has_symtab()) {
      continue;
    }
    const auto eh = eh::EhFrame::from_elf(entry.elf);
    ASSERT_TRUE(eh.has_value());
    std::set<std::uint64_t> fde_starts;
    for (const std::uint64_t pc : eh->pc_begins()) {
      fde_starts.insert(pc);
    }
    std::size_t covered = 0;
    std::size_t total = 0;
    for (const elf::Symbol& sym : entry.elf.symbols()) {
      if (!sym.is_function()) {
        continue;
      }
      ++total;
      covered += fde_starts.count(sym.value);
    }
    ASSERT_GT(total, 0u);
    EXPECT_GT(static_cast<double>(covered) / total, 0.95)
        << entry.bin.name;
  }
}

/// Parses a real system binary end to end (ELF + eh_frame + CFI), checking
/// structural invariants against genuine compiler output.
TEST(Integration, RealBinaryEhFrameIfPresent) {
  std::ifstream probe("/bin/ls", std::ios::binary);
  if (!probe) {
    GTEST_SKIP() << "/bin/ls not available";
  }
  const elf::ElfFile elf = elf::ElfFile::load("/bin/ls");
  const auto eh = eh::EhFrame::from_elf(elf);
  if (!eh) {
    GTEST_SKIP() << "no .eh_frame in /bin/ls";
  }
  std::size_t evaluated = 0;
  std::size_t complete = 0;
  for (const eh::Fde& fde : eh->fdes()) {
    const auto table = eh::evaluate_cfi(eh->cie_for(fde), fde);
    if (!table) {
      continue;
    }
    ++evaluated;
    complete += table->complete_stack_height() ? 1 : 0;
    // Entry state of an FDE at a function start is CFA=rsp+8.
    if (table->complete_stack_height()) {
      EXPECT_EQ(table->stack_height_at(fde.pc_begin), 0);
    }
  }
  EXPECT_GT(evaluated, 10u);
  EXPECT_GT(complete, 0u);
}

/// Compiles a real C++ program with the system compiler and validates that
/// our eh_frame pipeline agrees with the compiler's symbol table.
TEST(Integration, FreshlyCompiledBinaryIfToolchainPresent) {
  if (std::system("command -v g++ >/dev/null 2>&1") != 0) {
    GTEST_SKIP() << "no g++ available";
  }
  const std::string dir = ::testing::TempDir();
  const std::string src = dir + "/fetch_it.cpp";
  const std::string bin = dir + "/fetch_it.bin";
  {
    std::ofstream out(src);
    out << R"(
      #include <cstdio>
      __attribute__((noinline)) int helper(int x) { return x * 3 + 1; }
      __attribute__((noinline)) double other(double d) { return d / 2; }
      int main(int argc, char**) {
        std::printf("%d %f\n", helper(argc), other(argc));
        return 0;
      }
    )";
  }
  const std::string cmd =
      "g++ -O2 -no-pie -o " + bin + " " + src + " 2>/dev/null";
  if (std::system(cmd.c_str()) != 0) {
    GTEST_SKIP() << "g++ failed (static toolchain missing?)";
  }

  const elf::ElfFile elf = elf::ElfFile::load(bin);
  const auto eh = eh::EhFrame::from_elf(elf);
  ASSERT_TRUE(eh.has_value());
  std::set<std::uint64_t> fde_starts;
  for (const std::uint64_t pc : eh->pc_begins()) {
    fde_starts.insert(pc);
  }
  // Every function symbol the compiler kept must have an FDE (the ABI
  // mandate the paper's §III relies on).
  std::size_t checked = 0;
  for (const elf::Symbol& sym : elf.symbols()) {
    if (!sym.is_function() || sym.size == 0 ||
        !elf.is_code_address(sym.value)) {
      continue;
    }
    if (sym.name == "main" || sym.name.find("helper") != std::string::npos ||
        sym.name.find("other") != std::string::npos) {
      EXPECT_TRUE(fde_starts.count(sym.value)) << sym.name;
      ++checked;
    }
  }
  EXPECT_EQ(checked, 3u);

  // And the detector must run cleanly over the real binary.
  core::FunctionDetector detector(elf);
  const auto result = detector.run({});
  EXPECT_GT(result.functions.size(), 3u);
  EXPECT_TRUE(result.functions.count(elf.entry()) ||
              !elf.is_code_address(elf.entry()));
}

}  // namespace
}  // namespace fetch
