#include <gtest/gtest.h>

#include <sstream>

#include "eval/gadget.hpp"
#include "eval/metrics.hpp"
#include "eval/runner.hpp"
#include "eval/table.hpp"
#include "helpers.hpp"

namespace fetch::eval {
namespace {

using test::kTextAddr;
using test::MiniBinary;
using x86::Assembler;
using x86::Reg;

TEST(Metrics, FpFnAccounting) {
  synth::GroundTruth truth;
  truth.starts = {10, 20, 30};
  const BinaryEval e = evaluate_starts({10, 20, 40}, truth);
  EXPECT_EQ(e.true_count, 3u);
  EXPECT_EQ(e.detected_count, 3u);
  EXPECT_EQ(e.fp(), 1u);
  EXPECT_EQ(e.fn(), 1u);
  EXPECT_TRUE(e.false_positives.count(40));
  EXPECT_TRUE(e.false_negatives.count(30));
  EXPECT_FALSE(e.full_coverage());
  EXPECT_FALSE(e.full_accuracy());

  const BinaryEval perfect = evaluate_starts({10, 20, 30}, truth);
  EXPECT_TRUE(perfect.full_coverage());
  EXPECT_TRUE(perfect.full_accuracy());
}

TEST(Metrics, ColdPartsAreFalsePositives) {
  synth::GroundTruth truth;
  truth.starts = {10};
  truth.cold_parts[50] = 10;
  const BinaryEval e = evaluate_starts({10, 50}, truth);
  EXPECT_EQ(e.fp(), 1u);
  EXPECT_TRUE(e.false_positives.count(50));
}

TEST(Metrics, MissClassification) {
  synth::GroundTruth truth;
  truth.starts = {1, 2, 3, 4};
  truth.unreachable = {1};
  truth.tail_only_single = {2};
  truth.asm_functions = {3};
  EXPECT_EQ(classify_miss(1, truth), MissKind::kUnreachable);
  EXPECT_EQ(classify_miss(2, truth), MissKind::kTailOnlySingle);
  EXPECT_EQ(classify_miss(3, truth), MissKind::kAssembly);
  EXPECT_EQ(classify_miss(4, truth), MissKind::kOther);
  EXPECT_STREQ(miss_kind_name(MissKind::kTailOnlySingle), "tail-call-only");
}

TEST(Metrics, AggregateAccumulates) {
  synth::GroundTruth truth;
  truth.starts = {10, 20};
  Aggregate agg;
  agg.add(evaluate_starts({10, 20}, truth));      // perfect
  agg.add(evaluate_starts({10}, truth));          // one FN
  agg.add(evaluate_starts({10, 20, 30}, truth));  // one FP
  EXPECT_EQ(agg.binaries, 3u);
  EXPECT_EQ(agg.true_total, 6u);
  EXPECT_EQ(agg.fp_total, 1u);
  EXPECT_EQ(agg.fn_total, 1u);
  EXPECT_EQ(agg.full_coverage, 2u);
  EXPECT_EQ(agg.full_accuracy, 2u);
}

TEST(Table, RendersAlignedColumns) {
  TextTable t({"Tool", "FP", "FN"});
  t.add_row({"FETCH", "0.67", "0.11"});
  t.add_row({"A-very-long-name", "1", "2"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("Tool"), std::string::npos);
  EXPECT_NE(out.find("A-very-long-name"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, Formatting) {
  EXPECT_EQ(fmt(1.234567, 2), "1.23");
  EXPECT_EQ(fmt_k(34772), "34.77");
  EXPECT_EQ(fmt_pct(999, 1000), "99.90");
  EXPECT_EQ(fmt_pct(1, 0), "n/a");
}

void expect_same_aggregate(const Aggregate& a, const Aggregate& b) {
  EXPECT_EQ(a.binaries, b.binaries);
  EXPECT_EQ(a.true_total, b.true_total);
  EXPECT_EQ(a.detected_total, b.detected_total);
  EXPECT_EQ(a.fp_total, b.fp_total);
  EXPECT_EQ(a.fn_total, b.fn_total);
  EXPECT_EQ(a.full_coverage, b.full_coverage);
  EXPECT_EQ(a.full_accuracy, b.full_accuracy);
}

const Strategy kFetchStrategy = [](const CorpusEntry& entry) {
  return entry.detector().run(fetch_options(entry.bin.truth)).starts();
};

/// The 8-entry smoke corpus, generated by \p jobs workers.
Corpus smoke_corpus(std::size_t jobs = 0) {
  CorpusOptions options;
  options.scale = synth::Scale::kSmoke;
  options.jobs = jobs;
  return Corpus::self_built(options);
}

/// Serial and sharded generation yield identical entries, field by field
/// (image bytes and ground truth), for both corpus kinds.
TEST(Runner, SerialAndShardedCorporaAreIdentical) {
  for (const auto make : {&Corpus::self_built, &Corpus::wild}) {
    const Corpus serial = make({synth::Scale::kSmoke, 1});
    const Corpus sharded = make({synth::Scale::kSmoke, 4});
    ASSERT_EQ(serial.size(), 8u);
    ASSERT_EQ(sharded.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(sharded.entries()[i].bin, serial.entries()[i].bin)
          << serial.entries()[i].bin.name;
    }
  }
}

TEST(Runner, ParallelStrategyRunMatchesSerial) {
  const Corpus corpus = smoke_corpus();
  std::map<std::string, Aggregate> by_opt_serial;
  std::map<std::string, Aggregate> by_opt_parallel;
  const Aggregate serial =
      run_strategy(corpus, kFetchStrategy, &by_opt_serial, 1);
  const Aggregate parallel =
      run_strategy(corpus, kFetchStrategy, &by_opt_parallel, 4);
  expect_same_aggregate(serial, parallel);
  ASSERT_EQ(by_opt_serial.size(), by_opt_parallel.size());
  for (const auto& [opt, agg] : by_opt_serial) {
    ASSERT_TRUE(by_opt_parallel.count(opt)) << opt;
    expect_same_aggregate(agg, by_opt_parallel.at(opt));
  }
}

TEST(Runner, MatrixCellsMatchIndependentRuns) {
  const Corpus corpus = smoke_corpus();
  const Strategy fde_only = [](const CorpusEntry& entry) {
    core::DetectorOptions options;
    options.recursive = false;
    options.pointer_detection = false;
    options.fix_fde_errors = false;
    options.use_entry_point = false;
    return entry.detector().run(options).starts();
  };
  const std::vector<StrategySpec> specs = {{"fde", fde_only},
                                           {"fetch", kFetchStrategy}};
  const std::vector<StrategyOutcome> matrix = run_matrix(corpus, specs, 4);
  ASSERT_EQ(matrix.size(), 2u);
  EXPECT_EQ(matrix[0].name, "fde");
  EXPECT_EQ(matrix[1].name, "fetch");
  expect_same_aggregate(matrix[0].total,
                        run_strategy(corpus, fde_only, nullptr, 1));
  expect_same_aggregate(matrix[1].total,
                        run_strategy(corpus, kFetchStrategy, nullptr, 1));
}

TEST(Runner, SharedDetectorStartSetsAreStableAcrossRepeatedRuns) {
  const Corpus corpus = smoke_corpus();
  const CorpusEntry& entry = corpus.entries()[0];
  const auto first = kFetchStrategy(entry);
  const auto second = kFetchStrategy(entry);  // memoized CodeView path
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
}

TEST(Gadget, FindsRetTerminatedSequences) {
  Assembler a(kTextAddr);
  a.pop(Reg::kRax);  // classic "pop rax; ret" gadget
  a.ret();
  const elf::ElfFile elf = MiniBinary(a).build();
  const disasm::CodeView code(elf);
  EXPECT_GE(count_gadgets_at(code, {kTextAddr}), 2u);  // at pop and at ret
}

TEST(Gadget, DirectBranchesEndGadgets) {
  Assembler a(kTextAddr);
  a.call_abs(kTextAddr + 32);
  a.nop(27);
  a.ret();
  const elf::ElfFile elf = MiniBinary(a).build();
  const disasm::CodeView code(elf);
  // A sequence starting at the call is not a gadget (direct transfer),
  // but offsets past it still reach the ret within the window.
  const std::size_t n = count_gadgets_at(code, {kTextAddr});
  EXPECT_GE(n, 1u);
}

TEST(Gadget, EmptyStartSetYieldsZero) {
  Assembler a(kTextAddr);
  a.ret();
  const elf::ElfFile elf = MiniBinary(a).build();
  const disasm::CodeView code(elf);
  EXPECT_EQ(count_gadgets_at(code, {}), 0u);
}

TEST(Gadget, JopGadgetsCounted) {
  Assembler a(kTextAddr);
  a.pop(Reg::kRdi);
  a.jmp_reg(Reg::kRdi);
  const elf::ElfFile elf = MiniBinary(a).build();
  const disasm::CodeView code(elf);
  EXPECT_GE(count_gadgets_at(code, {kTextAddr}), 2u);
}

}  // namespace
}  // namespace fetch::eval
