/// \file bench_sec5c_algorithm1.cpp
/// Regenerates the §V-C evaluation of Algorithm 1 plus the design-choice
/// ablations DESIGN.md calls out:
///  * FP reduction (paper: 34,772 → 2,659, ~95% fixed; all residuals are
///    functions whose CFI lacks complete stack-height info);
///  * new FNs are only tail-call-only targets (paper: 161, harmless);
///  * full-accuracy binaries rise (864 → 1,222), full-coverage dips
///    slightly (1,346 → 1,334);
///  * ablation: CFI-recorded heights vs ANGR/DYNINST-style static
///    heights inside the merger (Table IV's motivation).

#include <iostream>

#include "analysis/pointer_scan.hpp"
#include "analysis/stack_height.hpp"
#include "bench/common.hpp"
#include "core/tail_call_merger.hpp"
#include "disasm/code_view.hpp"
#include "ehframe/eh_frame.hpp"

int main(int argc, char** argv) {
  using namespace fetch;
  const bench::BenchOptions opts = bench::parse_args(argc, argv);
  bench::print_header("§V-C — Algorithm 1 evaluation + ablations",
                      "FDE false-positive repair by tail-call detection "
                      "and function merging");

  const eval::Corpus corpus = bench::self_built_corpus(opts);

  // --- Headline numbers: before/after Algorithm 1 ---------------------------
  const std::vector<eval::StrategyOutcome> stages = eval::run_matrix(
      corpus,
      {{"before", bench::run_fde_rec_xref}, {"after", bench::run_fetch}},
      opts.jobs);
  const eval::Aggregate& before = stages[0].total;
  const eval::Aggregate& after = stages[1].total;

  struct EntryResiduals {
    std::size_t incomplete = 0;
    std::size_t other = 0;
    std::size_t tail_only = 0;
    std::size_t new_other = 0;
  };
  const auto partials = util::parallel_map<EntryResiduals>(
      opts.effective_jobs(), corpus.size(), [&](std::size_t i) {
        const eval::CorpusEntry& entry = corpus.entries()[i];
        const auto pre = eval::evaluate_starts(
            bench::run_fde_rec_xref(entry), entry.bin.truth);
        const auto post =
            eval::evaluate_starts(bench::run_fetch(entry), entry.bin.truth);
        EntryResiduals p;
        for (const std::uint64_t fp : post.false_positives) {
          if (entry.bin.truth.incomplete_cfi_cold_parts.count(fp) != 0) {
            ++p.incomplete;
          } else {
            ++p.other;
          }
        }
        for (const std::uint64_t fn : post.false_negatives) {
          if (pre.false_negatives.count(fn) != 0) {
            continue;  // missed before Algorithm 1 too
          }
          if (entry.bin.truth.tail_only_single.count(fn) != 0) {
            ++p.tail_only;
          } else {
            ++p.new_other;
          }
        }
        return p;
      });
  std::size_t residual_incomplete = 0;
  std::size_t residual_other = 0;
  std::size_t new_fns_tail_only = 0;
  std::size_t new_fns_other = 0;
  for (const EntryResiduals& p : partials) {
    residual_incomplete += p.incomplete;
    residual_other += p.other;
    new_fns_tail_only += p.tail_only;
    new_fns_other += p.new_other;
  }

  eval::TextTable table({"Stage", "FullCov", "FullAcc", "FP", "FN"});
  bench::add_ladder_row(table, "before (FDE+Rec+Xref)", before);
  bench::add_ladder_row(table, "after  (Algorithm 1)", after);
  table.print(std::cout);

  std::cout << "\nFP reduction: " << before.fp_total << " -> "
            << after.fp_total << " ("
            << eval::fmt_pct(
                   static_cast<double>(before.fp_total - after.fp_total),
                   static_cast<double>(before.fp_total))
            << "% fixed)  [paper: 34,772 -> 2,659 = 92.4% fixed]\n";
  std::cout << "Residual FPs with incomplete CFI: " << residual_incomplete
            << ", other: " << residual_other
            << "  [paper: 2,656 of 2,659 incomplete-CFI]\n";
  std::cout << "New FNs that are tail-call-only targets: "
            << new_fns_tail_only << ", other: " << new_fns_other
            << "  [paper: 161, all tail-call-only]\n";

  // --- Ablation: static stack heights instead of CFI ------------------------
  // With static heights the merger also acts inside functions whose CFI
  // gives no verifiable height (the zone FETCH deliberately skips) and at
  // sites where the analysis disagrees with the CFI record. Both are
  // decisions resting on unreliable data — the risk Table IV quantifies.
  std::cout << "\nAblation — Algorithm 1 with static stack heights instead "
               "of CFI (DESIGN.md #1):\n";
  for (const bool dyninst_like : {true, false}) {
    struct AblationCounts {
      std::size_t merges = 0;
      std::size_t wrong_merges = 0;
      std::size_t unverifiable = 0;  // merged where CFI had no answer
      std::size_t site_disagreements = 0;
    };
    const auto per_entry = util::parallel_map<AblationCounts>(
        opts.effective_jobs(), corpus.size(), [&](std::size_t idx) {
      const eval::CorpusEntry& entry = corpus.entries()[idx];
      AblationCounts acc;
      const disasm::CodeView& code = entry.detector().code();
      const auto& eh = entry.detector().eh_frame();
      if (!eh) {
        return acc;
      }
      std::vector<std::uint64_t> seeds = eh->pc_begins();
      disasm::Options dopts;
      dopts.conditional_noreturn = entry.bin.truth.error_like;
      disasm::Result state = disasm::analyze(code, seeds, dopts);

      // Count jump sites where static and CFI heights disagree.
      const auto config = dyninst_like ? analysis::dyninst_like_config()
                                       : analysis::angr_like_config();
      for (const auto& [fn_entry, fn] : state.functions) {
        const eh::Fde* fde = eh->fde_covering(fn_entry);
        if (fde == nullptr || fde->pc_begin != fn_entry) {
          continue;
        }
        const auto table = eh::evaluate_cfi(eh->cie_for(*fde), *fde);
        if (!table || !table->complete_stack_height()) {
          continue;
        }
        const auto heights =
            analysis::analyze_stack_heights(code, *fn, config);
        for (const disasm::FuncJump& j : fn->jumps) {
          const auto it = heights.find(j.site);
          const auto cfi_h = table->stack_height_at(j.site);
          if (it != heights.end() && it->second && cfi_h &&
              *it->second != *cfi_h) {
            ++acc.site_disagreements;
          }
        }
      }

      const auto data_refs = analysis::scan_data_pointers(entry.elf, state);
      std::set<std::uint64_t> fde_starts(seeds.begin(), seeds.end());
      core::MergeOptions mopts;
      mopts.use_cfi_heights = false;
      mopts.static_dyninst_like = dyninst_like;
      const core::MergeOutcome mo = core::merge_noncontiguous_functions(
          code, state, *eh, data_refs, fde_starts, mopts);
      for (const auto& [part, parent] : mo.merged) {
        ++acc.merges;
        if (entry.bin.truth.cold_parts.count(part) == 0 &&
            entry.bin.truth.tail_only_single.count(part) == 0) {
          ++acc.wrong_merges;
        }
        if (entry.bin.truth.incomplete_cfi_cold_parts.count(part) != 0) {
          ++acc.unverifiable;  // decided without a trustworthy height source
        }
      }
      return acc;
    });
    std::size_t merges = 0;
    std::size_t wrong_merges = 0;
    std::size_t unverifiable = 0;
    std::size_t site_disagreements = 0;
    for (const AblationCounts& acc : per_entry) {
      merges += acc.merges;
      wrong_merges += acc.wrong_merges;
      unverifiable += acc.unverifiable;
      site_disagreements += acc.site_disagreements;
    }
    std::cout << "  " << (dyninst_like ? "DYNINST" : "ANGR")
              << "-style heights: " << merges << " merges ("
              << wrong_merges << " destroy true functions, " << unverifiable
              << " rest on heights CFI cannot verify); "
              << site_disagreements
              << " jump sites disagree with the CFI record\n";
  }
  std::cout << "  FETCH's choice (CFI heights + skip-if-incomplete) makes "
               "every decision verifiable; the conservative reference "
               "criterion additionally contains the damage when heights "
               "are wrong (§V-B).\n";
  return 0;
}
