#include "eval/runner.hpp"

#include <utility>

#include "util/thread_pool.hpp"

namespace fetch::eval {

Corpus Corpus::materialize_spec(const synth::CorpusSpec& spec,
                                const CorpusOptions& options) {
  // Sharded generation into stable slots: each entry has its own RNG
  // stream (seed baked into its spec), so the job count can affect only
  // wall-clock time, never bytes. CorpusEntry parses its ELF, so that
  // runs in the same shard.
  const std::vector<synth::ProgramSpec> specs = spec.expand();
  std::vector<std::optional<CorpusEntry>> slots(specs.size());
  util::parallel_for(options.jobs, specs.size(), [&](std::size_t i) {
    slots[i].emplace(synth::generate(specs[i]));
  });
  Corpus corpus;
  corpus.entries_.reserve(slots.size());
  for (std::optional<CorpusEntry>& slot : slots) {
    corpus.entries_.push_back(std::move(*slot));
  }
  return corpus;
}

Corpus Corpus::self_built(const CorpusOptions& options) {
  return materialize_spec(synth::CorpusSpec::self_built(options.scale),
                          options);
}

Corpus Corpus::wild(const CorpusOptions& options) {
  return materialize_spec(synth::CorpusSpec::wild(options.scale), options);
}

core::DetectorOptions fetch_options(const synth::GroundTruth& truth) {
  core::DetectorOptions options;
  options.disasm.conditional_noreturn = truth.error_like;
  return options;
}

Aggregate run_strategy(const Corpus& corpus, const Strategy& strategy,
                       std::map<std::string, Aggregate>* by_opt,
                       std::size_t jobs) {
  std::vector<StrategyOutcome> outcomes =
      run_matrix(corpus, {{"", strategy}}, jobs);
  if (by_opt != nullptr) {
    *by_opt = std::move(outcomes[0].by_opt);
  }
  return outcomes[0].total;
}

std::vector<StrategyOutcome> run_matrix(
    const Corpus& corpus, const std::vector<StrategySpec>& strategies,
    std::size_t jobs) {
  const std::size_t n_entries = corpus.size();
  const std::size_t n_strategies = strategies.size();

  // Every (strategy, entry) cell lands in its own slot; the reduction
  // below walks the slots serially in entry order, so the aggregates are
  // identical to a serial run for any job count.
  std::vector<BinaryEval> cells(n_entries * n_strategies);
  util::parallel_for(jobs, cells.size(), [&](std::size_t i) {
    const std::size_t s = i / n_entries;
    const CorpusEntry& entry = corpus.entries()[i % n_entries];
    cells[i] = evaluate_starts(strategies[s].run(entry), entry.bin.truth);
  });

  std::vector<StrategyOutcome> outcomes(n_strategies);
  for (std::size_t s = 0; s < n_strategies; ++s) {
    outcomes[s].name = strategies[s].name;
    for (std::size_t e = 0; e < n_entries; ++e) {
      const BinaryEval& cell = cells[s * n_entries + e];
      outcomes[s].total.add(cell);
      outcomes[s].by_opt[corpus.entries()[e].bin.opt].add(cell);
    }
  }
  return outcomes;
}

}  // namespace fetch::eval
