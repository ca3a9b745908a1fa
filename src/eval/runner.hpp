#pragma once

/// \file runner.hpp
/// Corpus materialization and strategy execution shared by the benchmark
/// binaries. A Corpus owns the generated images and their parsed ELF
/// views, so running many strategies (the Figure 5 ladders, Table III's
/// nine tools) re-uses the same bytes. The corpus is materialized once
/// and then immutable; the (corpus entry × strategy) cells of a run
/// execute concurrently on util/thread_pool.hpp, with per-entry decode
/// state shared across ladder steps. Aggregation stays serial and in
/// entry order, so results are byte-identical to a single-threaded run
/// (see DESIGN.md, "Parallel evaluation").

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "elf/elf_file.hpp"
#include "eval/metrics.hpp"
#include "synth/codegen.hpp"
#include "synth/corpus.hpp"

namespace fetch::eval {

struct CorpusEntry {
  synth::SynthBinary bin;
  elf::ElfFile elf;

  explicit CorpusEntry(synth::SynthBinary b)
      : bin(std::move(b)), elf(bin.image), lazy_(std::make_shared<Lazy>()) {}

  // Copying would share the lazily built detector, whose references into
  // this entry's members dangle once the source entry dies. Entries move
  // during corpus materialization (before any detector exists) and are
  // only handed out by const reference afterwards.
  CorpusEntry(CorpusEntry&&) = default;
  CorpusEntry& operator=(CorpusEntry&&) = default;
  CorpusEntry(const CorpusEntry&) = delete;
  CorpusEntry& operator=(const CorpusEntry&) = delete;

  /// The entry's shared detection context: memoized CodeView plus parsed
  /// .eh_frame, built on first use and reused by every strategy cell that
  /// touches this entry. Thread-safe; callers must not outlive the entry.
  [[nodiscard]] const core::FunctionDetector& detector() const {
    std::call_once(lazy_->once, [this] { lazy_->det.emplace(elf); });
    return *lazy_->det;
  }

 private:
  struct Lazy {
    std::once_flag once;
    std::optional<core::FunctionDetector> det;
  };
  // Heap slot so the entry stays movable while materializing the corpus.
  std::shared_ptr<Lazy> lazy_;
};

/// How a Corpus is materialized: which population and how many
/// generation workers.
struct CorpusOptions {
  /// Population size (see synth::Scale): smoke = 8-entry ctest prefix,
  /// default = the 176-entry corpus, full = the paper-scale ≥1,352 set.
  synth::Scale scale = synth::Scale::kDefault;
  /// Generation/evaluation workers (0 = FETCH_JOBS env, else hardware).
  std::size_t jobs = 0;
};

class Corpus {
 public:
  /// The self-built corpus (Table II) at the requested scale. Entries are
  /// generated into per-index slots, so serial and sharded generation
  /// yield byte-identical entries.
  [[nodiscard]] static Corpus self_built(const CorpusOptions& options);
  /// The wild suite (Table I) at the requested scale.
  [[nodiscard]] static Corpus wild(const CorpusOptions& options);

  [[nodiscard]] const std::vector<CorpusEntry>& entries() const {
    return entries_;
  }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  static Corpus materialize_spec(const synth::CorpusSpec& spec,
                                 const CorpusOptions& options);

  std::vector<CorpusEntry> entries_;
};

/// A detection strategy: binary in, start set out.
using Strategy =
    std::function<std::set<std::uint64_t>(const CorpusEntry&)>;

/// A named strategy: one column of a ladder/table run.
struct StrategySpec {
  std::string name;
  Strategy run;
};

/// Everything a matrix run produces for one strategy.
struct StrategyOutcome {
  std::string name;
  Aggregate total;
  std::map<std::string, Aggregate> by_opt;
};

/// Detector options for the FETCH pipeline on a corpus binary. The
/// conditional-noreturn addresses (`error`-style functions) are passed in
/// as configuration: in real binaries this knowledge comes from dynamic
/// symbol names (error@plt), which survive stripping; our synthetic
/// binaries have no PLT, so the harness supplies the addresses directly
/// (see DESIGN.md, Substitutions).
[[nodiscard]] core::DetectorOptions fetch_options(const synth::GroundTruth& truth);

/// Runs \p strategy over the corpus, aggregating totals; when \p by_opt is
/// non-null, also aggregates per optimization level. Entries are evaluated
/// concurrently on \p jobs workers (0 = FETCH_JOBS/hardware default); the
/// aggregate is reduced serially in entry order either way.
[[nodiscard]] Aggregate run_strategy(
    const Corpus& corpus, const Strategy& strategy,
    std::map<std::string, Aggregate>* by_opt = nullptr, std::size_t jobs = 0);

/// Runs every (entry × strategy) cell of \p strategies over the corpus on
/// one shared pool of \p jobs workers and returns one outcome per
/// strategy, in input order. This is the engine behind the Figure 5
/// ladders and the Table III tool comparison.
[[nodiscard]] std::vector<StrategyOutcome> run_matrix(
    const Corpus& corpus, const std::vector<StrategySpec>& strategies,
    std::size_t jobs = 0);

}  // namespace fetch::eval
