/// \file bench_micro.cpp
/// Engineering micro-benchmarks: throughput of the substrates every
/// experiment leans on — instruction decoding, eh_frame parsing, CFI
/// evaluation, corpus generation, and the full FETCH pipeline per binary.
/// Not a paper artifact; regressions here inflate every other bench.
///
/// Two halves:
///   1. google-benchmark cases on one sample binary (quick signal while
///      iterating on the decoder or the detector).
///   2. A deterministic self-timed "hot path" report over the corpus at
///      the selected --scale: decode throughput, cold and warm step-read
///      (`rec_at`) cost of the lock-free dense cache, and the cache hit
///      rate. `--json PATH` writes the same rows as a
///      fetch-bench-v1 document — the checked-in BENCH_hotpath.json
///      baseline is produced by this half.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/detector.hpp"
#include "disasm/code_view.hpp"
#include "ehframe/cfi_eval.hpp"
#include "ehframe/eh_frame.hpp"
#include "elf/elf_file.hpp"
#include "eval/runner.hpp"
#include "synth/codegen.hpp"
#include "synth/corpus.hpp"
#include "x86/decoder.hpp"

namespace {

using namespace fetch;
using Clock = std::chrono::steady_clock;

const synth::SynthBinary& sample_binary() {
  static const synth::SynthBinary bin = synth::generate(synth::make_program(
      synth::projects()[0], synth::profile_for("gcc", "O2"), 4242));
  return bin;
}

// --- google-benchmark half -------------------------------------------------

void BM_DecodeText(benchmark::State& state) {
  const elf::ElfFile elf(sample_binary().image);
  const elf::Section* text = elf.section(".text");
  const auto bytes = elf.section_bytes(*text);
  for (auto _ : state) {
    std::size_t off = 0;
    std::size_t count = 0;
    while (off < bytes.size()) {
      const auto insn =
          x86::decode(bytes.subspan(off), text->addr + off);
      off += insn ? insn->length : 1;
      ++count;
    }
    benchmark::DoNotOptimize(count);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_DecodeText);

void BM_StepAtWarmDense(benchmark::State& state) {
  const elf::ElfFile elf(sample_binary().image);
  const disasm::CodeView code(elf);
  const elf::Section* text = elf.section(".text");
  // The sweep that collects the starts also warms every one of them.
  std::vector<std::uint64_t> starts;
  for (std::uint64_t a = text->addr; a < text->addr + text->size;) {
    const disasm::Step* step = code.rec_at(a).step;
    if (step == nullptr) {
      ++a;
      continue;
    }
    starts.push_back(a);
    a += step->length;
  }
  for (auto _ : state) {
    std::uint64_t sink = 0;
    for (const std::uint64_t a : starts) {
      sink += code.rec_at(a).step->length;
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(starts.size()));
}
BENCHMARK(BM_StepAtWarmDense);

void BM_ParseElf(benchmark::State& state) {
  const auto& image = sample_binary().image;
  for (auto _ : state) {
    elf::ElfFile elf(image);
    benchmark::DoNotOptimize(elf.sections().size());
  }
}
BENCHMARK(BM_ParseElf);

void BM_ParseEhFrame(benchmark::State& state) {
  const elf::ElfFile elf(sample_binary().image);
  const elf::Section* sec = elf.section(".eh_frame");
  const auto bytes = elf.section_bytes(*sec);
  for (auto _ : state) {
    const auto eh = eh::EhFrame::parse(bytes, sec->addr);
    benchmark::DoNotOptimize(eh.fdes().size());
  }
}
BENCHMARK(BM_ParseEhFrame);

void BM_EvaluateAllCfi(benchmark::State& state) {
  const elf::ElfFile elf(sample_binary().image);
  const auto eh = *eh::EhFrame::from_elf(elf);
  for (auto _ : state) {
    std::size_t complete = 0;
    for (const eh::Fde& fde : eh.fdes()) {
      const auto table = eh::evaluate_cfi(eh.cie_for(fde), fde);
      complete += table && table->complete_stack_height() ? 1 : 0;
    }
    benchmark::DoNotOptimize(complete);
  }
}
BENCHMARK(BM_EvaluateAllCfi);

void BM_GenerateBinary(benchmark::State& state) {
  const auto spec = synth::make_program(
      synth::projects()[0], synth::profile_for("gcc", "O2"), 4242);
  for (auto _ : state) {
    const synth::SynthBinary bin = synth::generate(spec);
    benchmark::DoNotOptimize(bin.image.size());
  }
}
BENCHMARK(BM_GenerateBinary);

void BM_FetchPipeline(benchmark::State& state) {
  const synth::SynthBinary& bin = sample_binary();
  const elf::ElfFile elf(bin.image);
  for (auto _ : state) {
    core::FunctionDetector detector(elf);
    const auto result = detector.run(eval::fetch_options(bin.truth));
    benchmark::DoNotOptimize(result.functions.size());
  }
}
BENCHMARK(BM_FetchPipeline);

// --- self-timed hot-path report --------------------------------------------

struct HotPathTotals {
  double cold_dense_ns = 0;
  double warm_dense_ns = 0;
  std::uint64_t cold_calls = 0;   // rec_at calls during the cold walks
  std::uint64_t warm_calls = 0;   // rec_at calls during the warm loops
  std::uint64_t code_bytes = 0;   // executable bytes walked (per cold pass)
  std::uint64_t dense_calls = 0;  // all dense rec_at calls (cold + warm)
  std::uint64_t dense_misses = 0;  // slots actually decoded or invalidated
};

double elapsed_ns(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start)
      .count();
}

/// Cold + warm measurement of one corpus entry. \p warm_passes controls
/// how long the warm loops run.
void measure_entry(const elf::ElfFile& elf, std::size_t warm_passes,
                   HotPathTotals& totals) {
  std::vector<std::uint64_t> starts;

  // Cold, dense: construction + full linear decode of every section.
  {
    const auto t0 = Clock::now();
    const disasm::CodeView code(elf);
    std::uint64_t calls = 0;
    for (const elf::ElfFile::SectionRun& run : elf.code_runs()) {
      std::uint64_t a = run.lo;
      while (a < run.hi) {
        const disasm::Step* step = code.rec_at(a).step;
        ++calls;
        if (step == nullptr) {
          ++a;
          continue;
        }
        starts.push_back(a);
        a += step->length;
      }
    }
    totals.cold_dense_ns += elapsed_ns(t0);
    totals.cold_calls += calls;
    for (const elf::ElfFile::SectionRun& run : elf.code_runs()) {
      totals.code_bytes += run.hi - run.lo;
    }
  }

  // Warm loops: every known instruction start, repeatedly. The view also
  // yields the cache-hit accounting (misses = slots that needed a decode;
  // everything else was a wait-free hit).
  {
    const disasm::CodeView code(elf);
    // Warm the view with a counted linear walk so every rec_at call made
    // against it is in the hit-rate denominator.
    std::uint64_t calls = 0;
    for (const elf::ElfFile::SectionRun& run : elf.code_runs()) {
      std::uint64_t a = run.lo;
      while (a < run.hi) {
        const disasm::Step* step = code.rec_at(a).step;
        ++calls;
        a += step != nullptr ? step->length : 1;
      }
    }
    const auto t0 = Clock::now();
    for (std::size_t pass = 0; pass < warm_passes; ++pass) {
      std::uint64_t sink = 0;
      for (const std::uint64_t a : starts) {
        sink += code.rec_at(a).step->length;
      }
      benchmark::DoNotOptimize(sink);
      calls += starts.size();
    }
    totals.warm_dense_ns += elapsed_ns(t0);
    totals.warm_calls +=
        static_cast<std::uint64_t>(warm_passes) * starts.size();
    const auto stats = code.cache_stats();
    totals.dense_calls += calls;
    totals.dense_misses += stats.decoded + stats.invalid;
  }
}

void run_hotpath_report(const bench::BenchOptions& opts) {
  const std::size_t warm_passes =
      opts.scale == synth::Scale::kSmoke ? 3 : 8;
  const eval::Corpus corpus = bench::self_built_corpus(opts);

  HotPathTotals totals;
  for (const eval::CorpusEntry& entry : corpus.entries()) {
    measure_entry(entry.elf, warm_passes, totals);
  }

  const double warm_dense =
      totals.warm_dense_ns / static_cast<double>(totals.warm_calls);
  const double cold_dense =
      totals.cold_dense_ns / static_cast<double>(totals.cold_calls);
  const double throughput_mib_s =
      static_cast<double>(totals.code_bytes) /
      (totals.cold_dense_ns / 1e9) / (1024.0 * 1024.0);
  const double hit_rate =
      1.0 - static_cast<double>(totals.dense_misses) /
                static_cast<double>(totals.dense_calls);

  struct Row {
    const char* name;
    std::string value;
    double raw;
    const char* unit;
  };
  const std::vector<Row> rows = {
      {"step_at_warm_dense", eval::fmt(warm_dense, 2), warm_dense, "ns/op"},
      {"step_at_cold_dense", eval::fmt(cold_dense, 2), cold_dense, "ns/op"},
      {"decode_throughput", eval::fmt(throughput_mib_s, 1), throughput_mib_s,
       "MiB/s"},
      {"cache_hit_rate", eval::fmt(hit_rate, 4), hit_rate, "ratio"},
  };

  std::cout << "\n=== hot path report (" << synth::scale_name(opts.scale)
            << " corpus, " << corpus.size() << " entries, " << warm_passes
            << " warm passes) ===\n";
  eval::TextTable table({"Metric", "Value", "Unit"});
  util::json::Value results = util::json::Value::array();
  for (const Row& row : rows) {
    table.add_row({row.name, row.value, row.unit});
    util::json::Value cell = util::json::Value::object();
    cell.set("name", util::json::Value(row.name));
    cell.set("value", util::json::Value::number(row.raw, row.value));
    cell.set("unit", util::json::Value(row.unit));
    results.add(std::move(cell));
  }
  table.print(std::cout);

  util::json::Value report = bench::json_report("bench_micro", opts);
  report.set("entries",
             util::json::Value::number(
                 static_cast<std::uint64_t>(corpus.size())));
  report.set("warm_passes", util::json::Value::number(
                                static_cast<std::uint64_t>(warm_passes)));
  report.set("results", std::move(results));
  bench::write_json_report(opts, report);
}

}  // namespace

/// Custom main instead of BENCHMARK_MAIN(): the shared bench::parse_args
/// handles the harness-wide flags (ctest passes --smoke --jobs to every
/// bench) and collects everything it does not recognize for
/// google-benchmark. Smoke scale shrinks both halves so the smoke test is
/// a compile-and-run check, not a measurement.
int main(int argc, char** argv) {
  std::vector<char*> args = {argv[0]};
  const bench::BenchOptions options = bench::parse_args(argc, argv, &args);

  std::string min_time = "--benchmark_min_time=0.01";
  if (options.scale == fetch::synth::Scale::kSmoke) {
    args.push_back(min_time.data());
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (filtered_argc > 1) {
    // Neither a harness flag (parse_args) nor a gbench flag (Initialize).
    std::fprintf(stderr, "%s: unrecognized argument: %s\n", argv[0],
                 args[1]);
    return 2;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  run_hotpath_report(options);
  return 0;
}
