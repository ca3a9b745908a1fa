/// \file quickstart.cpp
/// Five-minute tour of the public API: obtain a binary (a synthesized one
/// by default, or any x64 ELF passed as argv[1]), run the FETCH pipeline,
/// and print every detected function start with its provenance.
///
///   ./quickstart [path-to-elf]

#include <algorithm>
#include <iomanip>
#include <iostream>

#include "core/detector.hpp"
#include "elf/elf_file.hpp"
#include "synth/codegen.hpp"
#include "synth/corpus.hpp"

int main(int argc, char** argv) {
  using namespace fetch;

  // 1. Get a binary: load from disk, or synthesize a realistic one.
  std::optional<elf::ElfFile> elf;
  if (argc > 1) {
    elf.emplace(elf::ElfFile::load(argv[1]));
    std::cout << "Loaded " << argv[1] << "\n";
  } else {
    const auto spec = synth::make_program(
        synth::projects()[0], synth::profile_for("gcc", "O2"), 2026);
    const synth::SynthBinary bin = synth::generate(spec);
    elf.emplace(bin.image);
    std::cout << "Synthesized '" << bin.name << "' ("
              << bin.truth.starts.size() << " true functions, "
              << bin.image.size() << " bytes)\n";
  }

  // 2. Run the detector. Default options = the full FETCH pipeline:
  //    FDE extraction, safe recursive disassembly, function-pointer
  //    detection, and Algorithm 1 error fixing.
  core::FunctionDetector detector(*elf);
  const core::DetectionResult result = detector.run();

  // 3. Inspect the results.
  std::cout << "\nDetected " << result.functions.size()
            << " function starts:\n";
  std::size_t shown = 0;
  for (const auto& [addr, provenance] : result.functions) {
    std::cout << "  0x" << std::hex << addr << std::dec << "  ["
              << core::provenance_name(provenance) << "]\n";
    if (++shown == 25 && result.functions.size() > 30) {
      std::cout << "  ... (" << result.functions.size() - shown
                << " more)\n";
      break;
    }
  }

  std::cout << "\nPipeline diagnostics:\n";
  std::cout << "  raw FDE starts:            " << result.fde_starts.size()
            << "\n";
  std::cout << "  found only by recursion:   "
            << std::count_if(result.functions.begin(), result.functions.end(),
                             [](const auto& f) {
                               return f.second ==
                                      core::Provenance::kCallTarget;
                             })
            << "\n";
  std::cout << "  found by pointer probing:  "
            << result.pointer_starts.size() << "\n";
  std::cout << "  non-contiguous parts merged by Algorithm 1: "
            << result.merged_parts.size() << "\n";
  std::cout << "  functions skipped (incomplete CFI): "
            << result.skipped_incomplete_cfi.size() << "\n";
  return 0;
}
