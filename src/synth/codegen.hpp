#pragma once

/// \file codegen.hpp
/// Turns a ProgramSpec into a real ELF64 binary image plus exact ground
/// truth. Emits genuine x86-64 machine code through fetch::x86::Assembler,
/// genuine CFI through fetch::eh::EhFrameBuilder (tracking the true stack
/// height instruction by instruction), jump tables in .rodata, function
/// pointers in .data, and (optionally) a .symtab — so every detector
/// consumes the image exactly as it would consume compiler output.

#include "synth/spec.hpp"

namespace fetch::synth {

/// Seed input of every corpus entry: CorpusSpec::expand folds it into the
/// axes hash that each entry's RNG seed chains from. Changing it reseeds
/// every entry, so every corpus byte, every bench number and every digest
/// pinned over the synthetic corpus changes with it. A codegen change
/// needs no bump: nothing stores generated bytes across runs.
inline constexpr std::uint32_t kGeneratorVersion = 2;

/// Section layout used by all generated binaries.
struct Layout {
  std::uint64_t text = 0x401000;
  std::uint64_t eh_frame_hdr = 0x4ff000;
  std::uint64_t eh_frame = 0x500000;
  std::uint64_t rodata = 0x600000;
  std::uint64_t data = 0x700000;
};

/// Generates the binary. Deterministic: the same spec yields the same
/// bytes. Throws ContractError on inconsistent specs (bad indexes).
[[nodiscard]] SynthBinary generate(const ProgramSpec& spec,
                                   const Layout& layout = {});

}  // namespace fetch::synth
