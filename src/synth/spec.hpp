#pragma once

/// \file spec.hpp
/// Specification model for the corpus synthesizer — the reproduction's
/// substitute for the paper's 1,395-binary corpus (see DESIGN.md,
/// "Substitutions"). A ProgramSpec fully determines one ELF binary: the
/// code generator turns it into real machine code, real CFI, and exact
/// ground truth.

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "x86/insn.hpp"

namespace fetch::synth {

/// Function roles drive both code shape and reference structure; the
/// reference structure is what the paper's experiments stress.
enum class Role : std::uint8_t {
  kMain,           ///< program entry; references most other functions
  kRegular,        ///< ordinary function, directly called
  kLeaf,           ///< small, no callees
  kNoReturn,       ///< exits via syscall; never returns
  kErrorLike,      ///< returns iff first argument is zero (`error`-style)
  kStdcallHelper,  ///< pops its stack arguments with `ret imm16`
  kTailTarget,     ///< reachable (also) via tail calls
  kIndirectOnly,   ///< address only stored in data; called indirectly
  kUnreachable,    ///< referenced by nothing (dead hand-written assembly)
};

struct FunctionSpec {
  std::string name;
  Role role = Role::kRegular;

  /// Emit an FDE for this function (false models hand-written assembly
  /// without CFI directives — the paper's §IV-B coverage gap).
  bool has_fde = true;

  /// Use a frame pointer: prologue `push rbp; mov rbp, rsp`, CFI switches
  /// the CFA to rbp — *incomplete* stack-height info per §V-B, so
  /// Algorithm 1 must skip this function (residual FP source, §V-C).
  bool frame_pointer = false;

  /// Emit a distant cold part connected by a jump, with its own FDE and
  /// its own `<name>.cold` symbol — the §V-A false-positive mechanism.
  bool cold_part = false;

  /// Number of straight-line body blocks (≥1).
  int blocks = 1;

  /// Callee-saved registers pushed in the prologue.
  std::vector<x86::Reg> saves;

  /// Local frame size (`sub rsp, N`; 0 for none). Must keep rsp 16-aligned
  /// at call sites in real code; the detectors don't care.
  std::uint32_t frame_size = 0;

  /// Indexes (into ProgramSpec::functions) of directly-called functions.
  std::vector<std::size_t> callees;

  /// Indexes of kIndirectOnly functions this function calls through their
  /// .data pointer slots (load [rip+slot]; call reg).
  std::vector<std::size_t> indirect_callees;

  /// Tail call emitted after the epilogue (at stack height 0).
  std::optional<std::size_t> tail_callee;

  /// Emit a bounded switch (jump table) with this many cases (0 = none).
  int jump_table_cases = 0;

  /// Call a kNoReturn function at the end of one block.
  std::optional<std::size_t> noreturn_callee;

  /// Call a kErrorLike function; `error_arg_zero` selects the call-site
  /// first-argument constant (zero → provably returns).
  std::optional<std::size_t> error_callee;
  bool error_arg_zero = false;

  /// Call a kStdcallHelper via the unbalanced if/else construct that
  /// defeats static stack-height analyses (Table IV mechanism).
  std::optional<std::size_t> stdcall_callee;

  /// Emit a loop whose backward jump spans the whole body (fuel for the
  /// unsafe tail-call heuristics' false positives).
  bool long_backward_jump = false;

  /// Hand-written trampoline that jumps into the *epilogue* of another
  /// function (shared-tail assembly idiom). A true function; the GHIDRA
  /// thunk heuristic reports its jump target — a mid-function address —
  /// as a new (false) start.
  std::optional<std::size_t> thunk_mid_target;

  /// Patchable function entry: the body is preceded by an 8-byte nop sled
  /// (like -fpatchable-function-entry). ANGR-style alignment handling
  /// marks the first non-padding instruction as a new (false) start.
  bool nop_entry = false;

  /// For kIndirectOnly: reference the function through a PIC-style
  /// *relative* offset table in .rodata (rel32 entries) instead of an
  /// absolute pointer slot in .data. Relative entries are invisible to
  /// 8-byte pointer scans — only call frames cover such functions.
  /// Implies has_fde.
  bool via_rel_table = false;
};

/// Raw non-code bytes placed between functions in .text (models literal
/// pools / hand-coded data in code; fuels Fsig/Scan false positives).
struct DataBlobSpec {
  std::size_t after_function = 0;  ///< placed after this function index
  std::uint32_t size = 24;
  std::uint64_t seed = 0;  ///< content RNG seed (deterministic)
};

struct ProgramSpec {
  std::string name;
  std::string compiler = "gcc";  ///< profile tag only
  std::string opt = "O2";        ///< profile tag only
  std::uint64_t seed = 1;

  std::vector<FunctionSpec> functions;
  std::vector<DataBlobSpec> blobs;

  /// C++-flavored program: functions that call the error-like routine get
  /// "zPLR" FDEs with a personality routine and an LSDA pointer.
  bool cxx = false;
  /// Strip .symtab from the output.
  bool stripped = false;
  /// Pad between functions with int3 (true) or multi-byte nops (false).
  bool int3_padding = true;
  /// Function start alignment (bytes).
  std::uint32_t alignment = 16;

  // Unconventional-toolchain profile axes (the "features" CorpusSpec
  // axis). Defaults reproduce the historical output byte for byte.

  /// Emit .eh_frame/.eh_frame_hdr at all. False models
  /// -fno-asynchronous-unwind-tables: no FDE covers anything, every
  /// function lands in GroundTruth::asm_functions and FDE-based
  /// detection must degrade gracefully instead of crashing.
  bool unwind_tables = true;
  /// Emit an ET_DYN static-PIE-style image at a low base address
  /// (e_type ET_DYN, text near 0x1000 like `-static-pie` output).
  bool static_pie = false;
  /// CET instrumentation: every function entry begins with an `endbr64`
  /// landing pad (-fcf-protection=full layout).
  bool endbr64 = false;
};

/// Exact ground truth recorded during generation.
struct GroundTruth {
  /// True function starts (cold parts are NOT starts).
  std::set<std::uint64_t> starts;
  /// Cold-part start -> parent function entry. Cold parts carry FDEs and
  /// symbols, so both sources report them as (false) starts.
  std::map<std::uint64_t, std::uint64_t> cold_parts;
  /// Starts covered by an FDE.
  std::set<std::uint64_t> fde_covered;
  /// Starts without FDEs (assembly functions).
  std::set<std::uint64_t> asm_functions;
  /// Functions reachable only via a tail call from exactly one function
  /// (Algorithm 1 legitimately in-lines these; §V-C's harmless FNs).
  std::set<std::uint64_t> tail_only_single;
  /// Functions referenced only by data pointers (found by §IV-E).
  std::set<std::uint64_t> indirect_only;
  /// Functions referenced by nothing.
  std::set<std::uint64_t> unreachable;
  /// Non-returning functions.
  std::set<std::uint64_t> noreturn;
  /// `error`-style conditionally-non-returning functions.
  std::set<std::uint64_t> error_like;
  /// Cold parts belonging to frame-pointer functions (incomplete CFI —
  /// the §V-C residual false positives).
  std::set<std::uint64_t> incomplete_cfi_cold_parts;
  /// Function entry -> end of its hot part (exclusive). Cold parts and
  /// padding are not included; a detector's extent must cover at least
  /// this range.
  std::map<std::uint64_t, std::uint64_t> hot_ranges;
  /// name -> address, for diagnostics and tests.
  std::map<std::string, std::uint64_t> named;

  friend bool operator==(const GroundTruth&, const GroundTruth&) = default;
};

/// One generated corpus entry: the ELF image plus its exact ground truth.
/// Equality is field-wise and byte-exact, which is what the serial-vs-
/// sharded generation checks compare.
struct SynthBinary {
  std::string name;
  std::string compiler;  ///< profile tag ("gcc" / "llvm")
  std::string opt;       ///< profile tag ("O0".."Ofast")
  std::vector<std::uint8_t> image;  ///< complete ELF64 file bytes
  GroundTruth truth;

  friend bool operator==(const SynthBinary&, const SynthBinary&) = default;
};

}  // namespace fetch::synth
