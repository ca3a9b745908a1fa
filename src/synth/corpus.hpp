#pragma once

/// \file corpus.hpp
/// Corpus definitions mirroring the paper's datasets, and the CorpusSpec
/// model that scales them to the paper-size population:
///
///  * CorpusSpec::self_built() — the "self-built" set (Table II): at
///    default scale one binary per project × compiler {gcc, llvm} ×
///    optimization {O2, O3, Os, Ofast}, with per-project size/assembly
///    characteristics and per-opt-level rates for the constructs the
///    experiments measure (cold splitting, tail calls, frame pointers, ...).
///  * CorpusSpec::wild() — the "wild" set (Table I): assorted C/C++
///    programs, some stripped of symbols.
///  * CorpusSpec — a declarative description of a whole corpus (kind ×
///    scale × compiler set × opt set × seed variants × entry limit).
///    `Scale::kFull` widens every axis (extra project templates, -O0/-O1
///    profiles, multiple seed variants per cell) until the expansion
///    reaches the paper's 1,352-binary population.
///
/// Everything is deterministic: each expanded ProgramSpec carries a seed
/// derived (FNV-1a) from the spec's identity axes and the entry's own
/// (project, compiler, opt, variant) coordinates, so every entry owns an
/// independent RNG stream and the corpus is byte-identical no matter how
/// generation is sharded across threads.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "synth/spec.hpp"

namespace fetch::synth {

/// Generation-rate profile (one per compiler × opt level, scaled by
/// project factors).
struct Profile {
  std::string compiler = "gcc";
  std::string opt = "O2";
  double cold_prob = 0.06;        ///< P(function has a cold part)
  double frame_ptr_prob = 0.10;   ///< P(frame pointer → incomplete CFI)
  double tail_prob = 0.08;        ///< P(function ends in a tail call)
  double tail_only_pair_rate = 0.002;  ///< fraction of tail-only pairs
  double indirect_rate = 0.012;   ///< fraction of indirect-only functions
  double unreachable_rate = 0.008; ///< × project asm_factor (0 for most)
  double asm_prob = 0.005;        ///< P(function lacks an FDE) × project factor
  double jump_table_prob = 0.08;
  double noreturn_branch_prob = 0.12;
  double error_call_prob = 0.06;
  double stdcall_prob = 0.04;
  double loop_prob = 0.25;
  double blob_prob = 0.06;        ///< P(data blob after a function)
  double thunk_prob = 0.012;      ///< P(shared-tail trampoline function)
  double nop_entry_prob = 0.03;   ///< P(patchable nop-sled entry)
  int min_funcs = 40;
  int max_funcs = 90;
  bool int3_padding = false;      ///< compiler idiom: int3 vs nop padding
  std::uint32_t alignment = 16;   ///< compiler idiom: function start alignment

  // Feature-axis toggles (see CorpusSpec::features / apply_feature).
  bool unwind_tables = true;      ///< emit .eh_frame/.eh_frame_hdr
  bool static_pie = false;        ///< ET_DYN image at a low base
  bool endbr64 = false;           ///< CET endbr64 landing pads at entries
};

/// Profile for a compiler/opt combination. Supports the paper's
/// O2/O3/Os/Ofast plus the full-scale O0/O1 ladder extension, × GCC/LLVM.
[[nodiscard]] Profile profile_for(const std::string& compiler,
                                  const std::string& opt);

/// Applies a `features` axis entry to a profile:
///   "default"     no change (the baseline toolchain layout)
///   "no-unwind"   -fno-asynchronous-unwind-tables-style: no .eh_frame
///   "static-pie"  ET_DYN low-base image (-static-pie-style)
///   "cet"         endbr64 landing pad at every function entry
/// Throws ContractError on anything else.
void apply_feature(Profile* profile, const std::string& feature);

/// One project row of Table II. The trailing fields give each project its
/// own function-count/size distribution; zero-valued fields fall back to
/// the profile's defaults.
struct ProjectDef {
  std::string name;
  std::string type;     ///< Utilities / Client / Server / Library / Benchmark
  std::string lang;     ///< C or C++
  double size_factor;   ///< multiplies function counts
  double asm_factor;    ///< multiplies asm_prob (0 = no hand-written asm)
  int min_funcs = 0;    ///< overrides Profile::min_funcs when nonzero
  int max_funcs = 0;    ///< overrides Profile::max_funcs when nonzero
  double block_factor = 1.0;  ///< scales per-function body-block counts
};

/// The paper's 22 Table II projects (the default-scale corpus rows).
[[nodiscard]] const std::vector<ProjectDef>& projects();

/// Additional project templates used only by Scale::kFull, with their own
/// function-count/size distributions.
[[nodiscard]] const std::vector<ProjectDef>& extended_projects();

/// Deterministically builds the ProgramSpec for one corpus binary.
[[nodiscard]] ProgramSpec make_program(const ProjectDef& project,
                                       const Profile& profile,
                                       std::uint64_t seed);

/// Corpus population size. Axis widths per scale:
///
///   kSmoke    first 8 entries of the default corpus (ctest smoke runs)
///   kDefault  22 projects × {gcc,llvm} × {O2,O3,Os,Ofast}       =   176
///   kFull     34 projects × {gcc,llvm} × {O0..O3,Os,Ofast} × 4  = 1,632
///
/// kFull is the paper-scale population (≥ 1,352 binaries).
enum class Scale : std::uint8_t { kSmoke, kDefault, kFull };

[[nodiscard]] const char* scale_name(Scale scale);

/// Parses a `--scale` knob value ("smoke" / "default" / "full").
[[nodiscard]] std::optional<Scale> parse_scale(std::string_view text);

/// Declarative description of a whole corpus. A CorpusSpec fully
/// determines the generated population: expand() yields one ProgramSpec
/// per entry, each seeded from a hash of the identity axes (with
/// kGeneratorVersion) and the entry's own coordinates.
struct CorpusSpec {
  enum class Kind : std::uint8_t { kSelfBuilt, kWild };

  Kind kind = Kind::kSelfBuilt;
  Scale scale = Scale::kDefault;
  std::vector<std::string> compilers;
  std::vector<std::string> opts;
  int variants = 1;       ///< seed-distinct binaries per (project, compiler, opt)
  std::size_t limit = 0;  ///< truncates the expansion (0 = everything)

  /// Toolchain-feature axis (see apply_feature): each entry multiplies
  /// the self-built expansion by one more layout per cell. Empty (or a
  /// lone "default") is the historical corpus — byte-identical output,
  /// same per-entry seeds. Non-default entries suffix the
  /// program name ("-no-unwind", "-static-pie", "-cet") and chain the
  /// feature into the entry seed. The wild suite (a fixed inventory of
  /// specific real-world programs) ignores this axis.
  std::vector<std::string> features;

  /// The Table II population at the given scale (entries are stripped).
  [[nodiscard]] static CorpusSpec self_built(Scale scale);
  /// The Table I wild suite (fixed shape; kSmoke truncates to 8 entries).
  [[nodiscard]] static CorpusSpec wild(Scale scale);

  /// Expands the axes into one ProgramSpec per corpus entry. Pure: same
  /// spec, same result; each entry's seed is independent of every other's.
  [[nodiscard]] std::vector<ProgramSpec> expand() const;
};

/// One wild binary description (Table I).
struct WildDef {
  std::string name;
  std::string lang;   ///< C or C++
  bool open_source;
  bool has_symbols;   ///< stripped when false
};

[[nodiscard]] const std::vector<WildDef>& wild_defs();

}  // namespace fetch::synth
