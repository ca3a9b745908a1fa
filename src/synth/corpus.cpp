#include "synth/corpus.hpp"

#include <algorithm>
#include <functional>

#include "synth/codegen.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace fetch::synth {

namespace {

using x86::Reg;

constexpr Reg kCalleeSaved[] = {Reg::kRbx, Reg::kR12, Reg::kR13, Reg::kR14,
                                Reg::kR15};

/// True when a `features` axis means "just the historical corpus": empty
/// or a lone "default". Seeds must not change in that case, so the
/// feature fold in axes_hash is guarded on this.
bool default_features(const std::vector<std::string>& features) {
  return features.empty() ||
         (features.size() == 1 && features.front() == "default");
}

/// Hash of the spec axes that determine entry *identity* (and therefore
/// per-entry RNG seeds). Deliberately excludes `limit`: a truncated corpus
/// (smoke) is a byte-identical prefix of the untruncated one. The
/// `features` axis is folded in only when non-default so that every
/// pre-existing corpus keeps its per-entry seeds byte-identical.
std::uint64_t axes_hash(const CorpusSpec& spec) {
  util::Fnv1a h;
  h.value(kGeneratorVersion);
  h.value(spec.kind);
  h.value(spec.compilers.size());
  for (const std::string& c : spec.compilers) {
    h.str(c);
  }
  h.value(spec.opts.size());
  for (const std::string& o : spec.opts) {
    h.str(o);
  }
  h.value(spec.variants);
  if (!default_features(spec.features)) {
    h.value(spec.features.size());
    for (const std::string& f : spec.features) {
      h.str(f);
    }
  }
  return h.digest();
}

/// Independent per-entry RNG stream: chain the axes hash with the entry's
/// own coordinates. No two entries of a corpus share a seed, and a given
/// entry's seed does not depend on how many other entries exist or on how
/// generation is sharded.
std::uint64_t entry_seed(std::uint64_t axes, const std::string& project,
                         const std::string& compiler, const std::string& opt,
                         int variant) {
  util::Fnv1a h(axes);
  h.str(project);
  h.str(compiler);
  h.str(opt);
  h.value(variant);
  return h.digest();
}

}  // namespace

Profile profile_for(const std::string& compiler, const std::string& opt) {
  Profile p;
  p.compiler = compiler;
  p.opt = opt;
  if (opt == "O0") {
    // No optimization: no hot/cold splitting, no sibling-call (tail)
    // optimization, frame pointers everywhere — CFI switches the CFA to
    // rbp in nearly every function, the paper's incomplete-height class.
    p.cold_prob = 0.0;
    p.frame_ptr_prob = 0.92;
    p.tail_prob = 0.0;
    p.tail_only_pair_rate = 0.0;
    p.jump_table_prob = 0.06;
    p.nop_entry_prob = 0.0;
    p.loop_prob = 0.30;
    p.min_funcs = 45;
    p.max_funcs = 95;
  } else if (opt == "O1") {
    // Light optimization: most frame pointers gone, a little splitting.
    p.cold_prob = 0.02;
    p.frame_ptr_prob = 0.35;
    p.tail_prob = 0.03;
    p.tail_only_pair_rate = 0.001;
    p.jump_table_prob = 0.07;
    p.nop_entry_prob = 0.01;
    p.min_funcs = 45;
    p.max_funcs = 92;
  } else if (opt == "O2") {
    p.cold_prob = 0.06;
    p.tail_prob = 0.08;
    p.min_funcs = 45;
    p.max_funcs = 95;
  } else if (opt == "O3") {
    // More aggressive inlining and splitting.
    p.cold_prob = 0.09;
    p.tail_prob = 0.10;
    p.jump_table_prob = 0.10;
    p.min_funcs = 40;
    p.max_funcs = 85;
  } else if (opt == "Os") {
    // Size optimization: little splitting, more tail calls, small bodies.
    p.cold_prob = 0.015;
    p.tail_prob = 0.13;
    p.frame_ptr_prob = 0.06;
    p.jump_table_prob = 0.05;
    p.min_funcs = 50;
    p.max_funcs = 100;
  } else if (opt == "Ofast") {
    p.cold_prob = 0.12;
    p.tail_prob = 0.10;
    p.jump_table_prob = 0.10;
    p.min_funcs = 38;
    p.max_funcs = 82;
  } else {
    throw ContractError("unknown optimization level: " + opt);
  }
  if (compiler == "gcc") {
    // GCC idiom: 32-byte function alignment at the aggressive levels
    // (-falign-functions=32 territory).
    if (opt == "O3" || opt == "Ofast") {
      p.alignment = 32;
    }
  } else if (compiler == "llvm") {
    // LLVM splits less aggressively and pads with int3 less often.
    p.cold_prob *= 0.8;
    p.frame_ptr_prob *= 0.9;
    p.int3_padding = true;
  } else {
    throw ContractError("unknown compiler: " + compiler);
  }
  return p;
}

void apply_feature(Profile* profile, const std::string& feature) {
  if (feature == "default") {
    return;
  }
  if (feature == "no-unwind") {
    profile->unwind_tables = false;
  } else if (feature == "static-pie") {
    profile->static_pie = true;
  } else if (feature == "cet") {
    profile->endbr64 = true;
  } else {
    throw ContractError("unknown corpus feature: " + feature);
  }
}

const std::vector<ProjectDef>& projects() {
  static const std::vector<ProjectDef> kProjects = {
      {"coreutils", "Utilities", "C", 0.7, 0.3},
      {"findutils", "Utilities", "C", 0.6, 0.0},
      {"binutils", "Utilities", "C/C++", 1.2, 0.4},
      {"openssl", "Client", "C", 1.3, 2.5},  // heavy hand-written assembly
      {"d8", "Client", "C++", 1.6, 0.5},
      {"busybox", "Client", "C", 1.4, 0.2},
      {"protobuf-c", "Client", "C++", 0.8, 0.0},
      {"zsh", "Client", "C", 1.0, 0.0},
      {"openssh", "Client", "C", 0.9, 0.1},
      {"mysql", "Client", "C++", 1.5, 0.3},
      {"git", "Client", "C", 1.2, 0.1},
      {"filezilla", "Client", "C++", 1.1, 0.0},
      {"lighttpd", "Server", "C", 0.8, 0.0},
      {"mysqld", "Server", "C++", 1.7, 0.3},
      {"nginx", "Server", "C", 1.1, 0.6},
      {"glibc", "Library", "C", 1.4, 2.0},  // assembly-rich
      {"libpcap", "Library", "C", 0.7, 0.0},
      {"libv8", "Library", "C++", 1.5, 0.5},
      {"libtiff", "Library", "C", 0.8, 0.0},
      {"libxml2", "Library", "C", 1.0, 0.0},
      {"libprotobuf-c", "Library", "C++", 0.7, 0.0},
      {"spec-cpu2006", "Benchmark", "C/C++", 1.3, 0.4},
  };
  return kProjects;
}

const std::vector<ProjectDef>& extended_projects() {
  // Full-scale-only templates. These exercise the per-project
  // function-count/size distribution axis: explicit min/max function
  // counts and body-block scale factors instead of the profile defaults.
  static const std::vector<ProjectDef> kExtended = {
      {"sqlite", "Library", "C", 1.2, 0.0, 60, 130, 1.3},
      {"redis", "Server", "C", 1.0, 0.1, 50, 110, 1.1},
      {"ffmpeg", "Client", "C", 1.6, 1.5, 70, 150, 1.2},
      {"curl", "Client", "C", 0.8, 0.0, 40, 90, 1.0},
      {"postgres", "Server", "C", 1.5, 0.2, 60, 140, 1.2},
      {"vim", "Client", "C", 1.1, 0.0, 50, 120, 1.0},
      {"tmux", "Client", "C", 0.7, 0.0, 35, 80, 0.9},
      {"cpython", "Client", "C", 1.3, 0.3, 55, 125, 1.1},
      {"perl", "Client", "C", 1.1, 0.2, 50, 115, 1.0},
      {"node", "Client", "C++", 1.6, 0.4, 70, 150, 1.3},
      {"clang", "Client", "C++", 1.7, 0.3, 75, 160, 1.4},
      {"libstdcxx", "Library", "C++", 0.9, 0.6, 40, 100, 0.8},
  };
  return kExtended;
}

ProgramSpec make_program(const ProjectDef& project, const Profile& profile,
                         std::uint64_t seed) {
  Rng rng(seed);
  ProgramSpec spec;
  spec.name = project.name + "-" + profile.compiler + "-" + profile.opt;
  spec.compiler = profile.compiler;
  spec.opt = profile.opt;
  spec.seed = seed;
  spec.int3_padding = profile.int3_padding;
  spec.alignment = profile.alignment;
  spec.unwind_tables = profile.unwind_tables;
  spec.static_pie = profile.static_pie;
  spec.endbr64 = profile.endbr64;
  spec.cxx = project.lang.find('+') != std::string::npos;

  // Function-count distribution: the project's own bounds when it defines
  // them, else the profile's, always scaled by the project size factor.
  const int min_funcs =
      project.min_funcs > 0 ? project.min_funcs : profile.min_funcs;
  const int max_funcs = std::max(
      min_funcs, project.max_funcs > 0 ? project.max_funcs : profile.max_funcs);
  const int base = static_cast<int>(
      rng.range(static_cast<std::uint64_t>(min_funcs),
                static_cast<std::uint64_t>(max_funcs)));
  const int n = std::max(12, static_cast<int>(base * project.size_factor));

  // Per-function body-size distribution, scaled per project.
  auto draw_blocks = [&rng, &project] {
    return std::max(1, static_cast<int>(static_cast<double>(rng.range(1, 5)) *
                                        project.block_factor));
  };

  spec.functions.resize(static_cast<std::size_t>(n));

  // Fixed library-like functions.
  spec.functions[0].name = "main";
  spec.functions[0].role = Role::kMain;
  spec.functions[0].blocks = 3;
  spec.functions[1].name = "fetch_exit";
  spec.functions[1].role = Role::kNoReturn;
  spec.functions[2].name = "fetch_error";
  spec.functions[2].role = Role::kErrorLike;
  spec.functions[3].name = "stdcall_helper";
  spec.functions[3].role = Role::kStdcallHelper;

  const double asm_prob =
      std::min(0.25, profile.asm_prob * project.asm_factor);

  // Role assignment for the rest.
  std::vector<std::size_t> regulars;
  std::vector<std::size_t> indirect_only;
  std::vector<std::size_t> needs_ref;  // regulars that must end up referenced
  for (std::size_t i = 4; i < spec.functions.size(); ++i) {
    FunctionSpec& fn = spec.functions[i];
    fn.name = "fn_" + std::to_string(i);
    fn.blocks = draw_blocks();
    const int save_count = static_cast<int>(rng.below(4));
    for (int s = 0; s < save_count; ++s) {
      const Reg r = kCalleeSaved[rng.below(std::size(kCalleeSaved))];
      if (std::find(fn.saves.begin(), fn.saves.end(), r) == fn.saves.end()) {
        fn.saves.push_back(r);
      }
    }
    if (rng.chance(0.7)) {
      fn.frame_size = static_cast<std::uint32_t>(8 * rng.range(1, 8));
    }

    // Unreachable functions are dead hand-written assembly: they only
    // exist in projects that actually contain assembly.
    if (rng.chance(profile.unreachable_rate * project.asm_factor)) {
      fn.role = Role::kUnreachable;
      fn.name = "dead_asm_" + std::to_string(i);
      fn.has_fde = false;
      if (rng.chance(0.5)) {
        fn.saves.clear();  // no recognizable prologue
        fn.frame_size = 0;
      }
      continue;
    }
    if (rng.chance(profile.indirect_rate)) {
      fn.role = Role::kIndirectOnly;
      fn.name = "callback_" + std::to_string(i);
      if (rng.chance(0.4)) {
        // PIC-style relative-offset-table callback: only call frames
        // cover it (pointer scans cannot see rel32 entries).
        fn.via_rel_table = true;
      } else if (project.asm_factor > 0 && rng.chance(0.2)) {
        // Assembly (no-FDE) slot-based callbacks — the §IV-E "found only
        // by pointer detection" class — in assembly-bearing projects.
        fn.has_fde = false;
      }
      // Half the callbacks are small leaves without a recognizable
      // prologue: invisible to pattern matchers, visible to FDEs — the
      // coverage edge the paper's Table III shows for FDE-based tools.
      if (rng.chance(0.5)) {
        fn.saves.clear();
        fn.frame_size = 0;
        fn.blocks = 1;
      }
      indirect_only.push_back(i);
      continue;
    }
    fn.role = Role::kRegular;
    if (rng.chance(asm_prob)) {
      fn.has_fde = false;
      fn.name = "asm_" + std::to_string(i);
    }
    if (rng.chance(profile.frame_ptr_prob)) {
      fn.frame_pointer = true;
    }
    if (rng.chance(profile.cold_prob)) {
      fn.cold_part = true;
      fn.blocks = std::max(fn.blocks, 2);
    }
    if (rng.chance(profile.jump_table_prob)) {
      fn.jump_table_cases = static_cast<int>(rng.range(4, 10));
    }
    if (rng.chance(profile.noreturn_branch_prob)) {
      fn.noreturn_callee = 1;
    }
    if (rng.chance(profile.error_call_prob)) {
      fn.error_callee = 2;
      fn.error_arg_zero = rng.chance(0.5);
    }
    if (rng.chance(profile.stdcall_prob)) {
      fn.stdcall_callee = 3;
    }
    if (rng.chance(profile.loop_prob)) {
      fn.long_backward_jump = true;
    }
    if (rng.chance(profile.nop_entry_prob)) {
      fn.nop_entry = true;
    }
    regulars.push_back(i);
    needs_ref.push_back(i);
  }

  // Shared-tail trampolines: pick targets among plain regular functions
  // (generic bodies, so their epilogue labels exist).
  std::set<std::size_t> thunk_targets;
  for (const std::size_t i : regulars) {
    FunctionSpec& fn = spec.functions[i];
    if (thunk_targets.count(i) != 0 || !rng.chance(profile.thunk_prob)) {
      continue;
    }
    // Find a plain target (not a thunk, not targeted into becoming one).
    std::size_t target = SIZE_MAX;
    for (int tries = 0; tries < 12; ++tries) {
      const std::size_t cand = regulars[rng.below(regulars.size())];
      if (cand != i && !spec.functions[cand].thunk_mid_target) {
        target = cand;
        break;
      }
    }
    if (target == SIZE_MAX) {
      continue;
    }
    thunk_targets.insert(target);
    fn.thunk_mid_target = target;
    fn.name = "thunk_" + std::to_string(i);
    // Thunks are bare jumps: clear body constructs.
    fn.cold_part = false;
    fn.jump_table_cases = 0;
    fn.noreturn_callee.reset();
    fn.error_callee.reset();
    fn.stdcall_callee.reset();
    fn.long_backward_jump = false;
    fn.nop_entry = false;
    fn.saves.clear();
    fn.frame_size = 0;
    fn.frame_pointer = false;
    fn.callees.clear();
  }

  // Tail calls. Ordinary ones target regular functions that are also
  // called directly; tail-only pairs get an adjacent, otherwise-unreferenced
  // target (the Fmerg / Algorithm-1 inlining cases).
  std::set<std::size_t> tail_only_targets;
  for (std::size_t k = 0; k + 1 < regulars.size(); ++k) {
    const std::size_t caller = regulars[k];
    const std::size_t next = regulars[k + 1];
    FunctionSpec& fn = spec.functions[caller];
    if (fn.role != Role::kRegular || fn.tail_callee ||
        fn.thunk_mid_target || spec.functions[next].thunk_mid_target ||
        tail_only_targets.count(caller) != 0 ||
        tail_only_targets.count(next) != 0) {
      continue;
    }
    if (rng.chance(profile.tail_only_pair_rate) && next == caller + 1) {
      // Adjacent pair; target must receive no other references.
      fn.tail_callee = next;
      fn.blocks = 1;
      fn.cold_part = false;
      fn.jump_table_cases = 0;
      fn.noreturn_callee.reset();
      fn.long_backward_jump = false;
      tail_only_targets.insert(next);
    } else if (rng.chance(profile.tail_prob)) {
      // Ordinary tail call to a *later* regular function — forward-only
      // references keep the call graph acyclic, so no function becomes
      // unconditionally (and unrealistically) non-returning.
      const std::size_t target = regulars[rng.below(regulars.size())];
      if (target > caller && tail_only_targets.count(target) == 0 &&
          !spec.functions[target].thunk_mid_target) {
        fn.tail_callee = target;
      }
    }
  }

  // Cross-calls between regular functions (makes the call graph dense and
  // gives recursive disassembly real work).
  for (const std::size_t i : regulars) {
    if (tail_only_targets.count(i) != 0 ||
        spec.functions[i].thunk_mid_target) {
      continue;  // must stay single-referenced / bodyless
    }
    FunctionSpec& fn = spec.functions[i];
    const int extra = static_cast<int>(rng.below(3));
    for (int c = 0; c < extra; ++c) {
      const std::size_t callee = regulars[rng.below(regulars.size())];
      // Forward-only (acyclic) call graph; see the tail-call comment.
      if (callee > i && tail_only_targets.count(callee) == 0) {
        fn.callees.push_back(callee);
      }
    }
  }

  // main references everything that still lacks a *call* reference.
  // Ordinary tail-call targets deliberately do NOT count as referenced:
  // real programs almost always also call such functions directly, and
  // targets reachable only via one tail call are modeled explicitly by the
  // tail-only pairs above.
  std::set<std::size_t> referenced;
  for (const FunctionSpec& fn : spec.functions) {
    for (const std::size_t c : fn.callees) {
      referenced.insert(c);
    }
  }
  FunctionSpec& main_fn = spec.functions[0];
  for (const std::size_t i : needs_ref) {
    if (referenced.count(i) == 0 && tail_only_targets.count(i) == 0) {
      main_fn.callees.push_back(i);
    }
  }
  main_fn.indirect_callees.assign(indirect_only.begin(), indirect_only.end());
  if (main_fn.callees.empty() && !regulars.empty()) {
    main_fn.callees.push_back(regulars[0]);
  }

  // Data blobs between functions.
  for (std::size_t i = 4; i + 1 < spec.functions.size(); ++i) {
    if (rng.chance(profile.blob_prob)) {
      spec.blobs.push_back(
          {i, static_cast<std::uint32_t>(rng.range(24, 96)), rng.next()});
    }
  }
  return spec;
}

const char* scale_name(Scale scale) {
  switch (scale) {
    case Scale::kSmoke:
      return "smoke";
    case Scale::kDefault:
      return "default";
    case Scale::kFull:
      return "full";
  }
  return "?";
}

std::optional<Scale> parse_scale(std::string_view text) {
  if (text == "smoke") {
    return Scale::kSmoke;
  }
  if (text == "default") {
    return Scale::kDefault;
  }
  if (text == "full") {
    return Scale::kFull;
  }
  return std::nullopt;
}

CorpusSpec CorpusSpec::self_built(Scale scale) {
  CorpusSpec spec;
  spec.kind = Kind::kSelfBuilt;
  spec.scale = scale;
  spec.compilers = {"gcc", "llvm"};
  switch (scale) {
    case Scale::kSmoke:
      spec.opts = {"O2", "O3", "Os", "Ofast"};
      spec.limit = 8;  // first project × both compilers × all opt levels
      break;
    case Scale::kDefault:
      spec.opts = {"O2", "O3", "Os", "Ofast"};
      break;
    case Scale::kFull:
      // Paper-scale population: widen the opt-level axis to the whole
      // -O{0,1,2,3,s,fast} ladder, add the extended project templates,
      // and generate four seed variants per cell:
      // 34 × 2 × 6 × 4 = 1,632 ≥ 1,352.
      spec.opts = {"O0", "O1", "O2", "O3", "Os", "Ofast"};
      spec.variants = 4;
      break;
  }
  return spec;
}

CorpusSpec CorpusSpec::wild(Scale scale) {
  CorpusSpec spec;
  spec.kind = Kind::kWild;
  spec.scale = scale;
  // The wild suite is a fixed inventory (Table I lists specific programs);
  // scale only controls smoke truncation. The axes below record the
  // profile the suite is generated with.
  spec.compilers = {"gcc"};
  spec.opts = {"O2"};
  if (scale == Scale::kSmoke) {
    spec.limit = 8;
  }
  return spec;
}

std::vector<ProgramSpec> CorpusSpec::expand() const {
  std::vector<ProgramSpec> out;
  const std::uint64_t axes = axes_hash(*this);
  const auto at_limit = [this, &out] {
    return limit != 0 && out.size() >= limit;
  };
  if (kind == Kind::kSelfBuilt) {
    std::vector<ProjectDef> defs = projects();
    if (scale == Scale::kFull) {
      const std::vector<ProjectDef>& extra = extended_projects();
      defs.insert(defs.end(), extra.begin(), extra.end());
    }
    // The feature axis multiplies each (project, compiler, opt) cell by
    // one layout per entry; an absent axis is exactly {"default"}.
    const std::vector<std::string> feature_list =
        features.empty() ? std::vector<std::string>{"default"} : features;
    for (const ProjectDef& project : defs) {
      for (const std::string& compiler : compilers) {
        for (const std::string& opt : opts) {
          const Profile base_profile = profile_for(compiler, opt);
          for (const std::string& feature : feature_list) {
            Profile profile = base_profile;
            apply_feature(&profile, feature);
            for (int v = 0; v < variants; ++v) {
              std::uint64_t seed =
                  entry_seed(axes, project.name, compiler, opt, v);
              if (feature != "default") {
                // Chain the feature into the seed so a feature variant is
                // a genuinely distinct program, not a relayout of the
                // default one (default seeds stay byte-identical).
                util::Fnv1a chain(seed);
                chain.str(feature);
                seed = chain.digest();
              }
              ProgramSpec spec = make_program(project, profile, seed);
              if (feature != "default") {
                spec.name += "-" + feature;
              }
              if (v > 0) {
                spec.name += "-v" + std::to_string(v);
              }
              // The evaluation corpus is stripped: detectors see no
              // symbols; ground truth comes from the generator (the
              // paper's compiler-intercept equivalent).
              spec.stripped = true;
              out.push_back(std::move(spec));
              if (at_limit()) {
                return out;
              }
            }
          }
        }
      }
    }
  } else {
    for (const WildDef& def : wild_defs()) {
      Profile profile = profile_for("gcc", "O2");
      profile.min_funcs = 60;
      profile.max_funcs = 140;
      ProjectDef project{def.name, "Wild", def.lang, 1.0,
                         def.lang == "C" ? 0.4 : 0.1};
      ProgramSpec spec = make_program(
          project, profile, entry_seed(axes, def.name, "wild", def.lang, 0));
      spec.name = def.name;
      spec.stripped = !def.has_symbols;
      out.push_back(std::move(spec));
      if (at_limit()) {
        return out;
      }
    }
  }
  return out;
}

const std::vector<WildDef>& wild_defs() {
  static const std::vector<WildDef> kWild = {
      {"atom", "C++", true, false},        {"openshot", "C", true, false},
      {"mupdf", "C", true, false},         {"evince", "C", true, false},
      {"qbittorrent", "C++", true, false}, {"eclipse", "C", true, false},
      {"virtualbox", "C++", true, true},   {"gv", "C", true, true},
      {"okular", "C++", true, true},       {"gcc", "C", true, true},
      {"wkhtmltopdf", "C", true, true},    {"firefox", "C++", true, true},
      {"qemu-system", "C", true, true},    {"thunderbird", "C++", true, true},
      {"smuxi-server", "C", true, true},   {"teamviewer", "C++", false, false},
      {"skype", "C++", false, false},      {"sublime", "C++", false, false},
      {"binaryninja", "C++", false, true}, {"foxitreader", "C++", false, true},
  };
  return kWild;
}

}  // namespace fetch::synth
