#include "baselines/tools.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <map>

#include "baselines/strategies.hpp"
#include "disasm/code_view.hpp"
#include "disasm/linear.hpp"
#include "disasm/recursive.hpp"
#include "ehframe/eh_frame.hpp"

namespace fetch::baselines {

namespace {

using disasm::CodeView;
using disasm::Result;

std::vector<std::uint64_t> base_seeds(const elf::ElfFile& elf,
                                      const CodeView& code, bool with_fde) {
  std::vector<std::uint64_t> seeds;
  if (with_fde) {
    if (const auto eh = eh::EhFrame::from_elf(elf)) {
      for (const std::uint64_t pc : eh->pc_begins()) {
        if (code.is_code(pc)) {
          seeds.push_back(pc);
        }
      }
    }
  }
  for (const elf::Symbol& sym : elf.symbols()) {
    if (sym.is_function() && code.is_code(sym.value)) {
      seeds.push_back(sym.value);
    }
  }
  if (code.is_code(elf.entry())) {
    seeds.push_back(elf.entry());
  }
  std::sort(seeds.begin(), seeds.end());
  seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());
  return seeds;
}

/// Adds prologue matches and the call targets found by re-exploring from
/// them (the paper: "prologue matching … followed by recursive
/// disassembly from each matched function start").
void add_fsig(const CodeView& code, Result& result, bool strict) {
  const std::set<std::uint64_t> matches =
      match_prologues(code, result, strict);
  if (matches.empty()) {
    return;
  }
  std::vector<std::uint64_t> seeds(result.starts.begin(),
                                   result.starts.end());
  seeds.insert(seeds.end(), matches.begin(), matches.end());
  Result wider = disasm::explore(code, seeds, {});
  result = std::move(wider);
}

}  // namespace

std::set<std::uint64_t> ghidra_like(const elf::ElfFile& elf,
                                    const GhidraOptions& o) {
  CodeView code(elf);
  std::vector<std::uint64_t> seeds = base_seeds(elf, code, o.use_fde);

  Result result;
  if (o.recursive) {
    // GHIDRA's non-returning knowledge comes from symbol names; on
    // stripped binaries it is effectively absent, so a plain exploration
    // (calls assumed returning) models it.
    result = disasm::explore(code, seeds, {});
  } else {
    for (const std::uint64_t s : seeds) {
      result.starts.insert(s);
    }
  }

  if (o.recursive && o.fsig) {
    add_fsig(code, result, /*strict=*/true);
  }

  std::set<std::uint64_t> starts = result.starts;
  if (o.recursive) {
    // Thunk heuristic is part of GHIDRA's normal function pass.
    for (const std::uint64_t t : thunk_targets(code, result)) {
      starts.insert(t);
    }
    if (o.tcall) {
      for (const std::uint64_t t : tail_call_heuristic(code, result)) {
        starts.insert(t);
      }
    }
    if (o.cfr) {
      for (const std::uint64_t r :
           control_flow_repair(code, result, elf.entry())) {
        starts.erase(r);
      }
    }
  }
  return starts;
}

std::set<std::uint64_t> angr_like(const elf::ElfFile& elf,
                                  const AngrOptions& o) {
  CodeView code(elf);
  std::vector<std::uint64_t> seeds = base_seeds(elf, code, o.use_fde);

  Result result;
  if (o.recursive) {
    result = disasm::explore(code, seeds, {});
  } else {
    for (const std::uint64_t s : seeds) {
      result.starts.insert(s);
    }
  }

  if (o.recursive && o.fsig) {
    add_fsig(code, result, /*strict=*/false);
  }

  std::set<std::uint64_t> starts = result.starts;
  if (o.recursive) {
    // Alignment handling is part of ANGR's normal function pass.
    for (const std::uint64_t t : alignment_split(code, result)) {
      starts.insert(t);
    }
    if (o.tcall) {
      for (const std::uint64_t t : tail_call_heuristic(code, result)) {
        starts.insert(t);
      }
    }
    if (o.scan) {
      for (const std::uint64_t t : linear_scan_gaps(code, result)) {
        starts.insert(t);
      }
    }
    if (o.fmerge) {
      for (const std::uint64_t r : function_merging(code, result)) {
        starts.erase(r);
      }
    }
  }
  return starts;
}

std::set<std::uint64_t> dyninst_like(const elf::ElfFile& elf) {
  CodeView code(elf);
  const std::vector<std::uint64_t> seeds =
      base_seeds(elf, code, /*with_fde=*/false);
  // Dyninst has a solid non-returning analysis: use the full pipeline.
  Result result = disasm::analyze(code, seeds, {});
  add_fsig(code, result, /*strict=*/true);
  return result.starts;
}

std::set<std::uint64_t> bap_like(const elf::ElfFile& elf) {
  CodeView code(elf);
  const std::vector<std::uint64_t> seeds =
      base_seeds(elf, code, /*with_fde=*/false);
  Result result = disasm::explore(code, seeds, {});
  // BAP's matcher is aggressive: loose patterns, applied twice (matches
  // seed further exploration, which opens new gaps to mismatch in).
  add_fsig(code, result, /*strict=*/false);
  add_fsig(code, result, /*strict=*/false);
  return result.starts;
}

std::set<std::uint64_t> radare2_like(const elf::ElfFile& elf) {
  CodeView code(elf);
  std::set<std::uint64_t> starts;
  for (const elf::Symbol& sym : elf.symbols()) {
    if (sym.is_function() && code.is_code(sym.value)) {
      starts.insert(sym.value);
    }
  }
  if (code.is_code(elf.entry())) {
    starts.insert(elf.entry());
  }
  // Linear sweep of every code run; collect direct call targets and strict
  // prologues that follow padding runs.
  for (const elf::ElfFile::SectionRun& run : elf.code_runs()) {
    for (const disasm::LinearPiece& piece :
         disasm::linear_sweep(code, run.lo, run.hi)) {
      bool after_padding = true;  // a piece start counts as a boundary
      for (const x86::Insn& insn : piece.insns) {
        if (insn.kind == x86::Kind::kCallDirect && insn.target &&
            code.is_code(*insn.target)) {
          starts.insert(*insn.target);
        }
        if (after_padding && !insn.is_padding() &&
            (insn.kind == x86::Kind::kPush ||
             insn.kind == x86::Kind::kEndbr)) {
          starts.insert(insn.addr);
        }
        after_padding = insn.is_padding();
      }
    }
  }
  return starts;
}

std::set<std::uint64_t> nucleus_like(const elf::ElfFile& elf) {
  CodeView code(elf);
  // NUCLEUS: linear sweep, then group instructions connected by
  // intra-procedural control flow; the target of each direct call and the
  // lowest address of each group become function starts.
  std::set<std::uint64_t> starts;
  std::map<std::uint64_t, const x86::Insn*> insns;
  std::vector<disasm::LinearPiece> pieces;
  for (const elf::ElfFile::SectionRun& run : elf.code_runs()) {
    for (auto& p : disasm::linear_sweep(code, run.lo, run.hi)) {
      pieces.push_back(std::move(p));
    }
  }
  for (const auto& piece : pieces) {
    for (const x86::Insn& insn : piece.insns) {
      insns.emplace(insn.addr, &insn);
    }
  }

  // Union-find over instruction addresses.
  std::map<std::uint64_t, std::uint64_t> parent;
  std::function<std::uint64_t(std::uint64_t)> find =
      [&](std::uint64_t x) -> std::uint64_t {
    auto it = parent.find(x);
    if (it == parent.end() || it->second == x) {
      parent[x] = x;
      return x;
    }
    return parent[x] = find(it->second);
  };
  auto unite = [&](std::uint64_t a, std::uint64_t b) {
    parent[find(a)] = find(b);
  };

  for (const auto& [addr, insn] : insns) {
    if (insn->kind == x86::Kind::kInt3) {
      continue;  // traps break groups
    }
    const std::uint64_t next = addr + insn->length;
    // Fall-through edges connect groups. NUCLEUS does not know which
    // callees return, so calls fall through too — after a call to a
    // non-returning function this chains across the (nop) padding into
    // the next function and merges the two groups: the tool's
    // characteristic coverage loss.
    if (!insn->is_terminator() && insns.count(next) != 0) {
      unite(addr, next);
    }
    if ((insn->kind == x86::Kind::kJmpDirect ||
         insn->kind == x86::Kind::kCondJmp) &&
        insn->target && insns.count(*insn->target) != 0) {
      unite(addr, *insn->target);
    }
    if (insn->kind == x86::Kind::kCallDirect && insn->target &&
        code.is_code(*insn->target)) {
      starts.insert(*insn->target);
    }
  }

  // Group head: the lowest non-padding address of each group.
  std::map<std::uint64_t, std::uint64_t> group_min;
  for (const auto& [addr, insn] : insns) {
    if (insn->is_padding()) {
      continue;
    }
    const std::uint64_t root = find(addr);
    auto it = group_min.find(root);
    if (it == group_min.end() || addr < it->second) {
      group_min[root] = addr;
    }
  }
  for (const auto& [root, lowest] : group_min) {
    starts.insert(lowest);
  }
  return starts;
}

std::set<std::uint64_t> ida_like(const elf::ElfFile& elf) {
  CodeView code(elf);
  const std::vector<std::uint64_t> seeds =
      base_seeds(elf, code, /*with_fde=*/false);
  Result result = disasm::analyze(code, seeds, {});
  add_fsig(code, result, /*strict=*/true);
  // IDA additionally validates matched starts lightly and chases data
  // cross-references conservatively: aligned data pointers only.
  std::set<std::uint64_t> starts = result.starts;
  for (const elf::Section& sec : elf.sections()) {
    if (!sec.alloc() || sec.executable() || sec.type == elf::kShtNobits ||
        !sec.writable()) {
      continue;
    }
    const auto bytes = elf.section_bytes(sec);
    for (std::size_t off = 0; off + 8 <= bytes.size(); off += 8) {
      std::uint64_t value;
      std::memcpy(&value, bytes.data() + off, 8);
      if (code.is_code(value) && code.rec_at(value).step) {
        starts.insert(value);
      }
    }
  }
  return starts;
}

std::set<std::uint64_t> ninja_like(const elf::ElfFile& elf) {
  CodeView code(elf);
  const std::vector<std::uint64_t> seeds =
      base_seeds(elf, code, /*with_fde=*/false);
  Result result = disasm::explore(code, seeds, {});
  add_fsig(code, result, /*strict=*/false);
  // Binary Ninja chases any data value that decodes — aggressive pointer
  // sweep with no validation (high coverage, high false positives).
  std::set<std::uint64_t> starts = result.starts;
  for (const elf::Section& sec : elf.sections()) {
    if (!sec.alloc() || sec.executable() || sec.type == elf::kShtNobits) {
      continue;
    }
    const auto bytes = elf.section_bytes(sec);
    for (std::size_t off = 0; off + 8 <= bytes.size(); ++off) {
      std::uint64_t value;
      std::memcpy(&value, bytes.data() + off, 8);
      if (code.is_code(value) && code.rec_at(value).step) {
        starts.insert(value);
      }
    }
  }
  return starts;
}

const std::vector<ToolSpec>& conventional_tools() {
  static const std::vector<ToolSpec> kTools = {
      {"DYNINST", &dyninst_like},   {"BAP", &bap_like},
      {"RADARE2", &radare2_like},   {"NUCLEUS", &nucleus_like},
      {"IDA-like", &ida_like},      {"NINJA-like", &ninja_like},
  };
  return kTools;
}

}  // namespace fetch::baselines
