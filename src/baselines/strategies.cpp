#include "baselines/strategies.hpp"

#include <algorithm>

#include "disasm/linear.hpp"

namespace fetch::baselines {

namespace {

using x86::Insn;
using x86::Kind;
using x86::Reg;

/// Does a prologue start at \p addr? Strict requires two consistent
/// instructions; loose accepts one push/endbr.
bool prologue_at(const disasm::CodeView& code, std::uint64_t addr,
                 bool strict) {
  const auto first = code.decode(addr);
  if (!first) {
    return false;
  }
  const bool first_push = first->kind == Kind::kPush && first->rsp_delta;
  const bool first_endbr = first->kind == Kind::kEndbr;
  const bool first_subrsp =
      first->rsp_delta && *first->rsp_delta < 0 && first->kind == Kind::kOther;
  if (!strict) {
    return first_push || first_endbr;
  }
  if (!first_push && !first_endbr && !first_subrsp) {
    return false;
  }
  const auto second = code.decode(addr + first->length);
  if (!second) {
    return false;
  }
  const bool second_push = second->kind == Kind::kPush;
  const bool second_subrsp = second->rsp_delta && *second->rsp_delta < 0;
  const bool second_mov_rbp_rsp =
      second->kind == Kind::kMov && second->rm_reg == Reg::kRbp &&
      second->reg_op == Reg::kRsp;
  const bool second_filler =
      second->kind == Kind::kMov || second->kind == Kind::kLea;
  if (first_endbr) {
    return second_push || second_subrsp;
  }
  return second_push || second_subrsp || second_mov_rbp_rsp ||
         (first_push && second_filler);
}

}  // namespace

std::set<std::uint64_t> match_prologues(const disasm::CodeView& code,
                                        const disasm::Result& result,
                                        bool strict) {
  std::set<std::uint64_t> out;
  for (const elf::ElfFile::SectionRun& run : code.elf().code_runs()) {
    for (const auto& gap : result.covered.gaps(run.lo, run.hi)) {
      for (std::uint64_t addr = gap.lo; addr < gap.hi; ++addr) {
        // Skip padding bytes: matchers anchor at the first plausible
        // instruction after alignment.
        const auto insn = code.decode(addr);
        if (insn && insn->is_padding()) {
          addr += insn->length - 1;
          continue;
        }
        // Strict matchers additionally require the usual 16-byte function
        // alignment; loose ones fire anywhere.
        if (strict && addr % 16 != 0) {
          continue;
        }
        if (prologue_at(code, addr, strict)) {
          out.insert(addr);
          if (strict) {
            // A strict matcher claims the region and moves on.
            addr = gap.hi;
          }
        }
      }
    }
  }
  return out;
}

std::set<std::uint64_t> control_flow_repair(const disasm::CodeView& code,
                                            const disasm::Result& result,
                                            std::uint64_t entry_point) {
  std::set<std::uint64_t> removals;
  for (const std::uint64_t s : result.starts) {
    if (s == entry_point) {
      continue;
    }
    if (!result.xrefs.at(s).empty()) {
      continue;  // independently referenced: kept
    }
    // Look backwards across padding for the preceding instruction; if it
    // is a call (assumed returning — weak noreturn knowledge), the start
    // looks like fall-through continuation and is repaired away.
    std::uint64_t p = s;
    while (p > 0 && code.is_code(p - 1)) {
      bool stepped = false;
      // Padding instructions are 1..9 bytes; try to find one ending at p.
      for (std::uint64_t len = 1; len <= 9 && len <= p; ++len) {
        const auto insn = code.decode(p - len);
        if (insn && insn->length == len && insn->is_padding()) {
          p -= len;
          stepped = true;
          break;
        }
      }
      if (!stepped) {
        break;
      }
    }
    bool preceded_by_call = false;
    for (std::uint64_t len = 2; len <= 7 && len <= p; ++len) {
      const auto insn = code.decode(p - len);
      if (insn && insn->length == len &&
          (insn->kind == Kind::kCallDirect ||
           insn->kind == Kind::kCallIndirect)) {
        preceded_by_call = true;
        break;
      }
    }
    if (preceded_by_call) {
      removals.insert(s);
    }
  }
  return removals;
}

std::set<std::uint64_t> thunk_targets(const disasm::CodeView& code,
                                      const disasm::Result& result) {
  std::set<std::uint64_t> out;
  for (const std::uint64_t s : result.starts) {
    const auto insn = code.decode(s);
    if (insn && insn->kind == Kind::kJmpDirect && insn->target &&
        code.is_code(*insn->target) && result.starts.count(*insn->target) == 0) {
      out.insert(*insn->target);
    }
  }
  return out;
}

std::set<std::uint64_t> function_merging(const disasm::CodeView& code,
                                         const disasm::Result& result) {
  (void)code;
  std::set<std::uint64_t> removals;
  for (const auto& [entry, fn] : result.functions) {
    // Collect escaping unconditional jumps.
    std::vector<std::uint64_t> escapes;
    for (const disasm::FuncJump& j : fn->jumps) {
      if (!j.conditional && !fn->contains(j.target)) {
        escapes.push_back(j.target);
      }
    }
    if (escapes.size() != 1) {
      continue;
    }
    const std::uint64_t g = escapes.front();
    // g must be the next detected function (adjacency).
    auto it = result.functions.upper_bound(entry);
    if (it == result.functions.end() || it->first != g) {
      continue;
    }
    // The jump must be the only reference to g.
    const auto refs = result.xrefs.at(g);
    if (refs.empty()) {
      continue;
    }
    const bool only_this = std::all_of(
        refs.begin(), refs.end(), [&fn](const disasm::Ref& r) {
          return r.kind == disasm::RefKind::kJump && fn->contains(r.site);
        });
    if (only_this) {
      removals.insert(g);
    }
  }
  return removals;
}

std::set<std::uint64_t> alignment_split(const disasm::CodeView& code,
                                        const disasm::Result& result) {
  std::set<std::uint64_t> out;
  for (const std::uint64_t s : result.starts) {
    auto insn = code.decode(s);
    if (!insn || !insn->is_padding()) {
      continue;
    }
    std::uint64_t addr = s;
    while (insn && insn->is_padding()) {
      addr += insn->length;
      insn = code.decode(addr);
    }
    if (insn && result.starts.count(addr) == 0) {
      out.insert(addr);
    }
  }
  return out;
}

std::set<std::uint64_t> linear_scan_gaps(const disasm::CodeView& code,
                                         const disasm::Result& result) {
  std::set<std::uint64_t> out;
  for (const elf::ElfFile::SectionRun& run : code.elf().code_runs()) {
    for (const auto& gap : result.covered.gaps(run.lo, run.hi)) {
      for (const disasm::LinearPiece& piece :
           disasm::linear_sweep(code, gap.lo, gap.hi)) {
        // Skip leading padding inside the piece, as ANGR does.
        std::uint64_t addr = piece.start;
        for (const x86::Insn& insn : piece.insns) {
          if (!insn.is_padding()) {
            break;
          }
          addr += insn.length;
        }
        if (addr < gap.hi && result.starts.count(addr) == 0) {
          out.insert(addr);
        }
      }
    }
  }
  return out;
}

std::set<std::uint64_t> tail_call_heuristic(const disasm::CodeView& code,
                                            const disasm::Result& result,
                                            std::uint64_t distance) {
  std::set<std::uint64_t> out;
  for (const auto& [entry, fn] : result.functions) {
    for (const disasm::FuncJump& j : fn->jumps) {
      if (j.conditional) {
        continue;
      }
      const bool backward = j.target < j.site;
      const bool far = j.target > j.site + distance;
      if ((backward || far) && code.is_code(j.target) &&
          result.starts.count(j.target) == 0) {
        out.insert(j.target);
      }
    }
  }
  return out;
}

}  // namespace fetch::baselines
