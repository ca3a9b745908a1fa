#include "analysis/stack_height.hpp"

#include <deque>

namespace fetch::analysis {

namespace {

using x86::Insn;
using x86::Kind;
using x86::Reg;

/// Abstract value: bottom (unvisited) is represented by absence from the
/// state map; top (unknown) by std::nullopt; otherwise a concrete height.
struct AbsState {
  std::optional<std::int64_t> height;      // height before the instruction
  std::optional<std::int64_t> rbp_height;  // height captured in rbp, if any

  friend bool operator==(const AbsState&, const AbsState&) = default;
};

/// Joins \p incoming into \p existing; returns true when \p existing
/// changed. Join of unequal concrete values depends on the config.
bool join(AbsState& existing, const AbsState& incoming,
          const StackAnalysisConfig& config) {
  AbsState merged = existing;
  auto join_field = [&](std::optional<std::int64_t>& a,
                        const std::optional<std::int64_t>& b) {
    if (a.has_value() && b.has_value() && *a != *b) {
      if (config.conflicts_become_unknown) {
        a.reset();
      }
      // else: first-seen wins (keep a)
    } else if (!a.has_value()) {
      // unknown stays unknown (top absorbs)
    }
  };
  join_field(merged.height, incoming.height);
  join_field(merged.rbp_height, incoming.rbp_height);
  if (merged == existing) {
    return false;
  }
  existing = merged;
  return true;
}

}  // namespace

HeightMap analyze_stack_heights(
    const disasm::CodeView& code, const disasm::Function& fn,
    const StackAnalysisConfig& config,
    const std::map<std::uint64_t, std::uint64_t>& callee_pops) {
  std::map<std::uint64_t, AbsState> in_state;
  std::deque<std::uint64_t> work;

  in_state[fn.entry] = AbsState{0, std::nullopt};
  work.push_back(fn.entry);

  auto propagate = [&](std::uint64_t to, const AbsState& state) {
    if (!fn.contains(to)) {
      return;  // edge leaves the function (tail call) — not our concern
    }
    const auto it = in_state.find(to);
    if (it == in_state.end()) {
      in_state.emplace(to, state);
      work.push_back(to);
    } else if (join(it->second, state, config)) {
      work.push_back(to);
    }
  };

  while (!work.empty()) {
    const std::uint64_t addr = work.front();
    work.pop_front();
    const auto state_it = in_state.find(addr);
    if (state_it == in_state.end()) {
      continue;
    }
    AbsState state = state_it->second;
    const auto insn = code.decode(addr);
    if (!insn) {
      continue;
    }

    // --- Transfer function ---------------------------------------------------
    AbsState out = state;
    switch (insn->kind) {
      case Kind::kPush:
      case Kind::kPop:
      case Kind::kRet:
        if (out.height && insn->rsp_delta) {
          out.height = *out.height - *insn->rsp_delta;
        } else if (insn->rsp_clobbered) {
          out.height.reset();
        }
        break;
      case Kind::kLeave:
        if (config.track_frame_pointer && out.rbp_height) {
          // rsp <- rbp ; pop rbp  => height becomes rbp_height - 8.
          out.height = *out.rbp_height - 8;
          out.rbp_height.reset();
        } else {
          out.height.reset();
          out.rbp_height.reset();
        }
        break;
      case Kind::kMov:
        // mov rbp, rsp captures the height into rbp.
        if (config.track_frame_pointer && insn->rm_reg == Reg::kRbp &&
            insn->reg_op == Reg::kRsp && !insn->mem &&
            (insn->regs_written & reg_bit(Reg::kRbp)) != 0) {
          out.rbp_height = out.height;
        } else if ((insn->regs_written & reg_bit(Reg::kRbp)) != 0) {
          out.rbp_height.reset();
        }
        if (insn->rsp_clobbered) {
          out.height.reset();
        }
        break;
      case Kind::kCallDirect: {
        if (config.model_callee_pops && insn->target) {
          const auto it = callee_pops.find(*insn->target);
          if (it != callee_pops.end() && out.height) {
            out.height = *out.height - static_cast<std::int64_t>(it->second);
          }
        }
        break;
      }
      default:
        if (insn->rsp_delta) {
          if (out.height) {
            out.height = *out.height + (-*insn->rsp_delta);
          }
        } else if (insn->rsp_clobbered) {
          out.height.reset();
        }
        // pop rbp / mov to rbp invalidates the captured frame height.
        if ((insn->regs_written & reg_bit(Reg::kRbp)) != 0 &&
            insn->kind != Kind::kLeave) {
          out.rbp_height.reset();
        }
        break;
    }

    // Note: rsp_delta is "change to rsp"; height = -(rsp - rsp_entry), so
    // height delta = -rsp_delta. kPush/kPop/kRet were handled above with the
    // same formula.

    // --- Successors -----------------------------------------------------------
    switch (insn->kind) {
      case Kind::kRet:
      case Kind::kUd2:
      case Kind::kHlt:
        break;
      case Kind::kJmpDirect:
        if (insn->target) {
          propagate(*insn->target, out);
        }
        break;
      case Kind::kCondJmp:
        if (insn->target) {
          propagate(*insn->target, out);
        }
        propagate(addr + insn->length, out);
        break;
      case Kind::kJmpIndirect: {
        // Propagate through resolved jump tables at this site.
        for (const disasm::JumpTable& table : fn.tables) {
          if (table.jump_site != addr) {
            continue;
          }
          for (const std::uint64_t t : table.targets) {
            propagate(t, out);
          }
        }
        break;
      }
      default:
        propagate(addr + insn->length, out);
        break;
    }
  }

  HeightMap heights;
  for (const auto& [addr, state] : in_state) {
    heights[addr] = state.height;
  }
  return heights;
}

std::map<std::uint64_t, std::uint64_t> compute_callee_pops(
    const disasm::CodeView& code, const disasm::Result& result) {
  std::map<std::uint64_t, std::uint64_t> pops;
  for (const auto& [entry, fn] : result.functions) {
    for (const std::uint64_t addr : fn->insn_addrs) {
      const auto insn = code.decode(addr);
      if (insn && insn->kind == Kind::kRet && insn->rsp_delta &&
          *insn->rsp_delta > 8) {
        pops[entry] = static_cast<std::uint64_t>(*insn->rsp_delta - 8);
      }
    }
  }
  return pops;
}

}  // namespace fetch::analysis
