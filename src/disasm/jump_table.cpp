#include "disasm/jump_table.hpp"

#include <algorithm>
#include <cstring>

namespace fetch::disasm {

namespace {

using x86::Insn;
using x86::Kind;
using x86::Reg;

/// Searches the window backwards (before index \p from) for `cmp I, imm`
/// followed somewhere later by a `ja`/`jae` — the bound check guarding the
/// table. Returns the number of table entries.
std::optional<std::uint64_t> find_bound(const CodeView& code,
                                        const InsnWindow& window,
                                        std::size_t from, Reg index_reg) {
  // The bound check may sit a few instructions above the dispatch sequence.
  std::size_t checked = 0;
  for (std::size_t i = from; i-- > 0 && checked < 12; ++checked) {
    const Step& step = code.step(window[i]);
    // cmp index_reg, imm  (group1 /7 keeps imm in insn.imm, register in
    // rm_reg, and marks only reads).
    if (step.kind == Kind::kOther && step.regs_written == 0 &&
        (step.regs_read & reg_bit(index_reg)) != 0) {
      Insn insn;
      code.redecode(window[i], insn);
      if (insn.imm && insn.rm_reg == index_reg) {
        return *insn.imm + 1;  // cmp N; ja default => N+1 entries
      }
    }
    // Give up if the index register is redefined before we find the bound.
    if ((step.regs_written & reg_bit(index_reg)) != 0) {
      return std::nullopt;
    }
  }
  return std::nullopt;
}

std::optional<JumpTable> read_table_pic(const CodeView& code,
                                        std::uint64_t jump_site,
                                        std::uint64_t table_addr,
                                        std::uint64_t entries) {
  JumpTable out;
  out.jump_site = jump_site;
  out.table_addr = table_addr;
  out.entry_count = entries;
  const auto bytes = code.bytes_at(table_addr, entries * 4);
  if (!bytes) {
    return std::nullopt;
  }
  for (std::uint64_t i = 0; i < entries; ++i) {
    std::int32_t rel;
    std::memcpy(&rel, bytes->data() + i * 4, 4);
    const std::uint64_t target =
        table_addr + static_cast<std::uint64_t>(static_cast<std::int64_t>(rel));
    if (!code.is_code(target)) {
      return std::nullopt;  // conservative: one bad entry poisons the table
    }
    out.targets.push_back(target);
  }
  std::sort(out.targets.begin(), out.targets.end());
  out.targets.erase(std::unique(out.targets.begin(), out.targets.end()),
                    out.targets.end());
  return out;
}

std::optional<JumpTable> read_table_abs(const CodeView& code,
                                        std::uint64_t jump_site,
                                        std::uint64_t table_addr,
                                        std::uint64_t entries) {
  JumpTable out;
  out.jump_site = jump_site;
  out.table_addr = table_addr;
  out.entry_count = entries;
  const auto bytes = code.bytes_at(table_addr, entries * 8);
  if (!bytes) {
    return std::nullopt;
  }
  for (std::uint64_t i = 0; i < entries; ++i) {
    std::uint64_t target;
    std::memcpy(&target, bytes->data() + i * 8, 8);
    if (!code.is_code(target)) {
      return std::nullopt;
    }
    out.targets.push_back(target);
  }
  std::sort(out.targets.begin(), out.targets.end());
  out.targets.erase(std::unique(out.targets.begin(), out.targets.end()),
                    out.targets.end());
  return out;
}

}  // namespace

std::optional<JumpTable> resolve_jump_table(const CodeView& code,
                                            const InsnWindow& window) {
  if (window.empty() ||
      code.step(window.back()).kind != Kind::kJmpIndirect) {
    return std::nullopt;
  }
  // Steps rule out most window entries; only the candidates of each scan
  // below are decoded in full.
  Insn jmp;
  code.redecode(window.back(), jmp);
  const std::size_t last = window.size() - 1;

  // --- Form B: jmp qword [table + I*8] --------------------------------------
  if (jmp.mem && !jmp.mem->base && jmp.mem->index && jmp.mem->scale == 8 &&
      !jmp.mem->rip_relative) {
    const Reg index = *jmp.mem->index;
    const auto entries = find_bound(code, window, last, index);
    if (!entries || *entries == 0 || *entries > 4096) {
      return std::nullopt;
    }
    return read_table_abs(code, jmp.addr,
                          static_cast<std::uint64_t>(jmp.mem->disp), *entries);
  }

  // --- Form A: lea/movsxd/add/jmp reg ---------------------------------------
  if (!jmp.rm_reg) {
    return std::nullopt;
  }
  const Reg jreg = *jmp.rm_reg;

  // Find `add X, T` immediately feeding the jump register.
  std::size_t i = last;
  std::optional<Reg> table_reg;
  std::optional<Reg> index_reg;
  std::uint64_t table_addr = 0;
  std::size_t movsxd_pos = 0;
  Insn insn;

  // Scan back for: add jreg, T
  std::optional<std::size_t> add_pos;
  for (std::size_t k = i; k-- > 0;) {
    const Step& step = code.step(window[k]);
    if ((step.regs_written & reg_bit(jreg)) == 0) {
      continue;
    }
    if (step.kind != Kind::kOther) {
      return std::nullopt;  // jump register defined by something else
    }
    code.redecode(window[k], insn);
    if (insn.rm_reg != jreg || !insn.reg_op || insn.mem || insn.imm) {
      return std::nullopt;
    }
    // matches `add jreg, reg_op` (01 /r form: rm=dst, reg=src)
    table_reg = insn.reg_op;
    add_pos = k;
    break;
  }
  if (!add_pos || !table_reg) {
    return std::nullopt;
  }

  // Scan back for: movsxd jreg, dword [table_reg + I*4]
  bool found_movsxd = false;
  for (std::size_t k = *add_pos; k-- > 0;) {
    const Step& step = code.step(window[k]);
    if (step.kind == Kind::kMov) {
      code.redecode(window[k], insn);
      if (insn.mem && insn.mem->base == *table_reg && insn.mem->index &&
          insn.mem->scale == 4 && insn.reg_op == jreg) {
        index_reg = insn.mem->index;
        movsxd_pos = k;
        found_movsxd = true;
        break;
      }
    }
    if ((step.regs_written & (reg_bit(jreg) | reg_bit(*table_reg))) != 0) {
      return std::nullopt;
    }
  }
  if (!found_movsxd || !index_reg) {
    return std::nullopt;
  }

  // Scan back for: lea table_reg, [rip + table]
  bool found_lea = false;
  for (std::size_t k = movsxd_pos; k-- > 0;) {
    const Step& step = code.step(window[k]);
    if (step.kind == Kind::kLea) {
      code.redecode(window[k], insn);
      if (insn.reg_op == *table_reg && insn.mem_target) {
        table_addr = *insn.mem_target;
        found_lea = true;
        break;
      }
    }
    if ((step.regs_written & reg_bit(*table_reg)) != 0) {
      return std::nullopt;
    }
  }
  if (!found_lea) {
    return std::nullopt;
  }

  const auto entries = find_bound(code, window, movsxd_pos, *index_reg);
  if (!entries || *entries == 0 || *entries > 4096) {
    return std::nullopt;
  }
  return read_table_pic(code, jmp.addr, table_addr, *entries);
}

}  // namespace fetch::disasm
