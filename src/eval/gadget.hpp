#pragma once

/// \file gadget.hpp
/// ROP/JOP gadget enumeration — the reproduction's stand-in for ROPgadget
/// in the §V-A security experiment: counting the gadgets that become
/// "legitimate" indirect-control-flow targets when FDE-introduced false
/// function starts are admitted into a CFI policy.

#include <cstdint>
#include <set>
#include <vector>

#include "disasm/code_view.hpp"

namespace fetch::eval {

/// Counts distinct gadgets reachable from the basic blocks at the given
/// start addresses: every decodable suffix (starting at any byte offset in
/// the 64 bytes from a start) of at most 5 instructions (ROPgadget's
/// default depth) that ends in `ret`, `jmp reg`, or `call reg`.
[[nodiscard]] std::size_t count_gadgets_at(
    const disasm::CodeView& code, const std::set<std::uint64_t>& starts);

}  // namespace fetch::eval
