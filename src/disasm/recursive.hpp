#pragma once

/// \file recursive.hpp
/// Safe recursive disassembly (§IV-C of the paper). Starting from a seed
/// set of function starts (FDE PC Begins, program entry), the
/// disassembler follows direct control flow, resolves only well-formed
/// jump tables (Dyninst-style), skips indirect calls, performs no tail-call
/// guessing, and consults a non-returning-function analysis to avoid
/// falling through into data after calls that never return.
///
/// The driver `analyze()` runs disassembly and the non-returning fixpoint
/// to mutual stability, then derives per-function structure against the
/// final set of known function starts.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "disasm/code_view.hpp"
#include "disasm/jump_table.hpp"
#include "x86/insn.hpp"

namespace fetch::disasm {

/// A direct jmp/jcc recorded during function construction whose target may
/// or may not belong to the same function (Algorithm 1 re-examines these).
struct FuncJump {
  std::uint64_t site = 0;
  std::uint64_t target = 0;
  bool conditional = false;
};

struct Function {
  std::uint64_t entry = 0;
  /// Addresses of all instructions reached intra-procedurally, ascending.
  std::vector<std::uint64_t> insn_addrs;
  /// One past the highest byte of any instruction in the function.
  std::uint64_t max_end = 0;
  /// All direct jmp/jcc instructions in the function.
  std::vector<FuncJump> jumps;
  /// Targets of the function's direct calls, in visit order.
  std::vector<std::uint64_t> callees;
  /// Jump tables resolved inside this function.
  std::vector<JumpTable> tables;

  [[nodiscard]] bool contains(std::uint64_t addr) const {
    return std::binary_search(insn_addrs.begin(), insn_addrs.end(), addr);
  }
};

/// Where a reference to an address was observed.
enum class RefKind : std::uint8_t {
  kCall,       ///< direct call target
  kJump,       ///< direct jmp/jcc target
  kMemory,     ///< RIP-relative lea/load target
  kImmediate,  ///< pointer-sized immediate operand
  kJumpTable,  ///< resolved jump-table entry
};

struct Ref {
  std::uint64_t target = 0;
  std::uint64_t site = 0;
  RefKind kind = RefKind::kCall;
};

/// Reverse reference index over the disassembled code: a flat vector,
/// appended during a pass and sorted by target once at its end.
class XRefs {
 public:
  void add(std::uint64_t target, std::uint64_t site, RefKind kind) {
    refs_.push_back({target, site, kind});
  }
  /// Orders the references by (target, site, kind); at() requires it.
  void sort() {
    std::sort(refs_.begin(), refs_.end(), [](const Ref& a, const Ref& b) {
      return std::tie(a.target, a.site, a.kind) <
             std::tie(b.target, b.site, b.kind);
    });
  }
  /// All references to \p target (empty when there are none).
  [[nodiscard]] std::span<const Ref> at(std::uint64_t target) const {
    const auto lo = std::lower_bound(
        refs_.begin(), refs_.end(), target,
        [](const Ref& r, std::uint64_t t) { return r.target < t; });
    auto hi = lo;
    while (hi != refs_.end() && hi->target == target) {
      ++hi;
    }
    return {lo, hi};
  }
  [[nodiscard]] const std::vector<Ref>& all() const { return refs_; }

 private:
  std::vector<Ref> refs_;
};

struct Options {
  /// Functions known to never return (call sites stop exploration).
  std::set<std::uint64_t> noreturn_functions;
  /// Functions that are non-returning unless their first argument (edi) is
  /// provably zero at the call site — the paper's `error`/`error_at_line`
  /// special case (§IV-C).
  std::set<std::uint64_t> conditional_noreturn;
};

/// Per-function structure keyed by entry: an entry-sorted vector of
/// shared, immutable bodies. A body reused from a BodyCache is the cache's
/// own object, so reusing a body or copying a table costs a reference,
/// never a copy; the table keeps every body it holds alive by itself.
class FunctionTable {
 public:
  using Body = std::shared_ptr<const Function>;
  using value_type = std::pair<std::uint64_t, Body>;
  using const_iterator = std::vector<value_type>::const_iterator;

  [[nodiscard]] const_iterator begin() const { return slots_.begin(); }
  [[nodiscard]] const_iterator end() const { return slots_.end(); }
  [[nodiscard]] std::size_t size() const { return slots_.size(); }
  void reserve(std::size_t n) { slots_.reserve(n); }

  /// The first slot whose entry is above \p entry.
  [[nodiscard]] const_iterator upper_bound(std::uint64_t entry) const {
    return std::upper_bound(
        slots_.begin(), slots_.end(), entry,
        [](std::uint64_t e, const value_type& s) { return e < s.first; });
  }
  /// The slot of \p entry, or end().
  [[nodiscard]] const_iterator find(std::uint64_t entry) const {
    const auto it = lower_bound(entry);
    return it != slots_.end() && it->first == entry ? it : slots_.end();
  }
  [[nodiscard]] std::size_t count(std::uint64_t entry) const {
    return find(entry) != slots_.end() ? 1 : 0;
  }
  /// The body at \p entry; throws std::out_of_range when there is none.
  [[nodiscard]] const Function& at(std::uint64_t entry) const;

  /// Appends \p body, whose entry is above every entry held.
  void push_back(Body body);
  /// Puts \p body in place of the body held at its entry.
  void replace(Body body);
  /// Removes the body at \p entry, if there is one.
  void erase(std::uint64_t entry);

 private:
  [[nodiscard]] const_iterator lower_bound(std::uint64_t entry) const {
    return std::lower_bound(
        slots_.begin(), slots_.end(), entry,
        [](const value_type& s, std::uint64_t e) { return s.first < e; });
  }

  std::vector<value_type> slots_;
};

struct Result {
  /// Final set of function starts: seeds plus discovered direct-call
  /// targets (deduplicated, only addresses that decode).
  std::set<std::uint64_t> starts;
  /// Per-function structure keyed by entry.
  FunctionTable functions;
  /// Every address at which an instruction was decoded (valid instruction
  /// boundaries). Together with `covered`, lets callers detect control
  /// transfers into the *middle* of known instructions (§IV-E error ii/iii).
  AddrSet insn_starts;
  /// Every byte of every decoded instruction.
  AddrSet covered;
  XRefs xrefs;
};

/// Every function body built by the exploration passes of the analyze()
/// calls that used this cache, each tagged with its generation: the start
/// and no-return sets of the pass that built it. A later pass reuses a
/// body when every start and no-return answer it consulted (jump and
/// table targets, callees) is unchanged; building is deterministic in
/// those answers, so reuse never changes a result. Keeping older bodies
/// lets the reanalysis' rounds reuse those of the first analysis' rounds
/// under the same no-return set. Bodies are only reused under an equal
/// `conditional_noreturn` set, and a cache must stay with one CodeView.
struct BodyCache {
  struct Generation {
    AddrSet starts;
    AddrSet noreturn;
  };
  /// A body and the generation that built it.
  struct Built {
    std::uint64_t entry = 0;
    std::size_t generation = 0;
    FunctionTable::Body fn;
  };
  std::vector<Generation> generations;
  /// Every body built, ordered by entry and, per entry, in build order.
  /// A pass walks it in step with its sorted start set.
  std::vector<Built> bodies;
  /// The `Options::conditional_noreturn` the bodies were built under.
  std::set<std::uint64_t> conditional_noreturn;
};

/// Runs the full safe-recursive pipeline: exploration from \p seeds,
/// non-returning-function fixpoint, re-exploration, and per-function
/// structure construction. Rounds reuse each other's bodies through
/// \p cache (a private one when null); passing the cache of an earlier
/// analyze() over the same code lets this one rebuild only the functions
/// whose answers changed, with results identical to a fresh run. Each
/// step of each pass (discover, bodies, noreturn, finish) records its
/// time into the global disasm_*_us histograms.
[[nodiscard]] Result analyze(const CodeView& code,
                             const std::vector<std::uint64_t>& seeds,
                             const Options& options = {},
                             BodyCache* cache = nullptr);

/// Single exploration pass without the noreturn fixpoint (used internally
/// and by baseline emulations that want a weaker pipeline).
[[nodiscard]] Result explore(const CodeView& code,
                             const std::vector<std::uint64_t>& seeds,
                             const Options& options);

/// Computes the may-return least fixpoint over \p result's functions:
/// a function may return if some intra-procedural path from its entry
/// reaches a `ret` (calls to may-return callees fall through; calls to
/// not-yet-may-return callees block the path). Returns entries of functions
/// that may NOT return. A worklist over reverse call and escaping-jump
/// edges: a function is re-examined only when one it waits on becomes
/// may-return, and resumes from the paths that waited, so the work is
/// linear in instructions plus edges (see DESIGN.md). Reads each
/// function's `callees`, as explore() builds them, to find the functions
/// that call a conditional-noreturn callee.
[[nodiscard]] std::set<std::uint64_t> find_noreturn_functions(
    const CodeView& code, const Result& result, const Options& options);

}  // namespace fetch::disasm
