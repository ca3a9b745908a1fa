#include "disasm/recursive.hpp"

#include "disasm/walk.hpp"
#include "obs/metrics.hpp"

namespace fetch::disasm {

namespace {

using x86::Insn;
using x86::Kind;
using x86::Reg;

/// Backward slice of the first-argument register (edi) at a call site:
/// returns true when edi provably holds zero. Used for the paper's
/// `error`/`error_at_line` conditional-noreturn special case.
bool first_arg_is_zero(const InsnWindow& window) {
  for (std::size_t i = window.size(); i-- > 0;) {
    const Insn& insn = *window[i];
    if ((insn.regs_written & reg_bit(Reg::kRdi)) == 0) {
      continue;
    }
    if (insn.kind == Kind::kMov && insn.imm) {
      return *insn.imm == 0;
    }
    // xor edi, edi: classified kOther, defines rdi without reading it.
    return insn.kind == Kind::kOther &&
           (insn.regs_read & reg_bit(Reg::kRdi)) == 0 && !insn.mem;
  }
  return false;  // no definition in window: assume non-zero (conservative)
}

/// Does the call to \p callee at the end of \p window fall through?
Flow call_flow(const Options& options, const InsnWindow& window,
               std::uint64_t callee) {
  const bool returns = options.noreturn_functions.count(callee) == 0 &&
                       (options.conditional_noreturn.count(callee) == 0 ||
                        first_arg_is_zero(window));
  return returns ? Flow::kFall : Flow::kEnd;
}

/// Phase 1: global discovery. Explores every reachable instruction once,
/// collecting starts (code seeds and call targets, also into \p starts),
/// call targets, coverage, xrefs and jump tables.
void discover(const CodeView& code, const std::vector<std::uint64_t>& seeds,
              const Options& options, Result& result, AddrSet& starts) {
  AddrSet& visited = result.insn_starts = AddrSet(code);
  AddrSet queued(code);
  WorkQueue work;
  auto enqueue = [&](std::uint64_t addr, const InsnWindow& window) {
    if (code.is_code(addr) && visited.count(addr) == 0 &&
        queued.insert(addr)) {
      work.push(addr, window);
    }
  };
  for (const std::uint64_t seed : seeds) {
    if (code.is_code(seed)) {
      starts.insert(seed);
    }
    enqueue(seed, {});
  }
  auto claim = [&](std::uint64_t addr) -> const Insn* {
    const Insn* insn = code.insn_at(addr);
    return insn != nullptr && visited.insert(addr) ? insn : nullptr;
  };
  walk(code, work, claim, [&](const Insn& insn, const InsnWindow& window) {
    if (insn.mem_target) {
      result.xrefs.add(*insn.mem_target, insn.addr, RefKind::kMemory);
    }
    if (insn.imm && code.elf().section_at(*insn.imm) != nullptr) {
      result.xrefs.add(*insn.imm, insn.addr, RefKind::kImmediate);
    }
    switch (insn.kind) {
      case Kind::kCallDirect:
        result.xrefs.add(*insn.target, insn.addr, RefKind::kCall);
        if (code.is_code(*insn.target)) {
          result.call_targets.insert(*insn.target);
          starts.insert(*insn.target);
          enqueue(*insn.target, {});
        }
        return call_flow(options, window, *insn.target);
      case Kind::kJmpDirect:
      case Kind::kCondJmp:
        result.xrefs.add(*insn.target, insn.addr, RefKind::kJump);
        enqueue(*insn.target, window);
        break;
      case Kind::kJmpIndirect:
        if (auto table = options.resolve_jump_tables
                             ? resolve_jump_table(code, window)
                             : std::nullopt) {
          for (const std::uint64_t t : table->targets) {
            result.xrefs.add(t, insn.addr, RefKind::kJumpTable);
            enqueue(t, {});
          }
          result.jump_tables.push_back(std::move(*table));
        }
        break;
      default:
        break;
    }
    return fall_of(insn);
  });
  starts.for_each(
      [&](std::uint64_t s) { result.starts.insert(result.starts.end(), s); });
}

/// Phase 2: builds one function's structure against the final start set.
/// \p in_body is clear scratch shared by a pass' builds (left clear). An
/// address queued twice is claimed by its older item only: no dedup needed.
Function build_function(const CodeView& code, std::uint64_t entry,
                        const AddrSet& starts, const Options& options,
                        AddrSet& in_body, WorkQueue& work) {
  Function fn;
  fn.entry = entry;
  work.push(entry);
  auto claim = [&](std::uint64_t addr) -> const Insn* {
    if (in_body.count(addr) != 0) {
      return nullptr;
    }
    const Insn* insn = fn.insn_addrs.size() < options.max_insns_per_function
                           ? code.insn_at(addr)
                           : nullptr;
    fn.truncated = fn.truncated || insn == nullptr;
    if (insn != nullptr) {
      in_body.insert(addr);
      fn.insn_addrs.push_back(addr);
      fn.max_end = std::max(fn.max_end, addr + insn->length);
    }
    return insn;
  };
  walk(code, work, claim, [&](const Insn& insn, const InsnWindow& window) {
    const std::uint64_t target = insn.target.value_or(0);
    switch (insn.kind) {
      case Kind::kCallDirect:
        fn.callees.push_back(target);
        return call_flow(options, window, target);
      case Kind::kJmpDirect:
      case Kind::kCondJmp:
        fn.jumps.push_back({insn.addr, target, insn.kind == Kind::kCondJmp});
        if ((starts.count(target) == 0 || target == entry) &&
            code.is_code(target)) {
          work.push(target, window);
        }
        break;
      case Kind::kJmpIndirect:
        if (auto table = options.resolve_jump_tables
                             ? resolve_jump_table(code, window)
                             : std::nullopt) {
          for (const std::uint64_t t : table->targets) {
            if (starts.count(t) == 0 || t == entry) {
              work.push(t);
            }
          }
          fn.tables.push_back(std::move(*table));
        }
        break;
      default:
        break;
    }
    return fall_of(insn);
  });
  for (const std::uint64_t a : fn.insn_addrs) {
    in_body.erase(a);
  }
  std::sort(fn.insn_addrs.begin(), fn.insn_addrs.end());
  return fn;
}

/// True when \p fn, built in generation \p then, consulted only answers
/// that \p starts and \p options still give.
bool still_valid(const Function& fn, const BodyCache::Generation& then,
                 const AddrSet& starts, const Options& options) {
  auto same_start = [&](std::uint64_t t) {
    return then.starts.count(t) == starts.count(t);
  };
  for (const JumpTable& table : fn.tables) {
    if (!std::all_of(table.targets.begin(), table.targets.end(), same_start)) {
      return false;
    }
  }
  return std::all_of(fn.jumps.begin(), fn.jumps.end(),
                     [&](auto& j) { return same_start(j.target); }) &&
         std::all_of(fn.callees.begin(), fn.callees.end(), [&](auto c) {
           return then.noreturn.count(c) ==
                  options.noreturn_functions.count(c);
         });
}

/// One exploration pass, less the parts only a returned Result needs.
Result explore_pass(const CodeView& code,
                    const std::vector<std::uint64_t>& seeds,
                    const Options& options, BodyCache& memo) {
  Result result;
  AddrSet starts(code);
  discover(code, seeds, options, result, starts);
  std::uint64_t visited = result.insn_starts.size();

  if (memo.options.resolve_jump_tables != options.resolve_jump_tables ||
      memo.options.max_insns_per_function != options.max_insns_per_function ||
      memo.options.conditional_noreturn != options.conditional_noreturn) {
    memo = {};  // built under other options: nothing to reuse
  }
  bool fresh = false;  // some body is of this pass' generation
  AddrSet in_body(code);
  WorkQueue work;
  for (const std::uint64_t entry : result.starts) {
    auto& built = memo.bodies[entry];
    const auto valid = std::find_if(built.rbegin(), built.rend(), [&](auto& b) {
      return still_valid(b.second, memo.generations[b.first], starts, options);
    });
    const bool rebuild = valid == built.rend();
    if (rebuild) {
      built.emplace_back(memo.generations.size(),
                         build_function(code, entry, starts, options, in_body,
                                        work));
      visited += built.back().second.insn_addrs.size();
      fresh = true;
    }
    result.functions.emplace_hint(result.functions.end(), entry,
                                  rebuild ? built.back().second : valid->second);
  }
  if (fresh) {
    memo.generations.push_back({std::move(starts), options.noreturn_functions});
  }
  memo.options = options;
  // Work counters are added once per pass, never per instruction.
  obs::Registry::global().counter("disasm_explore_passes_total").add(1);
  obs::Registry::global().counter("disasm_insns_visited_total").add(visited);
  return result;
}

/// Sorts the xrefs and derives coverage: the union of every discovered
/// instruction's bytes, fed to the interval set as maximal runs.
Result finish(const CodeView& code, Result result) {
  result.xrefs.sort();
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  result.insn_starts.for_each([&](std::uint64_t a) {
    if (a < lo || a > hi) {
      result.covered.add(lo, hi);
      lo = a;
    }
    hi = std::max(hi, a + code.insn_at(a)->length);
  });
  result.covered.add(lo, hi);
  return result;
}

}  // namespace

Result explore(const CodeView& code, const std::vector<std::uint64_t>& seeds,
               const Options& options) {
  BodyCache none;
  return finish(code, explore_pass(code, seeds, options, none));
}

std::set<std::uint64_t> find_noreturn_functions(const CodeView& code,
                                                const Result& result,
                                                const Options& options) {
  // Least fixpoint of "may return", reached in the order the entry-ordered
  // sweep defines, but a function is evaluated again only when a function
  // it waits on (a callee that blocked a path, an escaping jump's target)
  // has just become may-return. Functions are numbered in entry order. A
  // function that calls a conditional-noreturn callee depends on the window
  // of the first path to reach that call, so it is re-walked from its entry
  // as the sweep would; any other function's answer is plain reachability,
  // so it resumes only the paths that waited.
  constexpr std::size_t kNone = ~std::size_t{0};
  auto index_of = [](const std::vector<std::uint64_t>& v, std::uint64_t a,
                     std::size_t hint) {
    if (hint < v.size() && v[hint] == a) {
      return hint;
    }
    const auto it = std::lower_bound(v.begin(), v.end(), a);
    return it != v.end() && *it == a ? std::size_t(it - v.begin()) : kNone;
  };

  // A waiter (function, resume point) continues at the resume point once
  // the awaited function may return; kEscape: the wait itself was a path
  // to a return.
  constexpr std::uint64_t kEscape = ~std::uint64_t{0};
  using Waiter = std::pair<std::size_t, std::uint64_t>;
  struct State {
    const Function* fn = nullptr;
    std::vector<Waiter> waiters;       // functions waiting on this one
    std::vector<std::uint64_t> ready;  // resume points now unblocked
    std::vector<bool> seen;            // by position in insn_addrs
    bool may_return = false;
    bool sensitive = false;  // calls a conditional-noreturn callee
  };
  // Sweep order: a function woken by a change at a lower entry is due in
  // the current sweep, one woken from a higher entry in the next.
  std::set<std::size_t> sweep;
  std::set<std::size_t> next;
  std::vector<std::uint64_t> entries;
  std::vector<State> st;
  for (const auto& [entry, fn] : result.functions) {
    sweep.insert(sweep.end(), st.size());
    entries.push_back(entry);
    st.emplace_back().fn = &fn;
  }
  WorkQueue work;
  std::uint64_t visits = 0;

  auto evaluate = [&](std::size_t i) {
    State& s = st[i];
    const Function& fn = *s.fn;
    if (s.seen.empty() || s.sensitive) {  // first walk, or from the entry
      s.sensitive = std::any_of(
          fn.callees.begin(), fn.callees.end(),
          [&](auto c) { return options.conditional_noreturn.count(c) != 0; });
      s.seen.assign(fn.insn_addrs.size(), false);
      s.ready.assign(1, fn.entry);
    }
    for (const std::uint64_t a : s.ready) {
      if (a == kEscape) {
        work.clear();
        return true;
      }
      work.push(a);
    }
    s.ready.clear();
    auto claim = [&, pos = kNone](std::uint64_t addr) mutable -> const Insn* {
      pos = index_of(fn.insn_addrs, addr, pos + 1);
      if (pos == kNone || s.seen[pos]) {
        return nullptr;
      }
      s.seen[pos] = true;
      return code.insn_at(addr);
    };
    return walk(code, work, claim, [&](const Insn& insn,
                                       const InsnWindow& window) {
      ++visits;
      const std::uint64_t target = insn.target.value_or(0);
      const std::size_t t =
          insn.target ? index_of(entries, target, kNone) : kNone;
      switch (insn.kind) {
        case Kind::kRet:
          return Flow::kDone;
        case Kind::kCallDirect:
          if (t != kNone && !st[t].may_return &&
              options.noreturn_functions.count(target) == 0) {
            st[t].waiters.push_back({i, insn.addr + insn.length});
            return Flow::kEnd;  // callee not (yet) known to return
          }
          return call_flow(options, window, target);
        case Kind::kJmpDirect:
        case Kind::kCondJmp:
          if (fn.contains(target)) {
            work.push(target, window);
          } else if (t != kNone) {
            // Escaping jump (tail-call shaped): f returns iff target may.
            if (st[t].may_return) {
              return Flow::kDone;
            }
            st[t].waiters.push_back({i, kEscape});
          } else if (code.is_code(target)) {
            return Flow::kDone;  // jump outside known functions
          }
          break;
        default:
          break;
      }
      // Resolved table targets are in insn_addrs and reached via the
      // function's other paths; an indirect jump ends the path.
      return fall_of(insn);
    });
  };

  while (!sweep.empty()) {
    while (!sweep.empty()) {
      const std::size_t i = *sweep.begin();
      sweep.erase(sweep.begin());
      if (st[i].may_return || !evaluate(i)) {
        continue;
      }
      st[i].may_return = true;
      for (const auto& [w, resume] : st[i].waiters) {
        if (!st[w].may_return) {
          st[w].ready.push_back(resume);
          (w > i ? sweep : next).insert(w);
        }
      }
      st[i].waiters = {};
    }
    std::swap(sweep, next);
  }
  obs::Registry::global().counter("disasm_noreturn_visits_total").add(visits);

  std::set<std::uint64_t> noreturn;
  for (std::size_t i = 0; i < st.size(); ++i) {
    if (!st[i].may_return) {
      noreturn.insert(noreturn.end(), entries[i]);
    }
  }
  return noreturn;
}

Result analyze(const CodeView& code, const std::vector<std::uint64_t>& seeds,
               const Options& options, BodyCache* cache) {
  BodyCache own;
  BodyCache& memo = cache != nullptr ? *cache : own;
  Options opts = options;
  Result result = explore_pass(code, seeds, opts, memo);
  // Iterate the noreturn fixpoint against exploration until stable (two
  // rounds suffice in practice; bound defensively).
  for (int round = 0; round < 4; ++round) {
    std::set<std::uint64_t> noreturn =
        find_noreturn_functions(code, result, opts);
    noreturn.insert(options.noreturn_functions.begin(),
                    options.noreturn_functions.end());
    if (noreturn == opts.noreturn_functions) {
      break;
    }
    opts.noreturn_functions = std::move(noreturn);
    result = explore_pass(code, seeds, opts, memo);
  }
  return finish(code, std::move(result));
}

}  // namespace fetch::disasm
