#include "disasm/recursive.hpp"

#include <iterator>
#include <stdexcept>

#include "disasm/walk.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace fetch::disasm {

const Function& FunctionTable::at(std::uint64_t entry) const {
  const auto it = find(entry);
  if (it == slots_.end()) {
    throw std::out_of_range("FunctionTable::at: no function at entry");
  }
  return *it->second;
}

void FunctionTable::push_back(Body body) {
  FETCH_ASSERT(slots_.empty() || slots_.back().first < body->entry);
  const std::uint64_t entry = body->entry;
  slots_.emplace_back(entry, std::move(body));
}

void FunctionTable::replace(Body body) {
  const auto it = find(body->entry);
  FETCH_ASSERT(it != slots_.end());
  slots_[static_cast<std::size_t>(it - slots_.begin())].second =
      std::move(body);
}

void FunctionTable::erase(std::uint64_t entry) {
  const auto it = find(entry);
  if (it != slots_.end()) {
    slots_.erase(it);
  }
}

namespace {

using x86::Insn;
using x86::Kind;
using x86::Reg;

/// The engine's metrics live in the global registry. Each is recorded once
/// per pass or step, never per instruction, so a by-name lookup is cheap.
obs::Counter& counter(const char* name) {
  return obs::Registry::global().counter(name);
}
obs::Histogram& histogram(const char* name) {
  return obs::Registry::global().histogram(name);
}

/// Upper bound on instructions explored per function (defensive).
constexpr std::size_t kMaxInsnsPerFunction = 1u << 20;

/// Backward slice of the first-argument register (edi) at a call site:
/// returns true when edi provably holds zero. Used for the paper's
/// `error`/`error_at_line` conditional-noreturn special case. Steps find
/// the last definition; only it is decoded in full.
bool first_arg_is_zero(const CodeView& code, const InsnWindow& window) {
  for (std::size_t i = window.size(); i-- > 0;) {
    const Step& step = code.step(window[i]);
    if ((step.regs_written & reg_bit(Reg::kRdi)) == 0) {
      continue;
    }
    if (step.kind != Kind::kMov && step.kind != Kind::kOther) {
      return false;
    }
    Insn insn;
    code.redecode(window[i], insn);
    if (insn.kind == Kind::kMov && insn.imm) {
      return *insn.imm == 0;
    }
    // xor edi, edi: classified kOther, defines rdi without reading it.
    return insn.kind == Kind::kOther &&
           (insn.regs_read & reg_bit(Reg::kRdi)) == 0 && !insn.mem;
  }
  return false;  // no definition in window: assume non-zero (conservative)
}

/// A pass' no-return and conditional-noreturn sets as dense sets, built
/// once per pass for the per-call question: does a call fall through?
struct CallSets {
  CallSets(const CodeView& code, const Options& options)
      : code(code), noreturn(code), conditional(code) {
    for (const std::uint64_t a : options.noreturn_functions) {
      noreturn.insert(a);
    }
    for (const std::uint64_t a : options.conditional_noreturn) {
      conditional.insert(a);
    }
  }

  /// Does the call to \p callee at the end of \p window fall through?
  [[nodiscard]] Flow flow(const InsnWindow& window,
                          std::uint64_t callee) const {
    const bool returns =
        noreturn.count(callee) == 0 &&
        (conditional.count(callee) == 0 || first_arg_is_zero(code, window));
    return returns ? Flow::kFall : Flow::kEnd;
  }

  const CodeView& code;
  AddrSet noreturn;
  AddrSet conditional;
};

/// Phase 1: global discovery. Explores every reachable instruction once,
/// collecting starts (code seeds and call targets, also into \p starts),
/// instruction starts and xrefs (resolved jump-table entries included).
void discover(const CodeView& code, const std::vector<std::uint64_t>& seeds,
              const CallSets& calls, Result& result, AddrSet& starts) {
  AddrSet& visited = result.insn_starts = AddrSet(code);
  AddrSet queued(code);
  WorkQueue work;
  // Callers queue code addresses only.
  auto enqueue = [&](std::uint64_t addr, const InsnWindow& window) {
    if (visited.count(addr) == 0 && queued.insert(addr)) {
      work.push(addr, window);
    }
  };
  for (const std::uint64_t seed : seeds) {
    if (code.is_code(seed)) {
      starts.insert(seed);
      enqueue(seed, {});
    }
  }
  auto claim = [&](std::uint64_t addr) {
    const CodeView::Rec rec = code.rec_at(addr);
    return rec.step != nullptr && visited.insert(addr) ? rec : CodeView::Rec{};
  };
  walk(work, claim, [&](std::uint64_t addr, const Step& step,
                        const InsnWindow& window) {
    if (step.has(Step::kHasMemTarget | Step::kImmInSection)) {
      const CodeView::Operands ops = code.operands(window.back(), step);
      if (step.has(Step::kHasMemTarget)) {
        result.xrefs.add(ops.mem, addr, RefKind::kMemory);
      }
      if (step.has(Step::kImmInSection)) {
        result.xrefs.add(ops.imm, addr, RefKind::kImmediate);
      }
    }
    switch (step.kind) {
      case Kind::kCallDirect:
        result.xrefs.add(step.target, addr, RefKind::kCall);
        if (step.has(Step::kTargetIsCode)) {
          starts.insert(step.target);
          enqueue(step.target, {});
        }
        return calls.flow(window, step.target);
      case Kind::kJmpDirect:
      case Kind::kCondJmp:
        result.xrefs.add(step.target, addr, RefKind::kJump);
        if (step.has(Step::kTargetIsCode)) {
          enqueue(step.target, window);
        }
        break;
      case Kind::kJmpIndirect:
        // A resolved table's targets are all code.
        if (auto table = resolve_jump_table(code, window)) {
          for (const std::uint64_t t : table->targets) {
            result.xrefs.add(t, addr, RefKind::kJumpTable);
            enqueue(t, {});
          }
        }
        break;
      default:
        break;
    }
    return fall_of(step);
  });
  starts.for_each(
      [&](std::uint64_t s) { result.starts.insert(result.starts.end(), s); });
}

/// Phase 2: builds one function's structure against the final start set.
/// \p in_body is clear scratch shared by a pass' builds (left clear). An
/// address queued twice is claimed by its older item only: no dedup needed.
Function build_function(const CodeView& code, std::uint64_t entry,
                        const AddrSet& starts, const CallSets& calls,
                        AddrSet& in_body, WorkQueue& work) {
  Function fn;
  fn.entry = entry;
  work.push(entry);
  auto claim = [&](std::uint64_t addr) {
    if (in_body.count(addr) != 0) {
      return CodeView::Rec{};
    }
    const CodeView::Rec rec =
        fn.insn_addrs.size() < kMaxInsnsPerFunction
            ? code.rec_at(addr)
            : CodeView::Rec{};
    if (rec.step != nullptr) {
      in_body.insert(addr);
      fn.insn_addrs.push_back(addr);
      fn.max_end = std::max(fn.max_end, addr + rec.step->length);
    }
    return rec;
  };
  walk(work, claim, [&](std::uint64_t addr, const Step& step,
                        const InsnWindow& window) {
    const std::uint64_t target = step.target;
    switch (step.kind) {
      case Kind::kCallDirect:
        fn.callees.push_back(target);
        return calls.flow(window, target);
      case Kind::kJmpDirect:
      case Kind::kCondJmp:
        fn.jumps.push_back({addr, target, step.kind == Kind::kCondJmp});
        if ((starts.count(target) == 0 || target == entry) &&
            step.has(Step::kTargetIsCode)) {
          work.push(target, window);
        }
        break;
      case Kind::kJmpIndirect:
        if (auto table = resolve_jump_table(code, window)) {
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
    return fall_of(step);
  });
  in_body.clear_sorted(fn.insn_addrs);
  return fn;
}

/// True when \p fn, built in generation \p then, consulted only answers
/// that \p starts and \p calls still give.
bool still_valid(const Function& fn, const BodyCache::Generation& then,
                 const AddrSet& starts, const CallSets& calls) {
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
           return then.noreturn.count(c) == calls.noreturn.count(c);
         });
}

/// One exploration pass, less the parts only a returned Result needs.
Result explore_pass(const CodeView& code,
                    const std::vector<std::uint64_t>& seeds,
                    const Options& options, BodyCache& memo) {
  obs::Span discover_span(nullptr, "detect.discover",
                          &histogram("disasm_discover_us"));
  CallSets calls(code, options);
  Result result;
  AddrSet starts(code);
  discover(code, seeds, calls, result, starts);
  std::uint64_t visited = result.insn_starts.size();
  discover_span.finish();

  obs::Span bodies_span(nullptr, "detect.bodies",
                        &histogram("disasm_bodies_us"));
  if (memo.conditional_noreturn != options.conditional_noreturn) {
    memo = {};  // built under other options: nothing to reuse
    memo.conditional_noreturn = options.conditional_noreturn;
  }
  // The cache and the start set are both entry-sorted: walk them in step.
  // Per entry, the newest body still valid is reused.
  std::vector<BodyCache::Built> fresh;  // this pass' generation
  AddrSet in_body(code);
  WorkQueue work;
  result.functions.reserve(result.starts.size());
  auto cached = memo.bodies.cbegin();
  for (const std::uint64_t entry : result.starts) {
    while (cached != memo.bodies.cend() && cached->entry < entry) {
      ++cached;
    }
    const auto older = cached;
    while (cached != memo.bodies.cend() && cached->entry == entry) {
      ++cached;
    }
    const auto valid = std::find_if(
        std::make_reverse_iterator(cached), std::make_reverse_iterator(older),
        [&](const BodyCache::Built& b) {
          return still_valid(*b.fn, memo.generations[b.generation], starts,
                             calls);
        });
    if (valid.base() != older) {
      result.functions.push_back(valid->fn);
      continue;
    }
    fresh.push_back({entry, memo.generations.size(),
                     std::make_shared<const Function>(build_function(
                         code, entry, starts, calls, in_body, work))});
    visited += fresh.back().fn->insn_addrs.size();
    result.functions.push_back(fresh.back().fn);
  }
  const std::uint64_t built_count = fresh.size();
  if (built_count != 0) {
    memo.generations.push_back({std::move(starts), std::move(calls.noreturn)});
    // Stable: per entry, older bodies stay first.
    const auto old_end = static_cast<std::ptrdiff_t>(memo.bodies.size());
    memo.bodies.insert(memo.bodies.end(),
                       std::make_move_iterator(fresh.begin()),
                       std::make_move_iterator(fresh.end()));
    std::inplace_merge(
        memo.bodies.begin(), memo.bodies.begin() + old_end, memo.bodies.end(),
        [](const BodyCache::Built& a, const BodyCache::Built& b) {
          return a.entry < b.entry;
        });
  }
  bodies_span.finish();
  // Work counters are added once per pass, never per instruction.
  counter("disasm_explore_passes_total").add(1);
  counter("disasm_insns_visited_total").add(visited);
  counter("disasm_bodies_built_total").add(built_count);
  counter("disasm_bodies_reused_total").add(result.starts.size() - built_count);
  return result;
}

/// Sorts the xrefs and derives coverage: the union of every discovered
/// instruction's bytes, inserted as maximal runs.
Result finish(const CodeView& code, Result result) {
  obs::Span span(nullptr, "detect.finish", &histogram("disasm_finish_us"));
  result.xrefs.sort();
  result.covered = AddrSet(code);
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  result.insn_starts.for_each([&](std::uint64_t a) {
    if (a < lo || a > hi) {
      result.covered.insert_range(lo, hi);
      lo = a;
    }
    hi = std::max(hi, a + code.rec_at(a).step->length);
  });
  result.covered.insert_range(lo, hi);
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
    st.emplace_back().fn = fn.get();
  }
  const CallSets calls(code, options);
  WorkQueue work;
  std::uint64_t visits = 0;

  auto evaluate = [&](std::size_t i) {
    State& s = st[i];
    const Function& fn = *s.fn;
    if (s.seen.empty() || s.sensitive) {  // first walk, or from the entry
      s.sensitive = std::any_of(
          fn.callees.begin(), fn.callees.end(),
          [&](auto c) { return calls.conditional.count(c) != 0; });
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
    auto claim = [&, pos = kNone](std::uint64_t addr) mutable {
      pos = index_of(fn.insn_addrs, addr, pos + 1);
      if (pos == kNone || s.seen[pos]) {
        return CodeView::Rec{};
      }
      s.seen[pos] = true;
      return code.rec_at(addr);
    };
    return walk(work, claim, [&](std::uint64_t addr, const Step& step,
                                 const InsnWindow& window) {
      ++visits;
      const std::uint64_t target = step.target;
      switch (step.kind) {
        case Kind::kRet:
          return Flow::kDone;
        case Kind::kCallDirect:
          if (const std::size_t t = index_of(entries, target, kNone);
              t != kNone && !st[t].may_return &&
              calls.noreturn.count(target) == 0) {
            st[t].waiters.push_back({i, addr + step.length});
            return Flow::kEnd;  // callee not (yet) known to return
          }
          return calls.flow(window, target);
        case Kind::kJmpDirect:
        case Kind::kCondJmp:
          if (fn.contains(target)) {
            work.push(target, window);
          } else if (const std::size_t t = index_of(entries, target, kNone);
                     t != kNone) {
            // Escaping jump (tail-call shaped): f returns iff target may.
            if (st[t].may_return) {
              return Flow::kDone;
            }
            st[t].waiters.push_back({i, kEscape});
          } else if (step.has(Step::kTargetIsCode)) {
            return Flow::kDone;  // jump outside known functions
          }
          break;
        default:
          break;
      }
      // Resolved table targets are in insn_addrs and reached via the
      // function's other paths; an indirect jump ends the path.
      return fall_of(step);
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
  counter("disasm_noreturn_visits_total").add(visits);

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
    obs::Span span(nullptr, "detect.noreturn",
                   &histogram("disasm_noreturn_us"));
    std::set<std::uint64_t> noreturn =
        find_noreturn_functions(code, result, opts);
    span.finish();
    noreturn.insert(options.noreturn_functions.begin(),
                    options.noreturn_functions.end());
    // A pass asks the no-return set only about direct-call targets:
    // discovery makes every code call target a start, and bodies (built
    // or reused) ask about their callees. Both sets hold only starts of
    // some pass plus options.noreturn_functions, so a difference at no
    // start and no callee is one this pass never asked about. Another
    // pass would repeat it exactly, build no body, and get this same set
    // back: stop now.
    std::vector<std::uint64_t> changed;
    std::set_symmetric_difference(noreturn.begin(), noreturn.end(),
                                  opts.noreturn_functions.begin(),
                                  opts.noreturn_functions.end(),
                                  std::back_inserter(changed));
    const auto is_changed = [&](std::uint64_t a) {
      return std::binary_search(changed.begin(), changed.end(), a);
    };
    const auto is_start = [&](std::uint64_t a) {
      return result.starts.count(a) != 0;
    };
    if (std::none_of(changed.begin(), changed.end(), is_start) &&
        std::none_of(result.functions.begin(), result.functions.end(),
                     [&](const auto& f) {
                       return std::any_of(f.second->callees.begin(),
                                          f.second->callees.end(), is_changed);
                     })) {
      break;
    }
    opts.noreturn_functions = std::move(noreturn);
    result = explore_pass(code, seeds, opts, memo);
  }
  return finish(code, std::move(result));
}

}  // namespace fetch::disasm
