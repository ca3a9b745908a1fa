#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "core/pointer_detector.hpp"
#include "disasm/code_view.hpp"
#include "disasm/recursive.hpp"
#include "elf/elf_builder.hpp"
#include "eval/runner.hpp"
#include "helpers.hpp"
#include "obs/metrics.hpp"
#include "synth/corpus.hpp"
#include "util/fs.hpp"

/// Equivalence and bound tests for the dense recursive-disassembly engine:
/// hand-built no-return cases, the worklist no-return analysis against the
/// entry-ordered sweep it replaced, the cached post-pointer reanalysis
/// against a fresh analyze(), and the no-return work bound on a call chain
/// that drives the sweep quadratic.

namespace fetch::disasm {
namespace {

using test::kTextAddr;
using test::MiniBinary;
using x86::Assembler;
using x86::Cond;
using x86::Kind;
using x86::Label;
using x86::Reg;

// --- Oracle: the entry-ordered may-return sweep --------------------------

bool oracle_first_arg_is_zero(const CodeView& code, const InsnWindow& window) {
  for (std::size_t i = window.size(); i-- > 0;) {
    x86::Insn insn;
    code.redecode(window[i], insn);
    if ((insn.regs_written & reg_bit(Reg::kRdi)) == 0) {
      continue;
    }
    if (insn.kind == Kind::kMov && insn.imm) {
      return *insn.imm == 0;
    }
    return insn.kind == Kind::kOther &&
           (insn.regs_read & reg_bit(Reg::kRdi)) == 0 && !insn.mem;
  }
  return false;
}

/// Re-sweeps every not-yet-returning function in entry order until a sweep
/// changes nothing; each sweep walks a function from its entry.
std::set<std::uint64_t> oracle_noreturn(const CodeView& code,
                                        const Result& result,
                                        const Options& options) {
  std::set<std::uint64_t> may_return;
  auto reaches_ret = [&](const Function& fn) {
    std::deque<std::pair<std::uint64_t, InsnWindow>> work{{fn.entry, {}}};
    std::set<std::uint64_t> seen;
    while (!work.empty()) {
      auto [addr, window] = work.front();
      work.pop_front();
      while (seen.insert(addr).second && fn.contains(addr)) {
        const CodeView::Rec rec = code.rec_at(addr);
        if (rec.step == nullptr) {
          break;
        }
        window.push(rec.slot);
        x86::Insn full;
        code.redecode(rec.slot, full);
        const x86::Insn* insn = &full;
        bool fall = false;
        const std::uint64_t t = insn->target.value_or(0);
        if (insn->kind == Kind::kRet) {
          return true;
        } else if (insn->kind == Kind::kCallDirect) {
          const bool internal = result.functions.count(t) != 0;
          if (options.noreturn_functions.count(t) == 0 &&
              (!internal || may_return.count(t) != 0)) {
            fall = options.conditional_noreturn.count(t) == 0 ||
                   oracle_first_arg_is_zero(code, window);
          }
        } else if (insn->kind == Kind::kJmpDirect ||
                   insn->kind == Kind::kCondJmp) {
          if (fn.contains(t)) {
            work.push_back({t, window});
          } else if (result.functions.count(t) != 0) {
            if (may_return.count(t) != 0) {
              return true;
            }
          } else if (code.is_code(t)) {
            return true;
          }
          fall = insn->kind == Kind::kCondJmp;
        } else {
          fall = insn->kind != Kind::kJmpIndirect &&
                 insn->kind != Kind::kUd2 && insn->kind != Kind::kHlt;
        }
        if (!fall) {
          break;
        }
        addr += insn->length;
      }
    }
    return false;
  };
  for (bool changed = true; changed;) {
    changed = false;
    for (const auto& [entry, fn] : result.functions) {
      if (may_return.count(entry) == 0 && reaches_ret(*fn)) {
        may_return.insert(entry);
        changed = true;
      }
    }
  }
  std::set<std::uint64_t> out;
  for (const auto& [entry, fn] : result.functions) {
    if (may_return.count(entry) == 0) {
      out.insert(entry);
    }
  }
  return out;
}

std::uint64_t counter(const char* name) {
  return obs::Registry::global().counter(name).value();
}

// --- Hand-built no-return cases -------------------------------------------

/// Analyzes \p a with every label in \p fns as a seed; returns the
/// no-return set (checked against the oracle) as label indices.
std::set<std::size_t> noreturn_indices(Assembler& a,
                                       const std::vector<Label>& fns,
                                       const Options& options = {}) {
  std::vector<std::uint64_t> seeds;
  for (const Label& l : fns) {
    seeds.push_back(a.address_of(l));
  }
  const elf::ElfFile elf = MiniBinary(a).build();
  CodeView code(elf);
  const Result r = explore(code, seeds, options);
  const std::set<std::uint64_t> nr = find_noreturn_functions(code, r, options);
  EXPECT_EQ(nr, oracle_noreturn(code, r, options));
  std::set<std::size_t> out;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    if (nr.count(seeds[i]) != 0) {
      out.insert(i);
    }
  }
  return out;
}

TEST(NoReturnWorklist, ChainEndingInExitNeverReturns) {
  Assembler a(kTextAddr);
  std::vector<Label> f = {a.label(), a.label(), a.label(), a.label()};
  for (int i = 0; i < 3; ++i) {
    a.bind(f[i]);
    a.call(f[i + 1]);
    a.ret();
  }
  a.bind(f[3]);  // exit
  a.hlt();
  EXPECT_EQ(noreturn_indices(a, f), (std::set<std::size_t>{0, 1, 2, 3}));
}

TEST(NoReturnWorklist, ChainWithReturningTailReturnsEverywhere) {
  Assembler a(kTextAddr);
  std::vector<Label> f = {a.label(), a.label(), a.label(), a.label()};
  Label skip = a.label();
  for (int i = 0; i < 2; ++i) {
    a.bind(f[i]);
    a.call(f[i + 1]);
    a.ret();
  }
  a.bind(f[2]);  // returns unless it calls exit
  a.test_rr(Reg::kRdi, Reg::kRdi);
  a.jcc(Cond::kE, skip);
  a.call(f[3]);
  a.bind(skip);
  a.ret();
  a.bind(f[3]);
  a.hlt();
  EXPECT_EQ(noreturn_indices(a, f), (std::set<std::size_t>{3}));
}

TEST(NoReturnWorklist, MutualRecursionWithBaseCaseReturns) {
  Assembler a(kTextAddr);
  std::vector<Label> f = {a.label(), a.label()};
  Label base = a.label();
  a.bind(f[0]);
  a.call(f[1]);
  a.ret();
  a.bind(f[1]);
  a.test_rr(Reg::kRdi, Reg::kRdi);
  a.jcc(Cond::kE, base);
  a.call(f[0]);
  a.bind(base);
  a.ret();
  EXPECT_TRUE(noreturn_indices(a, f).empty());
}

TEST(NoReturnWorklist, MutualRecursionWithoutBaseCaseNeverReturns) {
  Assembler a(kTextAddr);
  std::vector<Label> f = {a.label(), a.label(), a.label()};
  a.bind(f[0]);  // enters the cycle
  a.call(f[1]);
  a.ret();
  a.bind(f[1]);
  a.call(f[2]);
  a.ret();
  a.bind(f[2]);
  a.call(f[1]);
  a.ret();
  EXPECT_EQ(noreturn_indices(a, f), (std::set<std::size_t>{0, 1, 2}));
}

TEST(NoReturnWorklist, ConditionalErrorCalleeDependsOnFirstArgument) {
  Assembler a(kTextAddr);
  // 0: error(status, ...): exits when status != 0.
  // 1: error(0) then ret          -> returns
  // 2: error(1) then ret          -> never returns
  // 3: status 1 or 0 on two paths -> the first path to reach the call
  //    (status 0, via the jcc fallthrough join) decides: returns
  // 4: exit
  std::vector<Label> f = {a.label(), a.label(), a.label(), a.label(),
                          a.label()};
  Label ok = a.label();
  Label zero = a.label();
  Label join = a.label();
  a.bind(f[0]);
  a.test_rr(Reg::kRdi, Reg::kRdi);
  a.jcc(Cond::kE, ok);
  a.call(f[4]);
  a.bind(ok);
  a.ret();
  a.bind(f[1]);
  a.xor_rr(Reg::kRdi, Reg::kRdi);
  a.call(f[0]);
  a.ret();
  a.bind(f[2]);
  a.mov_ri32(Reg::kRdi, 1);
  a.call(f[0]);
  a.ret();
  a.bind(f[3]);
  a.test_rr(Reg::kRsi, Reg::kRsi);
  a.jcc(Cond::kE, zero);
  a.mov_ri32(Reg::kRdi, 1);
  a.jmp(join);
  a.bind(zero);
  a.xor_rr(Reg::kRdi, Reg::kRdi);
  a.bind(join);
  a.call(f[0]);
  a.ret();
  a.bind(f[4]);
  a.hlt();
  Options options;
  options.conditional_noreturn = {a.address_of(f[0])};
  EXPECT_EQ(noreturn_indices(a, f, options), (std::set<std::size_t>{2, 4}));
}

TEST(NoReturnWorklist, ConditionalCallAfterAWaitSeesTheWholePath) {
  // 0 zeroes edi, then waits on 1 (evaluated later in the sweep); only once
  // 1 may return does the path reach error(edi), whose answer depends on
  // the xor before the wait. 2: error, 3: exit.
  Assembler a(kTextAddr);
  std::vector<Label> f = {a.label(), a.label(), a.label(), a.label()};
  Label ok = a.label();
  a.bind(f[0]);
  a.xor_rr(Reg::kRdi, Reg::kRdi);
  a.call(f[1]);
  a.call(f[2]);
  a.ret();
  a.bind(f[1]);
  a.ret();
  a.bind(f[2]);
  a.test_rr(Reg::kRdi, Reg::kRdi);
  a.jcc(Cond::kE, ok);
  a.call(f[3]);
  a.bind(ok);
  a.ret();
  a.bind(f[3]);
  a.hlt();
  Options options;
  options.conditional_noreturn = {a.address_of(f[2])};
  EXPECT_EQ(noreturn_indices(a, f, options), (std::set<std::size_t>{3}));
}

TEST(NoReturnWorklist, TailJumpsFollowTheirTarget) {
  Assembler a(kTextAddr);
  // 0: jmp 2 (returns)  1: jmp 3 (never returns)  2: ret  3: exit
  std::vector<Label> f = {a.label(), a.label(), a.label(), a.label()};
  a.bind(f[0]);
  a.jmp(f[2]);
  a.bind(f[1]);
  a.jmp(f[3]);
  a.bind(f[2]);
  a.ret();
  a.bind(f[3]);
  a.hlt();
  EXPECT_EQ(noreturn_indices(a, f), (std::set<std::size_t>{1, 3}));
}

// --- Worklist == sweep on the smoke corpus --------------------------------

eval::CorpusOptions smoke() {
  eval::CorpusOptions options;
  options.scale = synth::Scale::kSmoke;
  options.jobs = 1;
  return options;
}

std::vector<std::uint64_t> fde_seeds(const core::FunctionDetector& det) {
  std::vector<std::uint64_t> seeds;
  if (det.eh_frame()) {
    for (const std::uint64_t pc : det.eh_frame()->pc_begins()) {
      if (det.code().is_code(pc)) {
        seeds.push_back(pc);
      }
    }
  }
  seeds.push_back(det.code().elf().entry());
  std::sort(seeds.begin(), seeds.end());
  seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());
  return seeds;
}

TEST(NoReturnWorklist, MatchesSweepOnSmokeCorpus) {
  for (const eval::Corpus& corpus : {eval::Corpus::self_built(smoke()),
                                     eval::Corpus::wild(smoke())}) {
    for (const eval::CorpusEntry& entry : corpus.entries()) {
      const core::FunctionDetector& det = entry.detector();
      const auto seeds = fde_seeds(det);
      Options options = eval::fetch_options(entry.bin.truth).disasm;
      for (int round = 0; round < 2; ++round) {  // without, then with NR
        const Result r = explore(det.code(), seeds, options);
        const auto nr = find_noreturn_functions(det.code(), r, options);
        ASSERT_EQ(nr, oracle_noreturn(det.code(), r, options))
            << entry.bin.name << " round " << round;
        options.noreturn_functions = nr;
      }
    }
  }
}

// --- Cached reanalysis == fresh analyze(all starts) ------------------------

void expect_same(const Result& a, const Result& b, const std::string& what) {
  ASSERT_EQ(a.starts, b.starts) << what;
  ASSERT_EQ(a.functions.size(), b.functions.size()) << what;
  for (const auto& [entry, body] : a.functions) {
    const Function& fa = *body;
    const Function& fb = b.functions.at(entry);
    EXPECT_EQ(fa.insn_addrs, fb.insn_addrs) << what << " " << entry;
    EXPECT_EQ(fa.max_end, fb.max_end) << what;
    EXPECT_EQ(fa.callees, fb.callees) << what;
    ASSERT_EQ(fa.jumps.size(), fb.jumps.size()) << what;
    for (std::size_t i = 0; i < fa.jumps.size(); ++i) {
      EXPECT_EQ(fa.jumps[i].site, fb.jumps[i].site) << what;
      EXPECT_EQ(fa.jumps[i].target, fb.jumps[i].target) << what;
      EXPECT_EQ(fa.jumps[i].conditional, fb.jumps[i].conditional) << what;
    }
    ASSERT_EQ(fa.tables.size(), fb.tables.size()) << what;
    for (std::size_t i = 0; i < fa.tables.size(); ++i) {
      EXPECT_EQ(fa.tables[i].targets, fb.tables[i].targets) << what;
    }
  }
  auto members = [](const AddrSet& s) {
    std::vector<std::uint64_t> out;
    s.for_each([&](std::uint64_t x) { out.push_back(x); });
    return out;
  };
  EXPECT_EQ(members(a.insn_starts), members(b.insn_starts)) << what;
  EXPECT_EQ(members(a.covered), members(b.covered)) << what;
  ASSERT_EQ(a.xrefs.all().size(), b.xrefs.all().size()) << what;
  for (std::size_t i = 0; i < a.xrefs.all().size(); ++i) {
    const Ref& ra = a.xrefs.all()[i];
    const Ref& rb = b.xrefs.all()[i];
    EXPECT_TRUE(ra.target == rb.target && ra.site == rb.site &&
                ra.kind == rb.kind)
        << what << " xref " << i;
  }
}

/// analyze()'s rounds on explore() without a body cache, run until the
/// no-return set repeats exactly: every function is built from scratch in
/// every round. Appends each pass' start count to \p pass_starts when
/// given.
Result uncached_analyze(const CodeView& code,
                        const std::vector<std::uint64_t>& seeds,
                        const Options& options,
                        std::vector<std::size_t>* pass_starts = nullptr) {
  Options opts = options;
  Result result = explore(code, seeds, opts);
  auto count_starts = [&] {
    if (pass_starts != nullptr) {
      pass_starts->push_back(result.starts.size());
    }
  };
  count_starts();
  for (int round = 0; round < 4; ++round) {
    std::set<std::uint64_t> nr = find_noreturn_functions(code, result, opts);
    nr.insert(options.noreturn_functions.begin(),
              options.noreturn_functions.end());
    if (nr == opts.noreturn_functions) {
      break;
    }
    opts.noreturn_functions = std::move(nr);
    result = explore(code, seeds, opts);
    count_starts();
  }
  return result;
}

/// The detector's two passes: the first analysis fills the body cache,
/// pointer detection grows the start set, the reanalysis reuses bodies.
void check_reanalysis(const CodeView& code, std::vector<std::uint64_t> seeds,
                      const Options& options, const std::string& what) {
  BodyCache cache;
  Result state = analyze(code, seeds, options, &cache);
  expect_same(state, uncached_analyze(code, seeds, options), what + " first");
  (void)core::detect_pointer_functions(code, state, options);
  const std::vector<std::uint64_t> all(state.starts.begin(),
                                       state.starts.end());
  expect_same(analyze(code, all, options, &cache),
              uncached_analyze(code, all, options), what + " reanalysis");
}

TEST(Reanalysis, RebuildsBodiesWhoseStartsChanged) {
  // Round 0 assumes exit returns, so main's `call x` makes x a start and
  // a's tail jump to x leaves a's body. Round 1 knows exit never returns:
  // x is no start, and a's body must be rebuilt to include it.
  Assembler a(kTextAddr);
  Label exit_fn = a.label();
  Label fa = a.label();
  Label x = a.label();
  a.call(exit_fn);
  a.call(x);
  a.ret();
  a.bind(fa);
  a.mov_ri32(Reg::kRax, 1);
  a.jmp(x);
  a.bind(x);
  a.ret();
  a.bind(exit_fn);
  a.hlt();
  const elf::ElfFile elf = MiniBinary(a).build();
  CodeView code(elf);
  const std::vector<std::uint64_t> seeds = {kTextAddr, a.address_of(fa)};
  const Result r = analyze(code, seeds);
  EXPECT_EQ(r.starts.count(a.address_of(x)), 0u);
  EXPECT_TRUE(r.functions.at(a.address_of(fa)).contains(a.address_of(x)));
  check_reanalysis(code, seeds, {}, "split");
}

TEST(Reanalysis, RoundsReuseTheMatchingEarlierRound) {
  // main's body differs between the rounds: round 0 assumes exit returns,
  // round 1 knows it does not. A second analyze() over the same cache
  // finds both rounds' bodies, so its passes only discover: 3
  // instructions in round 0, then main's call and exit's hlt.
  Assembler a(kTextAddr);
  Label exit_fn = a.label();
  a.call(exit_fn);
  a.ret();
  a.bind(exit_fn);
  a.hlt();
  const elf::ElfFile elf = MiniBinary(a).build();
  CodeView code(elf);
  BodyCache cache;
  (void)analyze(code, {kTextAddr}, {}, &cache);
  const std::uint64_t passes = counter("disasm_explore_passes_total");
  const std::uint64_t visited = counter("disasm_insns_visited_total");
  const Result r = analyze(code, {kTextAddr}, {}, &cache);
  EXPECT_EQ(counter("disasm_explore_passes_total") - passes, 2u);
  EXPECT_EQ(r.insn_starts.size(), 2u);
  EXPECT_EQ(counter("disasm_insns_visited_total") - visited, 3u + 2u);
  expect_same(r, uncached_analyze(code, {kTextAddr}, {}), "repeat");
}

TEST(Reanalysis, StopsWhenNoAnswerAPassAskedChanged) {
  // Round 0 assumes exit returns, so main's `call f` makes f a start.
  // Round 1 ends main at `call exit` and drops f: the no-return sets
  // differ only at f, which that pass never asked about. A third pass
  // would repeat the second exactly, so analyze() stops after two.
  Assembler a(kTextAddr);
  Label exit_fn = a.label();
  Label f = a.label();
  a.call(exit_fn);
  a.call(f);
  a.ret();
  a.bind(exit_fn);
  a.hlt();
  a.bind(f);
  a.hlt();
  const elf::ElfFile elf = MiniBinary(a).build();
  CodeView code(elf);
  const std::uint64_t passes = counter("disasm_explore_passes_total");
  const Result r = analyze(code, {kTextAddr});
  EXPECT_EQ(counter("disasm_explore_passes_total") - passes, 2u);
  EXPECT_EQ(r.starts.count(a.address_of(f)), 0u);
  expect_same(r, uncached_analyze(code, {kTextAddr}, {}), "dropped callee");
}

TEST(Reanalysis, GoesOnWhileABodyCallsAChangedAddress) {
  // g's body reaches `call c` on a path discovery never takes: discovery
  // reaches L first from main, with edi = 1, where error ends the path;
  // g's body reaches it with edi = 0 and falls through. Round 0 also
  // reaches c from m2, so c is a start that never returns. Round 1 ends
  // m2 at `call exit`: c is no start, only g's callee, and the sets
  // differ at c. g asked about c, so the rounds go on until g's call to
  // c falls through to its ret.
  Assembler a(kTextAddr);
  Label error = a.label();
  Label exit_fn = a.label();
  Label c = a.label();
  Label g = a.label();
  Label m2 = a.label();
  Label l = a.label();
  Label g_ret = a.label();
  Label ok = a.label();
  a.mov_ri32(Reg::kRdi, 1);  // main
  a.bind(l);
  a.call(error);
  a.call(c);
  a.bind(g_ret);
  a.ret();
  a.bind(g);
  a.xor_rr(Reg::kRdi, Reg::kRdi);
  a.jmp(l);
  a.bind(m2);
  a.call(exit_fn);
  a.call(c);
  a.ret();
  a.bind(c);
  a.hlt();
  a.bind(exit_fn);
  a.hlt();
  a.bind(error);
  a.test_rr(Reg::kRdi, Reg::kRdi);
  a.jcc(Cond::kE, ok);
  a.call(exit_fn);
  a.bind(ok);
  a.ret();
  const elf::ElfFile elf = MiniBinary(a).build();
  CodeView code(elf);
  Options options;
  options.conditional_noreturn = {a.address_of(error)};
  const std::vector<std::uint64_t> seeds = {kTextAddr, a.address_of(g),
                                            a.address_of(m2)};
  const std::uint64_t passes = counter("disasm_explore_passes_total");
  const Result r = analyze(code, seeds, options);
  EXPECT_EQ(counter("disasm_explore_passes_total") - passes, 4u);
  EXPECT_EQ(r.starts.count(a.address_of(c)), 0u);
  EXPECT_TRUE(r.functions.at(a.address_of(g)).contains(a.address_of(g_ret)));
  expect_same(r, uncached_analyze(code, seeds, options), "changed callee");
}

TEST(Reanalysis, EqualsFreshAnalyzeOnSmokeCorpus) {
  for (const eval::Corpus& corpus : {eval::Corpus::self_built(smoke()),
                                     eval::Corpus::wild(smoke())}) {
    for (const eval::CorpusEntry& entry : corpus.entries()) {
      const core::FunctionDetector& det = entry.detector();
      check_reanalysis(det.code(), fde_seeds(det), {}, entry.bin.name);
      check_reanalysis(det.code(), fde_seeds(det),
                       eval::fetch_options(entry.bin.truth).disasm,
                       entry.bin.name + " (conditional)");
    }
  }
}

/// The fixture binaries' bytes, by path; none (and a failure) when one
/// cannot be read.
std::vector<std::pair<std::string, std::vector<std::uint8_t>>> fixtures() {
  std::vector<std::pair<std::string, std::vector<std::uint8_t>>> out;
  const std::string paths = FETCH_FIXTURE_PATHS;
  for (std::size_t at = 0; at <= paths.size();) {
    const std::size_t end = std::min(paths.find('|', at), paths.size());
    std::string path = paths.substr(at, end - at);
    at = end + 1;
    std::vector<std::uint8_t> bytes;
    if (!util::read_file_bytes(path, &bytes)) {
      ADD_FAILURE() << "cannot read " << path;
      return {};
    }
    out.emplace_back(std::move(path), std::move(bytes));
  }
  return out;
}

TEST(Reanalysis, EqualsFreshAnalyzeOnFixtures) {
  std::size_t checked = 0;
  for (const auto& [path, bytes] : fixtures()) {
    const elf::ElfFile elf(bytes);
    const core::FunctionDetector det(elf);
    check_reanalysis(det.code(), fde_seeds(det), {}, path);
    ++checked;
  }
  EXPECT_GE(checked, 1u);
}

TEST(Reanalysis, CacheUnderOtherOptionsIsNotReused) {
  const eval::Corpus corpus = eval::Corpus::self_built(smoke());
  const eval::CorpusEntry& entry = corpus.entries().front();
  const auto seeds = fde_seeds(entry.detector());
  const CodeView& code = entry.detector().code();
  BodyCache cache;
  Options other;  // every call with a nonzero first argument ends a path
  other.conditional_noreturn.insert(seeds.begin(), seeds.end());
  (void)analyze(code, seeds, other, &cache);
  expect_same(analyze(code, seeds, {}, &cache),
              uncached_analyze(code, seeds, {}), "switched options");
}

// --- Shared bodies -----------------------------------------------------------

/// main calls f and g; h is a function nothing calls.
struct FourFunctions {
  FourFunctions() {
    Label f = a.label();
    Label g = a.label();
    Label h_label = a.label();
    a.call(f);
    a.call(g);
    a.ret();
    a.bind(f);
    a.mov_ri32(Reg::kRax, 1);
    a.ret();
    a.bind(g);
    a.test_rr(Reg::kRsi, Reg::kRsi);
    a.jcc(Cond::kE, f);
    a.ret();
    a.bind(h_label);
    a.ret();
    h = a.address_of(h_label);
  }
  Assembler a{kTextAddr};
  std::uint64_t h = 0;
};

TEST(SharedBodies, AnalysesOverOneCacheShareUnchangedBodies) {
  FourFunctions p;
  const elf::ElfFile elf = MiniBinary(p.a).build();
  CodeView code(elf);
  BodyCache cache;
  const Result first = analyze(code, {kTextAddr}, {}, &cache);
  const Result second = analyze(code, {kTextAddr, p.h}, {}, &cache);
  ASSERT_EQ(first.functions.size(), 3u);
  ASSERT_EQ(second.functions.size(), 4u);
  for (const auto& [entry, body] : first.functions) {
    EXPECT_EQ(second.functions.find(entry)->second.get(), body.get())
        << std::hex << entry;
  }
  expect_same(second, uncached_analyze(code, {kTextAddr, p.h}, {}), "grown");
}

TEST(SharedBodies, ResultsOutliveTheCacheThatBuiltThem) {
  FourFunctions p;
  const elf::ElfFile elf = MiniBinary(p.a).build();
  CodeView code(elf);
  const std::vector<std::uint64_t> seeds = {kTextAddr, p.h};
  const Result own = analyze(code, seeds);  // its private cache is gone
  Result kept;
  {
    BodyCache cache;
    kept = analyze(code, seeds, {}, &cache);
    cache = {};
  }
  EXPECT_EQ(own.functions.at(kTextAddr).insn_addrs,
            (std::vector<std::uint64_t>{kTextAddr, kTextAddr + 5,
                                        kTextAddr + 10}));
  EXPECT_EQ(own.functions.at(p.h).insn_addrs,
            std::vector<std::uint64_t>{p.h});
  expect_same(own, kept, "outlived");
  const Result copy = own;  // copies references, not bodies
  EXPECT_EQ(copy.functions.find(p.h)->second, own.functions.find(p.h)->second);
}

// --- Named engine steps -------------------------------------------------------

TEST(EngineSteps, AnalyzeTimesEachStepAndCountsEveryBody) {
  const auto all = fixtures();
  ASSERT_FALSE(all.empty());
  const elf::ElfFile elf(all.front().second);
  const core::FunctionDetector det(elf);
  const auto seeds = fde_seeds(det);
  const char* const steps[] = {"disasm_discover_us", "disasm_bodies_us",
                               "disasm_noreturn_us", "disasm_finish_us"};
  std::map<std::string, std::uint64_t> samples;
  for (const char* step : steps) {
    samples[step] = obs::Registry::global().histogram(step).count();
  }
  const std::uint64_t passes = counter("disasm_explore_passes_total");
  const std::uint64_t built = counter("disasm_bodies_built_total");
  const std::uint64_t reused = counter("disasm_bodies_reused_total");
  (void)analyze(det.code(), seeds, {});
  const std::uint64_t pass_count =
      counter("disasm_explore_passes_total") - passes;
  const std::uint64_t bodies = counter("disasm_bodies_built_total") - built +
                               counter("disasm_bodies_reused_total") - reused;
  for (const char* step : steps) {
    samples[step] = obs::Registry::global().histogram(step).count() -
                    samples[step];
  }

  ASSERT_GE(pass_count, 1u);
  EXPECT_EQ(samples["disasm_discover_us"], pass_count);
  EXPECT_EQ(samples["disasm_bodies_us"], pass_count);
  EXPECT_GE(samples["disasm_noreturn_us"], pass_count - 1);
  EXPECT_LE(samples["disasm_noreturn_us"], pass_count);
  EXPECT_EQ(samples["disasm_finish_us"], 1u);

  // Every pass places one body per start, built or reused. analyze()
  // may stop before the replay, whose extra passes repeat its last one.
  std::vector<std::size_t> pass_starts;
  (void)uncached_analyze(det.code(), seeds, {}, &pass_starts);
  ASSERT_LE(pass_count, pass_starts.size());
  EXPECT_EQ(bodies, std::accumulate(pass_starts.begin(),
                                    pass_starts.begin() + pass_count,
                                    std::size_t{0}));
}

TEST(EngineSteps, DetectTimesItsOwnSteps) {
  // The detector's steps outside analyze() each have a histogram; the two
  // analyze() calls are timed by the disasm_*_us steps above.
  const auto all = fixtures();
  ASSERT_FALSE(all.empty());
  const elf::ElfFile elf(all.front().second);
  const core::FunctionDetector det(elf);
  const char* const steps[] = {"detect_callconv_us", "detect_pointer_us",
                               "detect_data_refs_us", "detect_alg1_us"};
  std::map<std::string, std::uint64_t> samples;
  for (const char* step : steps) {
    samples[step] = obs::Registry::global().histogram(step).count();
  }
  (void)det.run(core::DetectorOptions{});
  for (const char* step : steps) {
    EXPECT_EQ(obs::Registry::global().histogram(step).count() - samples[step],
              1u)
        << step;
  }
}

// --- Flow steps ---------------------------------------------------------------

/// Decodes every slot of \p code and checks each published step against
/// a fresh decode of its bytes and the ElfFile queries it stands for.
void expect_steps_match(const CodeView& code, const std::string& what) {
  SCOPED_TRACE(what);
  const std::uint64_t checked = test::expect_steps_match_fresh_decode(code);
  EXPECT_EQ(checked, code.decoded_steps());
}

TEST(CodeViewSteps, StepMatchesFreshDecodeAndElf) {
  for (const auto& [path, bytes] : fixtures()) {
    const elf::ElfFile elf(bytes);
    const CodeView code(elf);
    expect_steps_match(code, path);
  }
  for (const eval::Corpus& corpus : {eval::Corpus::self_built(smoke()),
                                     eval::Corpus::wild(smoke())}) {
    for (const eval::CorpusEntry& entry : corpus.entries()) {
      expect_steps_match(entry.detector().code(), entry.bin.name);
    }
  }
}

// --- Work bound -------------------------------------------------------------

/// f_0 .. f_{n-1} in ascending address order, f_i calls f_{i+1}; f_{n-1}
/// returns unless it calls exit. The entry-ordered sweep learns one more
/// returning function per sweep (n sweeps over n functions); the worklist
/// evaluates each function a bounded number of times.
std::uint64_t chain_noreturn_visits(int n, std::size_t* noreturn_count) {
  Assembler a(kTextAddr);
  std::vector<Label> f;
  for (int i = 0; i <= n; ++i) {
    f.push_back(a.label());
  }
  Label skip = a.label();
  for (int i = 0; i + 1 < n; ++i) {
    a.bind(f[i]);
    a.call(f[i + 1]);
    a.ret();
  }
  a.bind(f[n - 1]);
  a.test_rr(Reg::kRdi, Reg::kRdi);
  a.jcc(Cond::kE, skip);
  a.call(f[n]);
  a.bind(skip);
  a.ret();
  a.bind(f[n]);  // exit
  a.hlt();
  const elf::ElfFile elf = MiniBinary(a).build();
  CodeView code(elf);
  const Result r = explore(code, {kTextAddr}, {});
  EXPECT_EQ(r.functions.size(), static_cast<std::size_t>(n) + 1);
  const std::uint64_t before = counter("disasm_noreturn_visits_total");
  *noreturn_count = find_noreturn_functions(code, r, {}).size();
  return counter("disasm_noreturn_visits_total") - before;
}

TEST(NoReturnWorklist, ReverseOrderedCallChainIsLinear) {
  std::size_t nr1 = 0;
  std::size_t nr2 = 0;
  const std::uint64_t v1 = chain_noreturn_visits(1000, &nr1);
  const std::uint64_t v2 = chain_noreturn_visits(2000, &nr2);
  EXPECT_EQ(nr1, 1u);  // only exit
  EXPECT_EQ(nr2, 1u);
  // ~2 instructions per function, each visited a bounded number of times;
  // the sweep would visit ~n^2 = 4,000,000 at n = 2000.
  EXPECT_LE(v2, 4u * 2000u);
  EXPECT_LE(v2, 2 * v1 + 16);
}

// --- Dense state building blocks ----------------------------------------------

TEST(DenseState, AddrSetIsExactInsideAndOutsideCode) {
  Assembler a(kTextAddr);
  a.nop(64);
  a.ret();
  const elf::ElfFile elf = MiniBinary(a).build();
  CodeView code(elf);
  AddrSet s(code);
  EXPECT_TRUE(s.insert(kTextAddr + 3));
  EXPECT_FALSE(s.insert(kTextAddr + 3));
  EXPECT_TRUE(s.insert(0x10));          // no slot: spill set
  EXPECT_TRUE(s.insert(kTextAddr + 64));
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.count(kTextAddr + 3), 1u);
  EXPECT_EQ(s.count(kTextAddr + 4), 0u);
  EXPECT_EQ(s.count(0x10), 1u);
  s.erase(kTextAddr + 3);
  s.erase(kTextAddr + 5);  // absent: no-op
  EXPECT_EQ(s.size(), 2u);
  std::vector<std::uint64_t> order;
  s.for_each([&](std::uint64_t x) { order.push_back(x); });
  EXPECT_EQ(order, (std::vector<std::uint64_t>{kTextAddr + 64, 0x10}));
}

TEST(DenseState, ClearSortedEmptiesTheSetAndSortsItsMembers) {
  // Two adjacent code sections: a dense sweep crosses their boundary.
  elf::ElfBuilder b;
  b.add_section(".init", elf::kShtProgbits,
                elf::kShfAlloc | elf::kShfExecinstr, kTextAddr,
                std::vector<std::uint8_t>(64, 0x90), 16);
  b.add_section(".text", elf::kShtProgbits,
                elf::kShfAlloc | elf::kShfExecinstr, kTextAddr + 64,
                std::vector<std::uint8_t>(1 << 16, 0x90), 16);
  const elf::ElfFile elf(b.build());
  CodeView code(elf);
  AddrSet s(code);
  const std::vector<std::vector<std::uint64_t>> cases = {
      {kTextAddr + 70, kTextAddr + 3, kTextAddr + 63, kTextAddr + 64},  // dense
      {kTextAddr + 60000, kTextAddr + 1, kTextAddr + 30000},  // sparse
      {kTextAddr + 5},
      {}};
  for (std::vector<std::uint64_t> members : cases) {
    for (const std::uint64_t m : members) {
      s.insert(m);
    }
    std::vector<std::uint64_t> want = members;
    std::sort(want.begin(), want.end());
    s.clear_sorted(members);
    EXPECT_EQ(members, want);
    EXPECT_TRUE(s.empty());
    std::size_t left = 0;
    s.for_each([&](std::uint64_t) { ++left; });
    EXPECT_EQ(left, 0u);
  }
}

TEST(DenseState, InsnWindowKeepsTheLast32OldestFirst) {
  constexpr std::uint32_t kPushed = 40;  // record indices 0 .. 39
  InsnWindow w;
  for (std::uint32_t i = 0; i < kPushed; ++i) {
    w.push(i);
    ASSERT_EQ(w.back(), i);
  }
  ASSERT_EQ(w.size(), InsnWindow::kCapacity);
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_EQ(w[i], 8 + i);
  }
  const InsnWindow copy = w;  // a fork of the path shares nothing
  w.push(0);
  EXPECT_EQ(copy.back(), 39u);
}

}  // namespace
}  // namespace fetch::disasm
