#include "core/pointer_detector.hpp"

#include <deque>

#include "analysis/callconv.hpp"
#include "analysis/pointer_scan.hpp"
#include "disasm/walk.hpp"

namespace fetch::core {

namespace {

using x86::Kind;

/// Outcome of probing one candidate.
struct Probe {
  bool legitimate = false;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> lengths;  // addr,len
  std::set<std::uint64_t> constants;  // new pointer material
};

/// Dense probe-local state, shared by every probe of a run and cleared
/// through the probe's own instruction list afterwards.
struct ProbeScratch {
  explicit ProbeScratch(const disasm::CodeView& code)
      : starts(code), interior(code) {}
  disasm::AddrSet starts;    // probed instruction starts
  disasm::AddrSet interior;  // bytes strictly inside a probed instruction

  void clear(const Probe& probe) {
    for (const auto& [addr, len] : probe.lengths) {
      starts.erase(addr);
      for (std::uint64_t b = addr + 1; b < addr + len; ++b) {
        interior.erase(b);
      }
    }
  }
};

/// Conservative recursive disassembly from \p start with the §IV-E error
/// checks. Stops at known function starts; does not follow calls.
Probe probe_pointer(const disasm::CodeView& code, const disasm::Result& state,
                    std::uint64_t start, ProbeScratch& s) {
  Probe probe;
  constexpr std::size_t kMaxProbeInsns = 1u << 14;

  // A transfer target is erroneous when it lands strictly inside a
  // previously decoded instruction (checks ii and iii): bit tests against
  // the disassembly's coverage and the probe's own dense state.
  auto into_middle = [&](std::uint64_t addr) {
    return (state.covered.count(addr) != 0 &&
            state.insn_starts.count(addr) == 0) ||
           (s.starts.count(addr) == 0 && s.interior.count(addr) != 0);
  };

  // An address queued twice is claimed by its older item only: no dedup.
  disasm::WorkQueue work;
  work.push(start);
  bool rejected = false;
  auto claim = [&](std::uint64_t addr) -> disasm::CodeView::Rec {
    if (s.starts.count(addr) != 0 || state.insn_starts.count(addr) != 0) {
      return {};  // rejoined known-good code
    }
    const disasm::CodeView::Rec rec =
        probe.lengths.size() < kMaxProbeInsns  // runaway
            ? code.rec_at(addr)                // error (i): invalid
            : disasm::CodeView::Rec{};
    if (rec.step == nullptr || into_middle(addr)) {  // error (ii)
      rejected = true;
      work.clear();
      return {};
    }
    const std::uint8_t length = rec.step->length;
    s.starts.insert(addr);
    for (std::uint64_t b = addr + 1; b < addr + length; ++b) {
      s.interior.insert(b);
    }
    probe.lengths.emplace_back(addr, length);
    return rec;
  };
  auto visit = [&](std::uint64_t, const disasm::Step& step,
                   const disasm::InsnWindow& window) {
    using disasm::Step;
    if (step.has(Step::kMemIsCode | Step::kImmIsCode)) {
      const disasm::CodeView::Operands ops =
          code.operands(window.back(), step);
      if (step.has(Step::kMemIsCode)) {
        probe.constants.insert(ops.mem);
      }
      if (step.has(Step::kImmIsCode)) {
        probe.constants.insert(ops.imm);
      }
    }
    if (step.kind == Kind::kCallDirect || step.kind == Kind::kJmpDirect ||
        step.kind == Kind::kCondJmp) {
      const std::uint64_t t = step.target;
      if (!step.has(Step::kTargetIsCode) || into_middle(t)) {  // error (iii)
        return disasm::Flow::kDone;
      }
      // Follow intra-probe flow, but stop at detected functions; probing
      // assumes callees return.
      if (step.kind != Kind::kCallDirect && state.starts.count(t) == 0 &&
          s.starts.count(t) == 0 && state.insn_starts.count(t) == 0) {
        work.push(t);
      }
    }
    const disasm::Flow flow = disasm::fall_of(step);
    if (flow == disasm::Flow::kFall && !step.has(Step::kNextIsCode)) {
      return disasm::Flow::kDone;  // ran off the end of the section
    }
    return flow;
  };
  // Every kDone is a rejection: probing never succeeds early.
  rejected = disasm::walk(work, claim, visit) || rejected;

  // Error (iv): calling-convention validation.
  probe.legitimate =
      !rejected && analysis::meets_calling_convention(code, start);
  return probe;
}

}  // namespace

PointerDetectionResult detect_pointer_functions(
    const disasm::CodeView& code, disasm::Result& state,
    const disasm::Options& options,
    const PointerDetectionOptions& scan_options) {
  PointerDetectionResult result;
  ProbeScratch scratch(code);

  std::set<std::uint64_t> seen;
  std::deque<std::uint64_t> queue;
  for (const std::uint64_t p : analysis::collect_pointer_candidates(
           code.elf(), state, scan_options.aligned_only)) {
    if (seen.insert(p).second) {
      queue.push_back(p);
    }
  }

  while (!queue.empty()) {
    const std::uint64_t p = queue.front();
    queue.pop_front();
    if (state.covered.count(p) != 0 || state.starts.count(p) != 0) {
      continue;  // already known code: not a new start
    }
    ++result.probed;
    Probe probe = probe_pointer(code, state, p, scratch);
    scratch.clear(probe);
    if (!probe.legitimate) {
      continue;
    }
    result.accepted.insert(p);
    state.starts.insert(p);
    for (const auto& [addr, len] : probe.lengths) {
      state.covered.insert_range(addr, addr + len);
      state.insn_starts.insert(addr);
    }
    // New constants from the accepted code join the queue (§IV-E: "we will
    // update the pointer collection based on the results of recursive
    // disassembly from that pointer").
    for (const std::uint64_t c : probe.constants) {
      if (seen.insert(c).second) {
        queue.push_back(c);
      }
    }
    (void)options;
  }
  return result;
}

}  // namespace fetch::core
