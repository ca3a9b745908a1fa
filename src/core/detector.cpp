#include "core/detector.hpp"

#include <algorithm>

#include "analysis/callconv.hpp"
#include "analysis/pointer_scan.hpp"
#include "core/pointer_detector.hpp"
#include "core/tail_call_merger.hpp"
#include "obs/metrics.hpp"

namespace fetch::core {

namespace {

/// The histogram in the global registry that times one detector step.
obs::Histogram* step_histogram(const char* name) {
  return &obs::Registry::global().histogram(name);
}

}  // namespace

const char* provenance_name(Provenance p) {
  switch (p) {
    case Provenance::kFde:
      return "fde";
    case Provenance::kEntryPoint:
      return "entry";
    case Provenance::kCallTarget:
      return "call-target";
    case Provenance::kPointer:
      return "pointer";
    case Provenance::kTailCall:
      return "tail-call";
  }
  return "?";
}

FunctionDetector::FunctionDetector(const elf::ElfFile& elf)
    : elf_(elf), code_(elf), eh_(eh::EhFrame::from_elf(elf)) {}

DetectionResult FunctionDetector::run(const DetectorOptions& options,
                                      obs::Trace* trace) const {
  DetectionResult out;

  // --- Seeds ------------------------------------------------------------------
  std::vector<std::uint64_t> seeds;
  if (eh_) {
    for (const std::uint64_t pc : eh_->pc_begins()) {
      if (code_.is_code(pc)) {
        out.fde_starts.insert(pc);
        seeds.push_back(pc);
      }
    }
  }
  if (options.use_entry_point && code_.is_code(elf_.entry())) {
    seeds.push_back(elf_.entry());
  }
  std::sort(seeds.begin(), seeds.end());
  seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());

  // --- §V-B: drop FDE starts that violate the calling convention ------------
  // (developer-mislabeled CFI, Figure 6b). Only done when error fixing is
  // enabled; the raw-FDE studies keep them.
  if (options.fix_fde_errors) {
    obs::Span span(trace, "detect.callconv",
                   step_histogram("detect_callconv_us"));
    std::vector<std::uint64_t> kept;
    kept.reserve(seeds.size());
    for (const std::uint64_t s : seeds) {
      if (out.fde_starts.count(s) != 0 &&
          !analysis::meets_calling_convention(code_, s)) {
        out.invalid_fde_starts.insert(s);
      } else {
        kept.push_back(s);
      }
    }
    seeds = std::move(kept);
  }

  // --- Safe recursive disassembly --------------------------------------------
  // The first pass' function bodies stay cached so the post-pointer pass
  // rebuilds only the functions whose start/no-return answers changed.
  disasm::BodyCache bodies;
  disasm::Result state;
  if (options.recursive) {
    obs::Span span(trace, "detect.analyze");
    state = disasm::analyze(code_, seeds, options.disasm, &bodies);
  } else {
    // FDE-only mode: starts are just the seeds; still record them in the
    // disasm state so downstream stages have a uniform view.
    for (const std::uint64_t s : seeds) {
      state.starts.insert(s);
    }
  }

  // --- Function-pointer detection (§IV-E) ------------------------------------
  if (options.pointer_detection && options.recursive) {
    obs::Span pointer_span(trace, "detect.pointer",
                           step_histogram("detect_pointer_us"));
    const PointerDetectionResult pd =
        detect_pointer_functions(code_, state, options.disasm);
    pointer_span.finish();
    out.pointer_starts = pd.accepted;
    if (!pd.accepted.empty()) {
      // Rebuild per-function structure with the enlarged start set:
      // identical to a fresh analyze(all), reusing the unchanged bodies.
      obs::Span span(trace, "detect.reanalyze");
      std::vector<std::uint64_t> all(state.starts.begin(), state.starts.end());
      state = disasm::analyze(code_, all, options.disasm, &bodies);
    }
  }

  // --- Algorithm 1 (§V-B) -----------------------------------------------------
  if (options.fix_fde_errors && options.recursive && eh_) {
    obs::Span refs_span(trace, "detect.data_refs",
                        step_histogram("detect_data_refs_us"));
    const std::set<std::uint64_t> data_refs =
        analysis::scan_data_pointers(elf_, state);
    refs_span.finish();
    obs::Span alg1_span(trace, "detect.alg1",
                        step_histogram("detect_alg1_us"));
    const MergeOutcome mo = merge_noncontiguous_functions(
        code_, state, *eh_, data_refs, out.fde_starts);
    alg1_span.finish();
    for (const auto& [part, parent] : mo.merged) {
      out.merged_parts.emplace(part, parent);
    }
    out.tail_targets = mo.tail_targets;
    out.skipped_incomplete_cfi = mo.skipped_incomplete;
  }

  // --- Final provenance-tagged set -------------------------------------------
  for (const auto& [entry, fn] : state.functions) {
    out.extents.emplace(
        entry, FunctionExtent{entry, fn->max_end, fn->insn_addrs.size()});
  }
  for (const std::uint64_t s : state.starts) {
    Provenance prov = Provenance::kCallTarget;
    if (out.fde_starts.count(s) != 0) {
      prov = Provenance::kFde;
    } else if (out.pointer_starts.count(s) != 0) {
      prov = Provenance::kPointer;
    } else if (out.tail_targets.count(s) != 0) {
      prov = Provenance::kTailCall;
    } else if (s == elf_.entry()) {
      prov = Provenance::kEntryPoint;
    }
    out.functions.emplace(s, prov);
  }
  return out;
}

}  // namespace fetch::core
