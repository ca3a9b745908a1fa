#include "eval/session.hpp"

#include "core/detector.hpp"
#include "ehframe/eh_frame_hdr.hpp"
#include "elf/elf_file.hpp"
#include "eval/truth_sidecar.hpp"
#include "obs/metrics.hpp"
#include "util/fs.hpp"
#include "util/hash.hpp"

namespace fetch::eval {

namespace {

/// Pipeline-stage metrics (global registry: sessions are shared across
/// threads and front ends; the aggregate per-stage latency is the
/// interesting signal). Resolved once, handles are stable.
struct SessionMetrics {
  obs::Counter& analyses;
  obs::Counter& errors;
  obs::Histogram& elf_parse_us;
  obs::Histogram& truth_us;
  obs::Histogram& detector_build_us;
  obs::Histogram& detect_us;
  obs::Histogram& score_us;

  static SessionMetrics& get() {
    obs::Registry& reg = obs::Registry::global();
    static SessionMetrics metrics{
        reg.counter("session_analyses_total"),
        reg.counter("session_errors_total"),
        reg.histogram("session_elf_parse_us"),
        reg.histogram("session_truth_us"),
        reg.histogram("session_detector_build_us"),
        reg.histogram("session_detect_us"),
        reg.histogram("session_score_us"),
    };
    return metrics;
  }
};

/// Resolves the ground truth a row is scored against. Every mode
/// degrades to source "none" rather than throwing: a missing sidecar or
/// damaged .eh_frame_hdr must not turn a perfectly analyzable binary
/// into an error row.
elf::FunctionTruth resolve_truth(const elf::ElfFile& elf,
                                 const std::string& label, TruthMode mode) {
  switch (mode) {
    case TruthMode::kAuto:
      return elf.function_truth();
    case TruthMode::kDynsym:
      return elf.function_truth(elf::TruthRequest::kDynsymOnly);
    case TruthMode::kEhFrame:
      return eh::truth_from_eh_frame_hdr(elf);
    case TruthMode::kSidecar: {
      if (auto truth = load_truth_sidecar(truth_sidecar_path(label))) {
        return *truth;
      }
      return {};
    }
  }
  return {};
}

}  // namespace

std::uint64_t AnalysisSession::content_hash(
    std::span<const std::uint8_t> bytes) {
  return util::xxh64(bytes);
}

FileAnalysis AnalysisSession::unreadable(const std::string& path) {
  FileAnalysis out;
  out.row.path = path;
  out.row.ok = false;
  // Same message ElfFile::load throws, so batch error rows read the
  // same whichever loader produced them.
  out.row.error = "ELF: cannot open " + path;
  return out;
}

FileAnalysis AnalysisSession::analyze_file(const std::string& path,
                                           Detail detail,
                                           obs::Trace* trace) const {
  std::vector<std::uint8_t> bytes;
  if (!util::read_file_bytes(path, &bytes)) {
    return unreadable(path);
  }
  return analyze_image({bytes.data(), bytes.size()}, path, detail, trace);
}

FileAnalysis AnalysisSession::analyze_image(
    std::span<const std::uint8_t> image, const std::string& label,
    Detail detail, obs::Trace* trace) const {
  SessionMetrics& metrics = SessionMetrics::get();
  FileAnalysis out;
  BatchRow& row = out.row;
  row.path = label;
  if (detail == Detail::kFull) {
    out.content_hash = content_hash(image);
  }
  try {
    obs::Span parse_span(trace, "elf_parse", &metrics.elf_parse_us);
    const elf::ElfFile elf(image);
    parse_span.finish();

    obs::Span truth_span(trace, "truth", &metrics.truth_us);
    const elf::FunctionTruth truth = resolve_truth(elf, label, truth_);
    truth_span.finish();

    obs::Span build_span(trace, "detector_build", &metrics.detector_build_us);
    const core::FunctionDetector detector(elf);
    build_span.finish();

    obs::Span detect_span(trace, "detect", &metrics.detect_us);
    const core::DetectionResult result = detector.run({}, trace);
    detect_span.finish();

    obs::Span score_span(trace, "score", &metrics.score_us);
    if (detail == Detail::kFull) {
      out.functions.reserve(result.functions.size());
      for (const auto& [addr, provenance] : result.functions) {
        out.functions.emplace_back(addr, core::provenance_name(provenance));
      }
    }
    out.fde_starts = result.fde_starts.size();
    out.pointer_starts = result.pointer_starts.size();
    out.merged_parts = result.merged_parts.size();
    out.invalid_fde_starts = result.invalid_fde_starts.size();

    // PLT stubs (.plt/.plt.got/.plt.sec) are linker-generated trampolines:
    // real function entries at runtime, but no symbol table lists them, so
    // scoring them against symtab truth would count every import as a
    // false positive. Exclude them from the comparison and record how
    // many were dropped.
    std::set<std::uint64_t> detected;
    for (const auto& [start, provenance] : result.functions) {
      const elf::Section* section = elf.section_at(start);
      if (section != nullptr && section->name.rfind(".plt", 0) == 0) {
        ++row.plt_excluded;
      } else {
        detected.insert(start);
      }
    }

    row.truth_source = truth.source;
    row.truth = truth.starts.size();
    row.detected = detected.size();
    row.zero_sized = truth.zero_sized;
    row.ifuncs = truth.ifuncs;
    row.aliases = truth.aliases;
    if (truth.usable()) {
      for (const std::uint64_t start : detected) {
        if (truth.starts.count(start) != 0) {
          ++row.tp;
        } else {
          ++row.fp;
        }
      }
      row.fn = row.truth - row.tp;
    }
    score_span.finish();
    row.ok = true;
  } catch (const std::exception& e) {
    // Per-file resilience contract: a malformed input is an error *row*,
    // never an aborted batch or a dead service worker (util/error.hpp
    // ParseError and anything else the pipeline throws land here).
    row.ok = false;
    row.error = e.what();
    out.functions.clear();
    metrics.errors.add();
  }
  metrics.analyses.add();
  return out;
}

}  // namespace fetch::eval
