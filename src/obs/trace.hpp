#pragma once

/// \file trace.hpp
/// Per-request tracing for the analysis pipeline. A Trace carries the
/// request's id (minted by the daemon, or supplied by the client and
/// echoed back in the fetch-service-v1 reply) and the per-stage timings
/// a query accumulated: elf_parse → truth → detector_build → detect →
/// score. Span is the RAII recorder — construct at stage entry, the
/// destructor records the elapsed microseconds into the Trace and/or a
/// metrics Histogram. Both targets are optional, so instrumented code
/// pays two steady_clock reads per stage at most and zero when neither
/// sink is attached.
///
/// A Trace is owned by one request and is NOT thread-safe; the service
/// worker that runs the analysis is its only writer.

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "util/json.hpp"

namespace fetch::obs {

class Trace {
 public:
  struct Stage {
    std::string name;
    std::uint64_t us = 0;
  };

  Trace() = default;
  explicit Trace(std::string id) : id_(std::move(id)) {}

  [[nodiscard]] const std::string& id() const { return id_; }
  void set_id(std::string id) { id_ = std::move(id); }

  void record(std::string stage, std::uint64_t us) {
    stages_.push_back(Stage{std::move(stage), us});
  }

  [[nodiscard]] const std::vector<Stage>& stages() const { return stages_; }

  /// [{"stage":"elf_parse","us":N}, ...] — the "stages" array of a
  /// fetch-service-v1 query reply.
  [[nodiscard]] util::json::Value stages_json() const;

 private:
  std::string id_;
  std::vector<Stage> stages_;
};

/// RAII stage timer. Either sink may be null; with both null the clock
/// is never read. finish() records early (idempotent), the destructor
/// records otherwise.
class Span {
 public:
  Span(Trace* trace, const char* stage, Histogram* histogram = nullptr)
      : trace_(trace), stage_(stage), histogram_(histogram) {
    if (trace_ != nullptr || histogram_ != nullptr) {
      start_ = std::chrono::steady_clock::now();
    }
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  ~Span() { finish(); }

  /// Returns the microseconds recorded, so a caller that also needs the
  /// duration reads no second clock: 0 when neither sink is attached,
  /// the same value on every call after the first.
  std::uint64_t finish() {
    if (done_ || (trace_ == nullptr && histogram_ == nullptr)) {
      done_ = true;
      return us_;
    }
    done_ = true;
    us_ = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
    if (trace_ != nullptr) {
      trace_->record(stage_, us_);
    }
    if (histogram_ != nullptr) {
      histogram_->record_us(us_);
    }
    return us_;
  }

 private:
  Trace* trace_;
  const char* stage_;
  Histogram* histogram_;
  std::chrono::steady_clock::time_point start_{};
  std::uint64_t us_ = 0;
  bool done_ = false;
};

/// Mints a 16-hex-digit trace id: unique per process (counter), distinct
/// across processes (pid + monotonic clock folded through FNV-1a).
[[nodiscard]] std::string mint_trace_id();

}  // namespace fetch::obs
