#pragma once

/// \file spec.hpp
/// Declarative experiment matrix (schema "fetch-exp-v1"). A checked-in
/// spec under `bench/experiments/` names a set of *strategies* (which
/// fetch-bench-v1 producer to run, with optional fixed extra args and an
/// optional baseline file to gate against) and the axes to sweep:
///
///   {
///     "schema": "fetch-exp-v1",
///     "name": "smoke",
///     "strategies": [
///       {"name": "hotpath", "bench": "bench_micro",
///        "baseline": "bench_micro_smoke.json"},
///       ...
///     ],
///     "scales": ["smoke"],            // corpus population axis
///     "jobs": [2]                     // worker-thread axis
///   }
///
/// expand() is the whole point: it turns the spec into an *exact,
/// ordered* list of bench invocations — strategies × scales × jobs,
/// nested in exactly that order — so "what did the experiment run" is a
/// pure function of the checked-in file, pinned by a ctest. hash_hex()
/// fingerprints the spec content (FNV-1a over every field in canonical
/// form); the hash keys trajectory entries, and deliberately does NOT
/// depend on anything outside the file (runner parallelism, binary
/// paths, output directories). A key the schema does not know fails
/// parse(), so a stale spec that still sweeps a removed axis is an
/// error, not a smaller matrix.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace fetch::exp {

/// One strategy row of the spec: a bench binary plus fixed arguments.
struct Strategy {
  std::string name;               ///< axis label, used in invocation ids
  std::string bench;              ///< bench binary name (e.g. bench_micro)
  std::vector<std::string> args;  ///< fixed extra args, after the axis flags
  std::string baseline;  ///< baseline file under bench/baselines/, "" = none
};

/// One expanded cell of the matrix: everything needed to run one bench
/// and to name its output deterministically.
struct Invocation {
  std::string id;        ///< "<strategy>.<scale>.j<jobs>"
  std::string strategy;
  std::string bench;
  std::string scale;
  std::size_t jobs = 0;
  std::vector<std::string> extra_args;  ///< the strategy's fixed args
  std::string baseline;                 ///< inherited from the strategy

  /// The ordered bench argument list, minus binary path and output path
  /// (those are runner-supplied): `--scale S --jobs N <extra...>`.
  /// `--json <path>` is appended by the runner so the expansion stays a
  /// pure function of the spec.
  [[nodiscard]] std::vector<std::string> bench_args() const;

  /// One-line rendering for `exp_run --list` and the pinned expansion
  /// test: `<id>: <bench> <args...>`.
  [[nodiscard]] std::string render() const;
};

class ExpSpec {
 public:
  [[nodiscard]] static std::optional<ExpSpec> parse(
      const util::json::Value& doc, std::string* error);
  [[nodiscard]] static std::optional<ExpSpec> load(const std::string& path,
                                                   std::string* error);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::vector<Strategy>& strategies() const {
    return strategies_;
  }
  [[nodiscard]] const std::vector<std::string>& scales() const {
    return scales_;
  }
  [[nodiscard]] const std::vector<std::size_t>& jobs() const { return jobs_; }

  /// Deterministic full expansion (see file comment for the order).
  [[nodiscard]] std::vector<Invocation> expand() const;

  /// Content fingerprint over every field in canonical order.
  [[nodiscard]] std::uint64_t hash() const;
  /// hash() as a 16-hex-digit string.
  [[nodiscard]] std::string hash_hex() const;

 private:
  std::string name_;
  std::vector<Strategy> strategies_;
  std::vector<std::string> scales_;
  std::vector<std::size_t> jobs_;
};

}  // namespace fetch::exp
