#pragma once

/// \file trajectory.hpp
/// The cross-commit perf trajectory (schema "fetch-exp-trajectory-v1",
/// checked in at the repo root as BENCH_trajectory.json). Every
/// `exp_run` invocation APPENDS one entry — it never rewrites history —
/// so the file accumulates a per-metric series across commits:
///
///   {
///     "schema": "fetch-exp-trajectory-v1",
///     "entries": [
///       {
///         "commit": "<sha or 'local'>",
///         "spec": "smoke",
///         "spec_hash": "<16 hex digits>",
///         "runs": [
///           {"id": "hotpath.smoke.j2", "bench": "bench_micro",
///            "scale": "smoke", "jobs": 2,
///            "results": [ ...fetch-bench-v1 rows verbatim... ]},
///           ...
///         ]
///       }, ...
///     ]
///   }
///
/// Entries are keyed by (commit, spec_hash): appending the same pair
/// again is allowed (re-runs happen) and lands as a later entry, so the
/// newest measurement for a key is always the last one. Only the
/// benches' `results` rows are copied — the free-form `derived` blocks
/// are load-shape detail that belongs in the per-bench artifacts, not
/// in the long-lived series. The document structure is deterministic;
/// the metric *values* are the only timing-dependent bytes.

#include <optional>
#include <string>

#include "util/json.hpp"

namespace fetch::exp {

/// Loads \p path, or returns a fresh empty trajectory document when the
/// file does not exist. A present-but-invalid file is an error (never
/// silently clobber history). *error is filled on failure.
[[nodiscard]] std::optional<util::json::Value> load_or_init_trajectory(
    const std::string& path, std::string* error);

/// Builds one entry shell (runs to be appended by the caller).
[[nodiscard]] util::json::Value make_trajectory_entry(
    const std::string& commit, const std::string& spec_name,
    const std::string& spec_hash);

/// Appends \p entry to the document's "entries" array.
void append_trajectory_entry(util::json::Value* doc,
                             util::json::Value entry);

/// Writes the document to \p path (atomic enough for our purposes:
/// truncate + full write + flush check). False + *error on failure.
[[nodiscard]] bool write_trajectory(const std::string& path,
                                    const util::json::Value& doc,
                                    std::string* error);

}  // namespace fetch::exp
