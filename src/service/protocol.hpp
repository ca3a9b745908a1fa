#pragma once

/// \file protocol.hpp
/// The `fetch-service-v1` wire protocol shared by the analysis daemon
/// (`fetch-cli serve`) and its clients (`fetch-cli query|shutdown`,
/// bench_service_throughput). Messages are JSON documents (util/json.hpp)
/// carried in length-prefixed frames (util/framing.hpp) over a Unix-
/// domain stream socket (util/socket.hpp).
///
/// Requests:
///   {"schema":"fetch-service-v1","op":"ping"}
///   {"schema":"fetch-service-v1","op":"query","path":"/abs/elf"}
///   {"schema":"fetch-service-v1","op":"query","path":"...","trace":"id"}
///   {"schema":"fetch-service-v1","op":"stats"}
///   {"schema":"fetch-service-v1","op":"metrics"}
///   {"schema":"fetch-service-v1","op":"shutdown"}
///
/// Responses always carry "schema" and "status" ("ok"/"error"); error
/// responses add "error". Query responses add "cache" ("hit", "miss", or
/// "joined" for a request that waited on another client's in-flight
/// analysis of the same content), "result" (the serialized
/// eval::FileAnalysis; its "content_hash" member is the cache key, the
/// XXH64 of the file's bytes as "0x" + 16 hex digits, and its "path" is
/// always the path this request named), "trace" (the request's trace id
/// — echoed when the client supplied one, minted by the daemon
/// otherwise), and "stages" (per-stage microsecond timings for a miss;
/// empty for hits/joins). Stats and shutdown responses add "stats"
/// (cache and robustness counters, stats_view below). Metrics responses
/// add "metrics" (a fetch-metrics-v1 document, src/obs/metrics.hpp).
/// Both sides write every frame as compact JSON (Value::dump_compact, no
/// whitespace outside strings); readers accept any whitespace.
/// See DESIGN.md, "Analysis service" and "Observability" for the full
/// schemas.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "eval/session.hpp"
#include "obs/metrics.hpp"
#include "util/json.hpp"

namespace fetch::service {

inline constexpr const char* kSchema = "fetch-service-v1";

/// Machine-readable error code carried in the "code" member of error
/// responses that clients must distinguish from generic failures:
/// "overloaded" means the daemon is healthy but shedding load (retry
/// later), which callers must not confuse with "unreachable".
inline constexpr const char* kErrOverloaded = "overloaded";

enum class Op : std::uint8_t { kPing, kQuery, kStats, kMetrics, kShutdown };

[[nodiscard]] const char* op_name(Op op);

struct Request {
  Op op = Op::kPing;
  std::string path;   ///< query only: the binary to analyze
  std::string trace;  ///< query only, optional: client-chosen trace id
};

/// The socket path used when `--socket` is not given: the FETCH_SOCKET
/// environment variable, else /tmp/fetch-serve.<uid>.sock (per-user so
/// two users on one machine cannot collide).
[[nodiscard]] std::string default_socket_path();

// --- Requests ---------------------------------------------------------------

[[nodiscard]] util::json::Value request_json(const Request& request);

/// Strict parse: wrong schema, unknown op, or a query without a path all
/// fail with a human-readable *error (the server echoes it back).
[[nodiscard]] std::optional<Request> parse_request(const std::string& payload,
                                                   std::string* error);

// --- Responses --------------------------------------------------------------

[[nodiscard]] util::json::Value ok_response(Op op);
[[nodiscard]] util::json::Value error_response(const std::string& message);

/// Error response with a machine-readable "code" member (e.g.
/// kErrOverloaded) in addition to the human-readable message.
[[nodiscard]] util::json::Value error_response(const std::string& message,
                                               const std::string& code);

/// Serializes one analysis (the value the result cache stores). Counts
/// are JSON numbers; addresses travel as hex strings so 64-bit values
/// cannot lose precision in a double: function addresses as "0x" +
/// minimal hex ("0x26000"), content_hash as "0x" + 16 digits. Readers
/// take 1 to 16 digits for either.
[[nodiscard]] util::json::Value analysis_json(const eval::FileAnalysis& fa);

/// The cached form of one analysis: analysis_json(fa), dumped compact
/// as it travels inside a query reply's "result" member, minus the
/// opening brace and the "path" member. query_frame writes those back
/// with the requested path, so one entry answers for the same bytes
/// under any name.
[[nodiscard]] std::string encode_result_body(const eval::FileAnalysis& fa);

/// Wire bytes (4-byte little-endian header + compact payload) of
/// \p response, or of an in-band error response when the payload
/// exceeds util::kMaxFrameBytes.
[[nodiscard]] std::string encode_frame(const util::json::Value& response);

/// Wire bytes of a query reply, byte-identical to encode_frame of
/// ok_response(Op::kQuery) with "cache", "result" (path + \p body),
/// "trace" and "stages" set in that order — assembled by appending into
/// one reservation, so a hit's cost does not grow with a tree of the
/// result. The frame cap applies to the assembled size.
[[nodiscard]] std::string query_frame(std::string_view cache,
                                      const std::string& path,
                                      std::string_view body,
                                      const std::string& trace,
                                      const util::json::Value& stages);

/// Inverse of analysis_json, read from its text in one pass with
/// util::json::Reader. nullopt + *error on a malformed document.
[[nodiscard]] std::optional<eval::FileAnalysis> analysis_from_json(
    std::string_view text, std::string* error);

/// One query's parsed outcome.
struct QueryResult {
  eval::FileAnalysis analysis;
  std::string cache;  ///< "hit", "miss", "joined", or "none" (unreadable)
  std::string trace;  ///< trace id echoed (or minted) by the daemon
  /// Per-stage timings, [{"stage":...,"us":...}, ...]; empty array for
  /// cache hits/joins (only a miss runs the pipeline).
  util::json::Value stages = util::json::Value::array();
};

/// A query reply as parse_query_reply reads it.
struct QueryReply {
  std::optional<QueryResult> result;  ///< nullopt when the reply is unusable
  std::string error_code;  ///< response_error_code of a failed reply
};

/// Inverse of query_frame: decodes a whole query reply payload in one
/// pass, straight into the analysis; only "stages" becomes a tree. A
/// reply that is not JSON, has the wrong schema, reports an error or
/// carries no well-formed result leaves result empty and sets *error as
/// response_ok and analysis_from_json would. A repeated member counts
/// once, with its last value, as Value::set keeps it.
[[nodiscard]] QueryReply parse_query_reply(std::string_view payload,
                                           std::string* error);

/// The "stats" member of a stats or shutdown reply: a fixed set of
/// metrics from \p snapshot (a ServiceServer::metrics() snapshot) under
/// their stats names, in a fixed order — the cache counters first, then
/// the server's robustness counters nested in a "server" object.
[[nodiscard]] util::json::Value stats_view(const obs::Snapshot& snapshot);

/// True when \p response has schema fetch-service-v1 and status "ok";
/// otherwise fills *error from the response (or with a schema complaint).
[[nodiscard]] bool response_ok(const util::json::Value& response,
                               std::string* error);

/// The "code" member of an error response, or "" when absent. Lets
/// callers branch on kErrOverloaded without string-matching messages.
[[nodiscard]] std::string response_error_code(
    const util::json::Value& response);

}  // namespace fetch::service
