#pragma once

/// \file client.hpp
/// `fetch-service-v1` client used by `fetch-cli query|shutdown` and the
/// service bench. One client owns one connection and issues requests
/// sequentially; concurrency is achieved by opening more clients (the
/// server multiplexes connections onto its worker pool).

#include <cstdint>
#include <optional>
#include <string>

#include "eval/session.hpp"
#include "service/protocol.hpp"
#include "util/socket.hpp"

namespace fetch::service {

/// Client-side robustness knobs. The defaults match the old behavior
/// (one connect attempt, wait forever); `fetch-cli query|shutdown`
/// exposes them as --retries / --timeout.
struct ClientOptions {
  /// Extra connect attempts after the first fails with "connection
  /// refused"-class errors, paced by jittered exponential backoff.
  std::size_t retries = 0;
  /// Response-read deadline per request, enforced with SO_RCVTIMEO so a
  /// wedged daemon cannot hang the caller. 0 = no deadline.
  std::uint64_t timeout_ms = 0;
};

class ServiceClient {
 public:
  /// Connects to a serving daemon. nullopt + *error when nothing listens
  /// on \p socket_path (empty = default_socket_path()) after
  /// options.retries + 1 attempts.
  [[nodiscard]] static std::optional<ServiceClient> connect(
      std::string socket_path, std::string* error,
      const ClientOptions& options = {});

  /// Round-trips one raw request; nullopt + *error on transport failure
  /// or an error-status response.
  [[nodiscard]] std::optional<util::json::Value> request(
      const Request& request, std::string* error);

  [[nodiscard]] bool ping(std::string* error);

  /// Analyzes \p path (server-side, cache-aware). Transport/protocol
  /// failures return nullopt; a failed *analysis* is a QueryResult whose
  /// row has ok == false, exactly like the one-shot path. A non-empty
  /// \p trace travels with the request and is echoed in the reply;
  /// otherwise the daemon mints one.
  [[nodiscard]] std::optional<QueryResult> query(const std::string& path,
                                                 std::string* error,
                                                 const std::string& trace = {});

  /// Asks the daemon to stop; returns its final cache stats JSON.
  [[nodiscard]] std::optional<util::json::Value> shutdown_server(
      std::string* error);

  [[nodiscard]] std::optional<util::json::Value> stats(std::string* error);

  /// The daemon's fetch-metrics-v1 document (see src/obs/metrics.hpp).
  [[nodiscard]] std::optional<util::json::Value> metrics(std::string* error);

  [[nodiscard]] const std::string& socket_path() const {
    return socket_path_;
  }

  /// Machine-readable "code" of the last error-status response ("" when
  /// the last failure was transport-level, e.g. unreachable or timed
  /// out). kErrOverloaded here means the daemon is up but shedding load.
  [[nodiscard]] const std::string& last_error_code() const {
    return last_error_code_;
  }

 private:
  ServiceClient(std::string socket_path, util::Fd fd)
      : socket_path_(std::move(socket_path)), fd_(std::move(fd)) {}

  /// Sends \p request and reads the reply's payload into reply_; false +
  /// *error on a transport failure.
  [[nodiscard]] bool exchange(const Request& request, std::string* error);

  std::string socket_path_;
  util::Fd fd_;
  std::string last_error_code_;
  /// The last reply's payload. Reused by every exchange, so a warm hit
  /// neither allocates nor zero-fills its receive buffer; what a call
  /// returns is copied out of it, never a view into it.
  std::string reply_;
};

}  // namespace fetch::service
