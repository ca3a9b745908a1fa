#include "service/client.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "util/framing.hpp"
#include "util/rng.hpp"

namespace fetch::service {

std::optional<ServiceClient> ServiceClient::connect(
    std::string socket_path, std::string* error,
    const ClientOptions& options) {
  if (socket_path.empty()) {
    socket_path = default_socket_path();
  }
  // Jittered exponential backoff between connect attempts: a daemon
  // restarting under load sees its waiting callers return spread out
  // instead of as a synchronized thundering herd.
  Rng rng(static_cast<std::uint64_t>(::getpid()) * 0x9e3779b97f4a7c15u ^
                static_cast<std::uint64_t>(
                    std::chrono::steady_clock::now().time_since_epoch()
                        .count()));
  constexpr std::uint64_t kBackoffInitialMs = 50;  // doubles per retry
  constexpr std::uint64_t kBackoffCapMs = 2'000;
  std::uint64_t backoff_ms = kBackoffInitialMs;
  for (std::size_t attempt = 0;; ++attempt) {
    auto fd = util::unix_connect(socket_path, error);
    if (fd) {
      if (options.timeout_ms != 0) {
        // Best-effort: a failed setsockopt degrades to the old
        // wait-forever behavior rather than failing the request.
        (void)util::set_recv_timeout(fd->get(), options.timeout_ms);
      }
      return ServiceClient(std::move(socket_path), std::move(*fd));
    }
    if (attempt >= options.retries) {
      return std::nullopt;
    }
    const std::uint64_t jittered = backoff_ms / 2 + rng.below(backoff_ms);
    std::this_thread::sleep_for(std::chrono::milliseconds(jittered));
    backoff_ms = std::min<std::uint64_t>(backoff_ms * 2, kBackoffCapMs);
  }
}

bool ServiceClient::exchange(const Request& request, std::string* error) {
  last_error_code_.clear();
  if (!util::write_frame(fd_.get(), request_json(request).dump_compact(),
                         error)) {
    return false;
  }
  const util::FrameStatus status = util::read_frame(fd_.get(), &reply_, error);
  if (status == util::FrameStatus::kEof) {
    *error = "server closed the connection";
    return false;
  }
  return status != util::FrameStatus::kError;
}

std::optional<util::json::Value> ServiceClient::request(
    const Request& request, std::string* error) {
  if (!exchange(request, error)) {
    return std::nullopt;
  }
  auto response = util::json::Value::parse(reply_);
  if (!response) {
    *error = "server sent malformed JSON";
    return std::nullopt;
  }
  if (!response_ok(*response, error)) {
    last_error_code_ = response_error_code(*response);
    return std::nullopt;
  }
  return response;
}

bool ServiceClient::ping(std::string* error) {
  return request({Op::kPing, {}, {}}, error).has_value();
}

std::optional<QueryResult> ServiceClient::query(const std::string& path,
                                                std::string* error,
                                                const std::string& trace) {
  if (!exchange({Op::kQuery, path, trace}, error)) {
    return std::nullopt;
  }
  QueryReply reply = parse_query_reply(reply_, error);
  last_error_code_ = std::move(reply.error_code);
  return std::move(reply.result);
}

std::optional<util::json::Value> ServiceClient::shutdown_server(
    std::string* error) {
  auto response = request({Op::kShutdown, {}, {}}, error);
  if (!response) {
    return std::nullopt;
  }
  const util::json::Value* stats = response->get("stats");
  return stats == nullptr ? util::json::Value::object() : *stats;
}

std::optional<util::json::Value> ServiceClient::stats(std::string* error) {
  auto response = request({Op::kStats, {}, {}}, error);
  if (!response) {
    return std::nullopt;
  }
  const util::json::Value* stats = response->get("stats");
  if (stats == nullptr) {
    *error = "stats response has no stats";
    return std::nullopt;
  }
  return *stats;
}

std::optional<util::json::Value> ServiceClient::metrics(std::string* error) {
  auto response = request({Op::kMetrics, {}, {}}, error);
  if (!response) {
    return std::nullopt;
  }
  const util::json::Value* metrics = response->get("metrics");
  if (metrics == nullptr) {
    *error = "metrics response has no metrics";
    return std::nullopt;
  }
  return *metrics;
}

}  // namespace fetch::service
