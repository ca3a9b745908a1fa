#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "eval/session.hpp"
#include "obs/trace.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "synth/codegen.hpp"
#include "synth/corpus.hpp"
#include "util/framing.hpp"

namespace fetch {
namespace {

/// End-to-end coverage of the analysis service: protocol framing, cache
/// behavior (hit/miss/eviction), single-flight dedup under concurrent
/// clients, graceful shutdown with in-flight requests, and malformed
/// requests answered with error replies instead of crashes.

std::string unique_socket_path() {
  static std::atomic<int> counter{0};
  return "/tmp/fetch-svc-test-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

std::string write_sample_binary(const char* name, std::size_t project,
                                std::uint64_t seed) {
  const auto spec =
      synth::make_program(synth::projects()[project],
                          synth::profile_for("gcc", "O2"), seed);
  const synth::SynthBinary bin = synth::generate(spec);
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bin.image.data()),
            static_cast<std::streamsize>(bin.image.size()));
  return path;
}

/// A counter or gauge of a metrics snapshot, by name (gauges here are
/// never negative).
std::uint64_t metric(const obs::Snapshot& snapshot, const std::string& name) {
  if (const auto it = snapshot.counters().find(name);
      it != snapshot.counters().end()) {
    return it->second;
  }
  const auto gauge = snapshot.gauges().find(name);
  EXPECT_NE(gauge, snapshot.gauges().end()) << "no metric " << name;
  return gauge == snapshot.gauges().end()
             ? 0
             : static_cast<std::uint64_t>(gauge->second);
}

/// Polls \p predicate against the server's metric \p name until it
/// holds or \p deadline_ms passes.
template <typename Predicate>
bool metric_eventually(const service::ServiceServer& server,
                       const std::string& name, Predicate predicate,
                       int deadline_ms = 5000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(deadline_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (predicate(metric(server.metrics(), name))) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return predicate(metric(server.metrics(), name));
}

/// In-process daemon on a private socket; stops and joins on destruction.
class TestServer {
 public:
  explicit TestServer(service::ServerOptions options = {}) {
    if (options.socket_path.empty()) {
      options.socket_path = unique_socket_path();
    }
    if (options.workers == 0) {
      options.workers = 4;
    }
    server_ = std::make_unique<service::ServiceServer>(options);
    std::string error;
    started_ = server_->start(&error);
    EXPECT_TRUE(started_) << error;
    if (started_) {
      thread_ = std::thread([this] { server_->run(); });
    }
  }

  ~TestServer() {
    if (started_) {
      server_->stop();
      thread_.join();
    }
  }

  [[nodiscard]] service::ServiceServer& server() { return *server_; }
  [[nodiscard]] const std::string& socket() const {
    return server_->socket_path();
  }

  [[nodiscard]] service::ServiceClient connect() {
    std::string error;
    auto client = service::ServiceClient::connect(socket(), &error);
    EXPECT_TRUE(client.has_value()) << error;
    return std::move(*client);
  }

 private:
  std::unique_ptr<service::ServiceServer> server_;
  std::thread thread_;
  bool started_ = false;
};

// --- Framing ----------------------------------------------------------------

TEST(ServiceFraming, RoundTripsPayloadsOfEverySize) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  for (const std::size_t size :
       {std::size_t{0}, std::size_t{1}, std::size_t{4096},
        std::size_t{1u << 20}}) {
    std::string payload(size, 'x');
    for (std::size_t i = 0; i < size; ++i) {
      payload[i] = static_cast<char>('a' + i % 26);
    }
    // Write from a helper thread: payloads larger than the socket buffer
    // need a concurrent reader, exactly like the real client/server.
    std::thread writer([&] {
      std::string write_error;
      EXPECT_TRUE(util::write_frame(fds[0], payload, &write_error))
          << write_error;
    });
    std::string got;
    std::string error;
    EXPECT_EQ(util::read_frame(fds[1], &got, &error), util::FrameStatus::kOk)
        << error;
    writer.join();
    EXPECT_EQ(got, payload);
  }
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(ServiceFraming, DistinguishesCleanEofFromTornFrame) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::string error;
  // Clean hangup between frames → kEof.
  ::close(fds[0]);
  std::string got;
  EXPECT_EQ(util::read_frame(fds[1], &got, &error), util::FrameStatus::kEof);
  ::close(fds[1]);

  // Header promising more bytes than arrive → kError, not kEof.
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::uint8_t torn[] = {0x10, 0x00, 0x00, 0x00, 'h', 'i'};
  ASSERT_EQ(::send(fds[0], torn, sizeof(torn), 0),
            static_cast<ssize_t>(sizeof(torn)));
  ::close(fds[0]);
  EXPECT_EQ(util::read_frame(fds[1], &got, &error),
            util::FrameStatus::kError);
  ::close(fds[1]);
}

TEST(ServiceFraming, RejectsOversizeHeaderWithoutAllocating) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::uint8_t huge[] = {0xff, 0xff, 0xff, 0xff};  // ~4 GiB claim
  ASSERT_EQ(::send(fds[0], huge, sizeof(huge), 0), 4);
  std::string got;
  std::string error;
  EXPECT_EQ(util::read_frame(fds[1], &got, &error),
            util::FrameStatus::kError);
  EXPECT_NE(error.find("cap"), std::string::npos) << error;
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(ServiceFraming, AssemblerReassemblesByteAtATime) {
  util::FrameAssembler assembler;
  const std::string payload = "{\"op\":\"ping\"}";
  std::vector<std::uint8_t> wire;
  wire.reserve(payload.size() + 4);
  const auto len = static_cast<std::uint32_t>(payload.size());
  for (std::size_t k = 0; k < 4; ++k) {
    wire.push_back(static_cast<std::uint8_t>(len >> (8 * k)));
  }
  for (const char c : payload) {
    wire.push_back(static_cast<std::uint8_t>(c));
  }

  std::string error;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    ASSERT_TRUE(assembler.push({&wire[i], 1}, &error)) << error;
    // Mid-frame at every split point except the very end.
    EXPECT_EQ(assembler.mid_frame(), i + 1 != wire.size());
  }
  std::string got;
  ASSERT_TRUE(assembler.next(&got));
  EXPECT_EQ(got, payload);
  EXPECT_FALSE(assembler.next(&got));
  EXPECT_FALSE(assembler.mid_frame());
}

TEST(ServiceFraming, AssemblerSplitsCoalescedFramesIncludingEmpty) {
  util::FrameAssembler assembler;
  // Three frames in one chunk: "a", "", "bc".
  const std::vector<std::uint8_t> wire = {1, 0, 0, 0, 'a',  //
                                          0, 0, 0, 0,       //
                                          2, 0, 0, 0, 'b', 'c'};
  std::string error;
  ASSERT_TRUE(assembler.push({wire.data(), wire.size()}, &error)) << error;
  EXPECT_EQ(assembler.pending(), 3u);
  std::string got;
  ASSERT_TRUE(assembler.next(&got));
  EXPECT_EQ(got, "a");
  ASSERT_TRUE(assembler.next(&got));
  EXPECT_EQ(got, "");
  ASSERT_TRUE(assembler.next(&got));
  EXPECT_EQ(got, "bc");
}

TEST(ServiceFraming, AssemblerPoisonsOnOversizeHeaderAndStaysDead) {
  util::FrameAssembler assembler;
  const std::vector<std::uint8_t> huge = {0xff, 0xff, 0xff, 0xff};
  std::string error;
  EXPECT_FALSE(assembler.push({huge.data(), huge.size()}, &error));
  EXPECT_TRUE(assembler.poisoned());
  EXPECT_NE(error.find("cap"), std::string::npos) << error;
  // Further input is ignored, not reinterpreted as a fresh stream.
  const std::vector<std::uint8_t> valid = {1, 0, 0, 0, 'x'};
  error.clear();
  EXPECT_FALSE(assembler.push({valid.data(), valid.size()}, &error));
  EXPECT_TRUE(assembler.poisoned());
  std::string got;
  EXPECT_FALSE(assembler.next(&got));
}

// --- Query path and cache ---------------------------------------------------

TEST(Service, QueryMissThenHitReturnsIdenticalResults) {
  TestServer server;
  auto client = server.connect();
  const std::string path =
      write_sample_binary("svc_sample_a.bin", 0, 0xa11ce);

  std::string error;
  const auto miss = client.query(path, &error);
  ASSERT_TRUE(miss.has_value()) << error;
  EXPECT_EQ(miss->cache, "miss");
  ASSERT_TRUE(miss->analysis.row.ok) << miss->analysis.row.error;
  EXPECT_FALSE(miss->analysis.functions.empty());
  EXPECT_EQ(miss->analysis.row.truth_source, "symtab");

  const auto hit = client.query(path, &error);
  ASSERT_TRUE(hit.has_value()) << error;
  EXPECT_EQ(hit->cache, "hit");
  // Byte-identical detection results between the cold and cached paths.
  EXPECT_EQ(service::analysis_json(hit->analysis).dump(),
            service::analysis_json(miss->analysis).dump());

  const obs::Snapshot metrics = server.server().metrics();
  EXPECT_EQ(metric(metrics, "cache_misses_total"), 1u);
  EXPECT_EQ(metric(metrics, "cache_hits_total"), 1u);
  EXPECT_EQ(metric(metrics, "cache_entries"), 1u);
}

TEST(Service, CacheIsContentAddressedNotPathAddressed) {
  TestServer server;
  auto client = server.connect();
  const std::string path =
      write_sample_binary("svc_sample_b.bin", 1, 0xb0b);
  const std::string copy = ::testing::TempDir() + "/svc_sample_b_copy.bin";
  std::filesystem::copy_file(
      path, copy, std::filesystem::copy_options::overwrite_existing);

  std::string error;
  const auto first = client.query(path, &error);
  ASSERT_TRUE(first.has_value()) << error;
  EXPECT_EQ(first->cache, "miss");
  // Same bytes at a different path: a hit, not a second analysis.
  const auto second = client.query(copy, &error);
  ASSERT_TRUE(second.has_value()) << error;
  EXPECT_EQ(second->cache, "hit");
  EXPECT_EQ(second->analysis.content_hash, first->analysis.content_hash);
  // The shared entry still reports the path this query asked about, as a
  // one-shot run of the copy would.
  EXPECT_EQ(second->analysis.row.path, copy);
  EXPECT_EQ(first->analysis.row.path, path);
  EXPECT_EQ(metric(server.server().metrics(), "cache_misses_total"), 1u);
}

TEST(Service, EvictionIsCapacityBoundedAndDeterministic) {
  service::ServerOptions options;
  options.cache_capacity = 2;
  options.cache_shards = 1;  // single shard → exact global LRU order
  TestServer server(options);
  auto client = server.connect();

  const std::string a = write_sample_binary("svc_evict_a.bin", 0, 1);
  const std::string b = write_sample_binary("svc_evict_b.bin", 1, 2);
  const std::string c = write_sample_binary("svc_evict_c.bin", 2, 3);
  std::string error;
  for (const std::string& path : {a, b, c}) {
    const auto result = client.query(path, &error);
    ASSERT_TRUE(result.has_value()) << error;
    EXPECT_EQ(result->cache, "miss");
  }
  // Capacity 2: inserting c evicted a, so a misses again; b and c were
  // kept (b was *not* touched since, so a's re-analysis now evicts it).
  const auto again_a = client.query(a, &error);
  ASSERT_TRUE(again_a.has_value()) << error;
  EXPECT_EQ(again_a->cache, "miss");
  const auto again_c = client.query(c, &error);
  ASSERT_TRUE(again_c.has_value()) << error;
  EXPECT_EQ(again_c->cache, "hit");

  const obs::Snapshot metrics = server.server().metrics();
  EXPECT_EQ(metric(metrics, "cache_misses_total"), 4u);
  EXPECT_EQ(metric(metrics, "cache_hits_total"), 1u);
  EXPECT_EQ(metric(metrics, "cache_evictions_total"), 2u);
  EXPECT_EQ(metric(metrics, "cache_entries"), 2u);
}

TEST(Service, UnreadableAndMalformedFilesBecomeErrorRows) {
  TestServer server;
  auto client = server.connect();
  std::string error;
  const auto missing = client.query("/nonexistent/fetch-svc-test", &error);
  ASSERT_TRUE(missing.has_value()) << error;
  EXPECT_FALSE(missing->analysis.row.ok);
  EXPECT_NE(missing->analysis.row.error.find("cannot open"),
            std::string::npos);
  EXPECT_EQ(missing->cache, "none");  // nothing worth caching

  const std::string garbage = ::testing::TempDir() + "/svc_garbage.bin";
  {
    std::ofstream out(garbage, std::ios::trunc);
    out << "definitely not an ELF";
  }
  const auto bad = client.query(garbage, &error);
  ASSERT_TRUE(bad.has_value()) << error;
  EXPECT_FALSE(bad->analysis.row.ok);
  EXPECT_FALSE(bad->analysis.row.error.empty());
}

TEST(Service, FifoAndDevicesGetTheNoneReplyWithoutPinningAWorker) {
  // Opening a FIFO for reading waits for a writer, so a daemon that
  // opened one blocking lost the worker, and with one worker every later
  // query queued behind it.
  service::ServerOptions options;
  options.workers = 1;
  TestServer server(options);
  const std::string fifo = ::testing::TempDir() + "/svc_fifo";
  std::filesystem::remove(fifo);
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0) << std::strerror(errno);
  std::string error;
  service::ClientOptions client_options;
  client_options.timeout_ms = 5000;
  auto client =
      service::ServiceClient::connect(server.socket(), &error, client_options);
  ASSERT_TRUE(client.has_value()) << error;

  for (const std::string& path : {fifo, std::string("/dev/zero")}) {
    SCOPED_TRACE(path);
    const auto start = std::chrono::steady_clock::now();
    const auto reply = client->query(path, &error);
    if (!reply) {
      // Free a worker stuck in open() so the server can stop.
      for (int i = 0; i < 100; ++i) {
        const int fd = ::open(fifo.c_str(), O_WRONLY | O_NONBLOCK);
        if (fd >= 0) {
          ::close(fd);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      FAIL() << error;
    }
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(2));
    EXPECT_EQ(reply->cache, "none");
    EXPECT_FALSE(reply->analysis.row.ok);
  }

  const std::string path =
      write_sample_binary("svc_after_fifo.bin", 0, 0xf1f0);
  const auto after = client->query(path, &error);
  ASSERT_TRUE(after.has_value()) << error;
  EXPECT_EQ(after->cache, "miss");
  EXPECT_TRUE(after->analysis.row.ok) << after->analysis.row.error;
  std::filesystem::remove(fifo);
}

// --- Single-flight under concurrent clients ---------------------------------

TEST(Service, EightConcurrentClientsOneAnalysis) {
  TestServer server;
  // A fresh binary no other test queries, so the miss count is exact.
  const std::string path =
      write_sample_binary("svc_flight.bin", 3, 0xf117);
  constexpr int kClients = 8;
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  std::vector<std::string> hashes(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      std::string error;
      auto client =
          service::ServiceClient::connect(server.socket(), &error);
      ASSERT_TRUE(client.has_value()) << error;
      const auto result = client->query(path, &error);
      ASSERT_TRUE(result.has_value()) << error;
      ASSERT_TRUE(result->analysis.row.ok) << result->analysis.row.error;
      hashes[i] = service::analysis_json(result->analysis).dump();
      ok.fetch_add(1);
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  ASSERT_EQ(ok.load(), kClients);
  // All eight saw the same bytes-for-bytes result...
  for (int i = 1; i < kClients; ++i) {
    EXPECT_EQ(hashes[i], hashes[0]);
  }
  // ...and the server ran exactly one analysis for them.
  const obs::Snapshot metrics = server.server().metrics();
  EXPECT_EQ(metric(metrics, "cache_misses_total"), 1u);
  EXPECT_EQ(metric(metrics, "cache_hits_total") +
                metric(metrics, "cache_joined_total"),
            static_cast<std::uint64_t>(kClients - 1));
}

// --- Malformed requests -----------------------------------------------------

TEST(Service, MalformedRequestsGetErrorRepliesNotCrashes) {
  TestServer server;
  std::string error;

  auto raw_roundtrip = [&](const std::string& payload) -> std::string {
    auto fd = util::unix_connect(server.socket(), &error);
    EXPECT_TRUE(fd.has_value()) << error;
    EXPECT_TRUE(util::write_frame(fd->get(), payload, &error)) << error;
    std::string reply;
    EXPECT_EQ(util::read_frame(fd->get(), &reply, &error),
              util::FrameStatus::kOk)
        << error;
    return reply;
  };

  for (const std::string& payload : std::vector<std::string>{
           std::string("this is not json"),
           std::string("{\"schema\":\"fetch-service-v1\"}"),  // no op
           std::string("{\"schema\":\"wrong\",\"op\":\"ping\"}"),
           std::string(
               "{\"schema\":\"fetch-service-v1\",\"op\":\"frobnicate\"}"),
           std::string("{\"schema\":\"fetch-service-v1\",\"op\":\"query\"}"),
       }) {
    const std::string reply = raw_roundtrip(payload);
    const auto doc = util::json::Value::parse(reply);
    ASSERT_TRUE(doc.has_value()) << reply;
    const util::json::Value* status = doc->get("status");
    ASSERT_NE(status, nullptr);
    EXPECT_EQ(status->text(), "error") << payload;
  }

  // A parse-level error keeps the connection usable; a ping on the same
  // connection and on a fresh one both still work — the daemon survived
  // all of the above.
  auto client = server.connect();
  EXPECT_TRUE(client.ping(&error)) << error;
}

TEST(Service, DeeplyNestedRequestGetsAnErrorReply) {
  // A frame of a million '[' once overflowed the event-loop thread's
  // stack in the recursive parser and killed the daemon.
  TestServer server;
  std::string error;
  auto fd = util::unix_connect(server.socket(), &error);
  ASSERT_TRUE(fd.has_value()) << error;
  ASSERT_TRUE(util::write_frame(fd->get(), std::string(1'000'000, '['),
                                &error))
      << error;
  std::string reply;
  ASSERT_EQ(util::read_frame(fd->get(), &reply, &error),
            util::FrameStatus::kOk)
      << error;
  const auto doc = util::json::Value::parse(reply);
  ASSERT_TRUE(doc.has_value()) << reply;
  EXPECT_EQ(doc->get("status")->text(), "error") << reply;

  auto client = server.connect();
  EXPECT_TRUE(client.ping(&error)) << error;
}

TEST(Service, RequestOfManyKeysDoesNotStallTheEventLoop) {
  // Decoding a request once cost O(n^2) in its member count on the I/O
  // thread: one frame of 40k distinct keys stalled every connection for
  // seconds. The repeated "op" keeps its first position and its last
  // value, so this is a ping.
  TestServer server;
  std::string payload = R"({"schema":"fetch-service-v1","op":"frobnicate")";
  for (int i = 0; i < 40'000; ++i) {
    payload += ",\"k" + std::to_string(i) + "\":0";
  }
  payload += R"(,"op":"ping"})";
  std::string error;
  auto fd = util::unix_connect(server.socket(), &error);
  ASSERT_TRUE(fd.has_value()) << error;
  auto client = server.connect();

  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(util::write_frame(fd->get(), payload, &error)) << error;
  // Queued behind the big frame on the same I/O thread.
  EXPECT_TRUE(client.ping(&error)) << error;
  std::string reply;
  ASSERT_EQ(util::read_frame(fd->get(), &reply, &error),
            util::FrameStatus::kOk)
      << error;
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(reply, service::ok_response(service::Op::kPing).dump_compact());
  // Milliseconds when linear, even under sanitizers; the quadratic decode
  // took ~4 s in a release build.
  EXPECT_LT(elapsed, std::chrono::seconds(2));
}

TEST(Service, OversizeFrameClosesConnectionButNotServer) {
  TestServer server;
  std::string error;
  auto fd = util::unix_connect(server.socket(), &error);
  ASSERT_TRUE(fd.has_value()) << error;
  // A header claiming ~4 GiB: the server must refuse, reply, and drop
  // this connection without dying.
  const std::uint8_t huge[] = {0xff, 0xff, 0xff, 0xff, 'x'};
  ASSERT_EQ(::send(fd->get(), huge, sizeof(huge), 0),
            static_cast<ssize_t>(sizeof(huge)));
  std::string reply;
  EXPECT_EQ(util::read_frame(fd->get(), &reply, &error),
            util::FrameStatus::kOk);
  EXPECT_NE(reply.find("error"), std::string::npos);

  auto client = server.connect();
  EXPECT_TRUE(client.ping(&error)) << error;
}

// --- Graceful shutdown ------------------------------------------------------

TEST(Service, ShutdownCompletesInFlightRequests) {
  service::ServerOptions options;
  options.socket_path = unique_socket_path();
  options.workers = 4;
  auto server = std::make_unique<service::ServiceServer>(options);
  std::string error;
  ASSERT_TRUE(server->start(&error)) << error;
  std::thread run_thread([&server] { server->run(); });

  const std::string path =
      write_sample_binary("svc_shutdown.bin", 4, 0xdead);
  std::atomic<bool> query_ok{false};
  std::thread in_flight([&] {
    std::string thread_error;
    auto client =
        service::ServiceClient::connect(options.socket_path, &thread_error);
    ASSERT_TRUE(client.has_value()) << thread_error;
    const auto result = client->query(path, &thread_error);
    // The query may race the shutdown, but if it was accepted it must
    // complete with a full, valid result — never a torn reply.
    if (result.has_value()) {
      EXPECT_TRUE(result->analysis.row.ok) << result->analysis.row.error;
      EXPECT_FALSE(result->analysis.functions.empty());
      query_ok.store(true);
    }
  });

  // Shut down once the query is in flight: queued or running on a
  // worker (a fixed sleep here lost the race to a slow scheduler).
  EXPECT_TRUE(metric_eventually(*server, "service_queue_high_water",
                                [](std::uint64_t v) { return v >= 1; }));
  auto shutdown_client =
      service::ServiceClient::connect(options.socket_path, &error);
  ASSERT_TRUE(shutdown_client.has_value()) << error;
  const auto stats = shutdown_client->shutdown_server(&error);
  EXPECT_TRUE(stats.has_value()) << error;

  in_flight.join();
  run_thread.join();  // run() must return on its own after stop()
  EXPECT_TRUE(query_ok.load());
  // The daemon removed its socket file on the way out.
  EXPECT_FALSE(std::filesystem::exists(options.socket_path));
}

// --- Overload and deadlines -------------------------------------------------

std::vector<std::uint8_t> wire_frame(const std::string& payload) {
  std::vector<std::uint8_t> wire;
  wire.reserve(payload.size() + 4);
  const auto len = static_cast<std::uint32_t>(payload.size());
  for (std::size_t k = 0; k < 4; ++k) {
    wire.push_back(static_cast<std::uint8_t>(len >> (8 * k)));
  }
  for (const char c : payload) {
    wire.push_back(static_cast<std::uint8_t>(c));
  }
  return wire;
}

std::vector<std::uint8_t> wire_request(const service::Request& request) {
  return wire_frame(service::request_json(request).dump());
}

TEST(ServiceOverload, IdleCamperIsEvictedOnDeadline) {
  service::ServerOptions options;
  options.idle_timeout_ms = 200;
  TestServer server(options);
  std::string error;
  auto fd = util::unix_connect(server.socket(), &error);
  ASSERT_TRUE(fd.has_value()) << error;
  // Never send a byte: the server must hang up on its own.
  ASSERT_GT(util::poll_readable(fd->get(), 5000), 0)
      << "camper still connected after 5 s";
  std::uint8_t scratch[8];
  EXPECT_EQ(::recv(fd->get(), scratch, sizeof(scratch), 0), 0);
  EXPECT_TRUE(metric_eventually(server.server(), "service_idle_timeouts_total",
                                [](std::uint64_t v) { return v >= 1; }));
  // The daemon itself is fine.
  auto client = server.connect();
  EXPECT_TRUE(client.ping(&error)) << error;
}

TEST(ServiceOverload, SlowLorisTrickleDoesNotResetIdleClock) {
  service::ServerOptions options;
  options.idle_timeout_ms = 300;
  TestServer server(options);
  std::string error;
  auto fd = util::unix_connect(server.socket(), &error);
  ASSERT_TRUE(fd.has_value()) << error;
  // One byte of a valid ping frame every 50 ms: each gap is well inside
  // the idle window, but the deadline is re-armed only on *complete*
  // frames, so the trickler must still be evicted mid-frame.
  const std::vector<std::uint8_t> wire =
      wire_request({service::Op::kPing, {}, {}});
  bool evicted = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (std::size_t i = 0; !evicted; i = (i + 1) % (wire.size() - 1)) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "trickler was never evicted";
    if (::send(fd->get(), &wire[i], 1, MSG_NOSIGNAL) <= 0) {
      evicted = true;
      break;
    }
    if (util::poll_readable(fd->get(), 50) > 0) {
      std::uint8_t scratch[8];
      evicted = ::recv(fd->get(), scratch, sizeof(scratch), 0) <= 0;
    }
  }
  EXPECT_TRUE(evicted);
  EXPECT_TRUE(metric_eventually(server.server(), "service_idle_timeouts_total",
                                [](std::uint64_t v) { return v >= 1; }));
}

TEST(ServiceOverload, QueueFullGetsImmediateOverloadedReply) {
  service::ServerOptions options;
  options.workers = 1;
  options.queue_depth = 1;
  TestServer server(options);
  const std::string path =
      write_sample_binary("svc_overload.bin", 0, 0x0e44);

  // Pipeline a burst far deeper than worker + queue can hold. Every
  // request must still get exactly one reply: ok for the ones that fit,
  // an immediate `overloaded` error for the shed remainder.
  constexpr std::size_t kBurst = 32;
  std::string error;
  auto fd = util::unix_connect(server.socket(), &error);
  ASSERT_TRUE(fd.has_value()) << error;
  const std::vector<std::uint8_t> wire =
      wire_request({service::Op::kQuery, path, {}});
  for (std::size_t i = 0; i < kBurst; ++i) {
    std::size_t sent = 0;
    while (sent < wire.size()) {
      const ssize_t n = ::send(fd->get(), wire.data() + sent,
                               wire.size() - sent, MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      sent += static_cast<std::size_t>(n);
    }
  }

  std::size_t ok_replies = 0;
  std::size_t overloaded_replies = 0;
  for (std::size_t i = 0; i < kBurst; ++i) {
    std::string reply;
    ASSERT_EQ(util::read_frame(fd->get(), &reply, &error),
              util::FrameStatus::kOk)
        << "reply " << i << ": " << error;
    const auto doc = util::json::Value::parse(reply);
    ASSERT_TRUE(doc.has_value()) << reply;
    if (service::response_ok(*doc, &error)) {
      ++ok_replies;
    } else {
      ASSERT_EQ(service::response_error_code(*doc), service::kErrOverloaded)
          << reply;
      ++overloaded_replies;
    }
  }
  EXPECT_EQ(ok_replies + overloaded_replies, kBurst);
  EXPECT_GE(overloaded_replies, 1u);
  EXPECT_GE(ok_replies, 1u);  // shedding is not a blanket refusal
  const obs::Snapshot metrics = server.server().metrics();
  EXPECT_EQ(metric(metrics, "service_queries_shed_total"), overloaded_replies);
  EXPECT_GE(metric(metrics, "service_queue_high_water"), 1u);
}

TEST(ServiceOverload, ConnectionLimitRejectsAtAccept) {
  service::ServerOptions options;
  options.max_connections = 2;
  TestServer server(options);
  std::string error;
  // Two clients pinned open (pings prove they are fully registered).
  auto first = server.connect();
  auto second = server.connect();
  ASSERT_TRUE(first.ping(&error)) << error;
  ASSERT_TRUE(second.ping(&error)) << error;

  // The third is told `overloaded` and hung up on, at accept time.
  auto fd = util::unix_connect(server.socket(), &error);
  ASSERT_TRUE(fd.has_value()) << error;
  std::string reply;
  ASSERT_EQ(util::read_frame(fd->get(), &reply, &error),
            util::FrameStatus::kOk)
      << error;
  const auto doc = util::json::Value::parse(reply);
  ASSERT_TRUE(doc.has_value()) << reply;
  EXPECT_EQ(service::response_error_code(*doc), service::kErrOverloaded)
      << reply;
  EXPECT_EQ(util::read_frame(fd->get(), &reply, &error),
            util::FrameStatus::kEof);
  EXPECT_GE(metric(server.server().metrics(),
                   "service_rejected_connections_total"),
            1u);

  // Capacity frees up as soon as a pinned client leaves.
  first = std::move(second);  // drops first's connection
  EXPECT_TRUE(metric_eventually(server.server(), "service_active_connections",
                                [](std::uint64_t v) { return v <= 1; }));
  auto third = server.connect();
  EXPECT_TRUE(third.ping(&error)) << error;
}

TEST(ServiceOverload, MidFrameDisconnectsLeaveServerHealthy) {
  TestServer server;
  std::string error;
  for (int round = 0; round < 5; ++round) {
    auto fd = util::unix_connect(server.socket(), &error);
    ASSERT_TRUE(fd.has_value()) << error;
    // Half a header, then vanish.
    const std::uint8_t partial[] = {0x40, 0x00};
    ASSERT_EQ(::send(fd->get(), partial, sizeof(partial), MSG_NOSIGNAL), 2);
    fd->reset();
  }
  EXPECT_TRUE(metric_eventually(server.server(), "service_frames_shed_total",
                                [](std::uint64_t v) { return v >= 5; }));
  auto client = server.connect();
  EXPECT_TRUE(client.ping(&error)) << error;
}

TEST(ServiceOverload, StalledReaderIsEvictedByWriteDeadline) {
  service::ServerOptions options;
  options.write_stall_ms = 200;
  options.idle_timeout_ms = 60'000;  // the write clock must act first
  TestServer server(options);
  std::string error;
  auto fd = util::unix_connect(server.socket(), &error);
  ASSERT_TRUE(fd.has_value()) << error;
  // Pipeline far more stats requests than the socket buffer holds
  // replies for, and never read: the flush stalls and the write-stall
  // deadline must evict us.
  const std::vector<std::uint8_t> wire =
      wire_request({service::Op::kStats, {}, {}});
  for (std::size_t i = 0; i < 1'500; ++i) {
    std::size_t sent = 0;
    while (sent < wire.size()) {
      const ssize_t n = ::send(fd->get(), wire.data() + sent,
                               wire.size() - sent, MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      sent += static_cast<std::size_t>(n);
    }
  }
  EXPECT_TRUE(metric_eventually(server.server(),
                                "service_write_stall_timeouts_total",
                                [](std::uint64_t v) { return v >= 1; }));
  auto client = server.connect();
  EXPECT_TRUE(client.ping(&error)) << error;
}

TEST(ServiceOverload, StatsOpSurfacesRobustnessCounters) {
  service::ServerOptions options;
  options.max_connections = 1;
  TestServer server(options);
  auto client = server.connect();
  std::string error;
  // Trip the connection limit once so a counter is provably nonzero.
  {
    auto fd = util::unix_connect(server.socket(), &error);
    ASSERT_TRUE(fd.has_value()) << error;
    std::string reply;
    ASSERT_EQ(util::read_frame(fd->get(), &reply, &error),
              util::FrameStatus::kOk);
  }
  const auto stats = client.stats(&error);
  ASSERT_TRUE(stats.has_value()) << error;
  const auto keys = [](const util::json::Value& object) {
    std::vector<std::string> out;
    for (const auto& [key, value] : object.members()) {
      out.push_back(key);
    }
    return out;
  };
  // The reply's keys, in order: scripts parse this document and the
  // flattened `query --op stats` lines, so a rename or reorder is a
  // compatibility break.
  EXPECT_EQ(keys(*stats),
            (std::vector<std::string>{"entries", "capacity", "shards", "hits",
                                      "misses", "joined", "evictions",
                                      "server"}));
  const util::json::Value* nested = stats->get("server");
  ASSERT_NE(nested, nullptr) << "stats reply lacks the server object";
  EXPECT_EQ(keys(*nested),
            (std::vector<std::string>{
                "accepted", "active", "peak_active", "rejected_connections",
                "emfile_rejections", "idle_timeouts", "write_stall_timeouts",
                "queries_shed", "frames_shed", "queue_depth",
                "queue_high_water", "slow_queries", "uptime_ms", "workers"}));
  ASSERT_NE(nested->get("rejected_connections"), nullptr);
  ASSERT_NE(nested->get("accepted"), nullptr);
  EXPECT_GE(nested->get("rejected_connections")->as_double(), 1.0);
  EXPECT_GE(nested->get("accepted")->as_double(), 1.0);
}

TEST(ServiceMetrics, MetricsOpReturnsSchemaValidSnapshot) {
  TestServer server;
  auto client = server.connect();
  std::string error;
  const std::string path =
      write_sample_binary("svc_metrics.bin", 0, 0x3e7a1);
  // Deterministic load: one miss, one hit.
  ASSERT_TRUE(client.query(path, &error).has_value()) << error;
  ASSERT_TRUE(client.query(path, &error).has_value()) << error;

  const auto metrics = client.metrics(&error);
  ASSERT_TRUE(metrics.has_value()) << error;
  const auto snapshot = obs::Snapshot::from_json(*metrics, &error);
  ASSERT_TRUE(snapshot.has_value()) << error;

  const auto& counters = snapshot->counters();
  for (const char* name :
       {"service_accepted_total", "cache_hits_total", "cache_misses_total",
        "cache_joined_total", "cache_lookups_total"}) {
    ASSERT_TRUE(counters.count(name) != 0) << name;
  }
  // Conservation: every lookup is exactly one of hit/miss/join.
  EXPECT_EQ(counters.at("cache_lookups_total"),
            counters.at("cache_hits_total") +
                counters.at("cache_misses_total") +
                counters.at("cache_joined_total"));
  EXPECT_GE(counters.at("cache_hits_total"), 1u);
  EXPECT_GE(counters.at("cache_misses_total"), 1u);

  const auto& histograms = snapshot->histograms();
  ASSERT_TRUE(histograms.count("service_query_us") != 0);
  ASSERT_TRUE(histograms.count("service_queue_wait_us") != 0);
  EXPECT_GE(histograms.at("service_query_us").count, 2u);
  // One content hash per query served, hit or miss.
  ASSERT_TRUE(histograms.count("service_hash_us") != 0);
  EXPECT_EQ(histograms.at("service_hash_us").count, 2u);

  const auto& gauges = snapshot->gauges();
  ASSERT_TRUE(gauges.count("service_workers") != 0);
  EXPECT_GT(gauges.at("service_workers"), 0);

  // The snapshot doubles as the Prometheus source; rendering must not
  // choke on any live metric name or value.
  const std::string prometheus = obs::prometheus_text(*snapshot);
  EXPECT_NE(prometheus.find("fetch_cache_hits_total"), std::string::npos);
  EXPECT_NE(prometheus.find("fetch_service_hash_us_bucket"),
            std::string::npos);
}

TEST(ServiceMetrics, StatsAgreesWithMetrics) {
  service::ServerOptions options;
  options.max_connections = 1;
  TestServer server(options);
  auto client = server.connect();
  std::string error;
  const std::string path =
      write_sample_binary("svc_stats_view.bin", 2, 0x57a75);
  // One miss and two hits, so the hit and miss counts differ.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.query(path, &error).has_value()) << error;
  }
  {
    // Over the one-connection cap: rejected at accept.
    auto fd = util::unix_connect(server.socket(), &error);
    ASSERT_TRUE(fd.has_value()) << error;
    std::string reply;
    ASSERT_EQ(util::read_frame(fd->get(), &reply, &error),
              util::FrameStatus::kOk)
        << error;
  }

  // Quiesced: nothing runs between the two requests but the clock.
  const auto stats = client.stats(&error);
  ASSERT_TRUE(stats.has_value()) << error;
  const auto doc = client.metrics(&error);
  ASSERT_TRUE(doc.has_value()) << error;
  const auto metrics = obs::Snapshot::from_json(*doc, &error);
  ASSERT_TRUE(metrics.has_value()) << error;

  // Every stats key, flattened as `query --op stats` prints it, and the
  // metric it shows.
  const std::map<std::string, std::string> view = {
      {"entries", "cache_entries"},
      {"capacity", "cache_capacity"},
      {"shards", "cache_shards"},
      {"hits", "cache_hits_total"},
      {"misses", "cache_misses_total"},
      {"joined", "cache_joined_total"},
      {"evictions", "cache_evictions_total"},
      {"server.accepted", "service_accepted_total"},
      {"server.active", "service_active_connections"},
      {"server.peak_active", "service_peak_active_connections"},
      {"server.rejected_connections", "service_rejected_connections_total"},
      {"server.emfile_rejections", "service_emfile_rejections_total"},
      {"server.idle_timeouts", "service_idle_timeouts_total"},
      {"server.write_stall_timeouts", "service_write_stall_timeouts_total"},
      {"server.queries_shed", "service_queries_shed_total"},
      {"server.frames_shed", "service_frames_shed_total"},
      {"server.queue_depth", "service_queue_depth"},
      {"server.queue_high_water", "service_queue_high_water"},
      {"server.slow_queries", "service_slow_queries_total"},
      {"server.uptime_ms", "service_uptime_ms"},
      {"server.workers", "service_workers"},
  };
  std::vector<std::pair<std::string, std::uint64_t>> flat;
  for (const auto& [key, value] : stats->members()) {
    if (!value.is_object()) {
      flat.emplace_back(key, static_cast<std::uint64_t>(value.as_double()));
      continue;
    }
    for (const auto& [sub_key, sub_value] : value.members()) {
      flat.emplace_back(key + "." + sub_key,
                        static_cast<std::uint64_t>(sub_value.as_double()));
    }
  }
  EXPECT_EQ(flat.size(), view.size());
  for (const auto& [key, value] : flat) {
    SCOPED_TRACE(key);
    const auto it = view.find(key);
    ASSERT_NE(it, view.end());
    if (key == "server.uptime_ms") {
      EXPECT_LE(value, metric(*metrics, it->second));
    } else {
      EXPECT_EQ(value, metric(*metrics, it->second));
    }
  }
  EXPECT_EQ(metric(*metrics, "cache_misses_total"), 1u);
  EXPECT_EQ(metric(*metrics, "cache_hits_total"), 2u);
  EXPECT_EQ(metric(*metrics, "service_rejected_connections_total"), 1u);
}

TEST(ServiceMetrics, TraceIdsEchoAndStagesFollowCacheState) {
  TestServer server;
  auto client = server.connect();
  std::string error;
  const std::string path =
      write_sample_binary("svc_trace.bin", 1, 0x3e7a2);

  // A client-supplied id comes back verbatim, and the miss that computes
  // the analysis carries per-stage timings.
  const auto miss = client.query(path, &error, "deadbeef00000042");
  ASSERT_TRUE(miss.has_value()) << error;
  EXPECT_EQ(miss->trace, "deadbeef00000042");
  EXPECT_EQ(miss->cache, "miss");
  // The detect stage's own sub-stages (detect.*) finish inside it.
  std::vector<std::string> stage_names;
  std::vector<std::string> detect_stages;
  for (const util::json::Value& stage : miss->stages.items()) {
    const util::json::Value* name = stage.get("stage");
    ASSERT_NE(name, nullptr);
    (name->text().rfind("detect.", 0) == 0 ? detect_stages : stage_names)
        .push_back(name->text());
  }
  EXPECT_EQ(stage_names,
            (std::vector<std::string>{"elf_parse", "truth", "detector_build",
                                      "detect", "score"}));
  ASSERT_GE(detect_stages.size(), 3u);
  EXPECT_EQ(detect_stages[0], "detect.callconv");
  EXPECT_EQ(detect_stages[1], "detect.analyze");
  EXPECT_EQ(detect_stages[2], "detect.pointer");

  // No id supplied: the daemon mints a 16-hex one. A cache hit answers
  // from the stored result, so it has no stage timings to report.
  const auto hit = client.query(path, &error);
  ASSERT_TRUE(hit.has_value()) << error;
  EXPECT_EQ(hit->cache, "hit");
  EXPECT_EQ(hit->trace.size(), 16u);
  for (const char c : hit->trace) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
        << hit->trace;
  }
  EXPECT_EQ(hit->stages.items().size(), 0u);
}

// --- Stat-identity memo ------------------------------------------------------

/// Overwrites byte 15 of the ELF identification in place: padding no
/// reader looks at, so the file keeps its size and stays analyzable but
/// hashes differently.
void rewrite_ident_padding(const std::string& path, char value) {
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  file.seekp(15);
  file.put(value);
}

TEST(ServiceMemo, SettledFilesSkipTheHashAndEveryChangeIsSeen) {
  namespace fs = std::filesystem;
  TestServer server;
  auto client = server.connect();
  std::string error;
  const fs::path dir = fs::path(::testing::TempDir()) / "svc_memo";
  fs::create_directories(dir);
  const std::string fixture =
      write_sample_binary("svc_memo_fixture.bin", 2, 0x3e3a0);
  const std::string path = (dir / "memo.bin").string();
  const std::string staged = (dir / "memo.staged").string();
  for (const std::string& copy : {path, staged}) {
    fs::copy_file(fixture, copy, fs::copy_options::overwrite_existing);
  }
  rewrite_ident_padding(staged, 2);
  // The memo trusts only timestamps at least 2 s older than the query.
  std::this_thread::sleep_for(std::chrono::milliseconds(2100));

  const auto hashes = [&] {
    return server.server().metrics().histograms().at("service_hash_us").count;
  };
  const auto skipped = [&] {
    return metric(server.server().metrics(), "service_hash_skipped_total");
  };
  std::uint64_t queries = 0;
  const auto query = [&] {
    auto result = client.query(path, &error);
    EXPECT_TRUE(result.has_value()) << error;
    ++queries;
    return result.value_or(service::QueryResult{});
  };

  // The miss hashes the settled file and memoises it; the hit is
  // answered from the memo without a hash, with the same result.
  const service::QueryResult miss = query();
  EXPECT_EQ(miss.cache, "miss");
  EXPECT_EQ(hashes(), 1u);
  const service::QueryResult hit = query();
  EXPECT_EQ(hit.cache, "hit");
  EXPECT_EQ(hashes(), 1u);
  EXPECT_EQ(skipped(), 1u);
  EXPECT_EQ(service::analysis_json(hit.analysis).dump(),
            service::analysis_json(miss.analysis).dump());

  // Different bytes of the same size, written in place: ctime moves on.
  rewrite_ident_padding(path, 1);
  const service::QueryResult rewritten = query();
  EXPECT_EQ(rewritten.cache, "miss");
  EXPECT_NE(rewritten.analysis.content_hash, miss.analysis.content_hash);
  // A freshly written file is hashed on every query, hit or miss.
  const service::QueryResult fresh = query();
  EXPECT_EQ(fresh.cache, "hit");
  EXPECT_EQ(hashes(), 3u);
  EXPECT_EQ(skipped(), 1u);

  // Replaced by rename with a file written before the sleep: a new inode.
  fs::rename(staged, path);
  const service::QueryResult renamed = query();
  EXPECT_EQ(renamed.cache, "miss");
  EXPECT_NE(renamed.analysis.content_hash, rewritten.analysis.content_hash);
  EXPECT_EQ(hashes(), 4u);

  fs::remove(path);
  const auto gone = client.query(path, &error);
  ASSERT_TRUE(gone.has_value()) << error;
  EXPECT_EQ(gone->cache, "none");

  const auto stats = client.stats(&error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_EQ(stats->get("hits")->as_double() +
                stats->get("misses")->as_double() +
                stats->get("joined")->as_double(),
            static_cast<double>(queries));
  EXPECT_EQ(stats->get("misses")->as_double(), 3.0);
}

// The sanitizer-matrix stress cases (ctest label "concurrency", run under
// TSan in CI). The first keeps 10 clients hammering a small cache with
// queries over more binaries than it can hold, plus ping/stats control
// traffic, so eviction, single-flight, and connection registration all
// interleave across the worker pool.
TEST(Service, ManyClientsSustainedMixedLoad) {
  service::ServerOptions options;
  options.cache_capacity = 2;  // 3 binaries: constant eviction pressure
  options.cache_shards = 1;
  TestServer server(options);
  std::vector<std::string> paths = {
      write_sample_binary("svc_load_a.bin", 0, 0x10ad0),
      write_sample_binary("svc_load_b.bin", 1, 0x10ad1),
      write_sample_binary("svc_load_c.bin", 2, 0x10ad2),
  };
  // Canonical result per path, from a quiet single query each.
  std::vector<std::string> expected;
  for (const std::string& path : paths) {
    std::string error;
    auto client = server.connect();
    const auto result = client.query(path, &error);
    ASSERT_TRUE(result.has_value()) << error;
    ASSERT_TRUE(result->analysis.row.ok) << result->analysis.row.error;
    expected.push_back(service::analysis_json(result->analysis).dump());
  }

  constexpr int kClients = 10;
  constexpr int kRounds = 6;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      std::string error;
      for (int round = 0; round < kRounds; ++round) {
        auto client =
            service::ServiceClient::connect(server.socket(), &error);
        ASSERT_TRUE(client.has_value()) << error;
        const std::size_t which = (t + round) % paths.size();
        const auto result = client->query(paths[which], &error);
        ASSERT_TRUE(result.has_value()) << error;
        // Evictions force recomputation, but the bytes must never drift.
        if (service::analysis_json(result->analysis).dump() !=
            expected[which]) {
          mismatches.fetch_add(1);
        }
        if (t % 3 == 0) {
          EXPECT_TRUE(client->ping(&error)) << error;
        } else if (t % 3 == 1) {
          EXPECT_TRUE(client->stats(&error).has_value()) << error;
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_LE(metric(server.server().metrics(), "cache_entries"), 2u);
}

// The second: a shutdown racing a whole fleet of in-flight queries. Every
// accepted query must complete with a full valid reply or fail cleanly —
// never a torn frame, crash, or hung worker — and run() must still return.
TEST(Service, ShutdownRacesManyInFlightQueries) {
  service::ServerOptions options;
  options.socket_path = unique_socket_path();
  options.workers = 4;
  auto server = std::make_unique<service::ServiceServer>(options);
  std::string error;
  ASSERT_TRUE(server->start(&error)) << error;
  std::thread run_thread([&server] { server->run(); });

  std::vector<std::string> paths = {
      write_sample_binary("svc_race_a.bin", 3, 0xace0),
      write_sample_binary("svc_race_b.bin", 4, 0xace1),
  };
  constexpr int kClients = 8;
  std::atomic<int> completed{0};
  std::atomic<int> torn{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      std::string thread_error;
      auto client = service::ServiceClient::connect(options.socket_path,
                                                    &thread_error);
      if (!client.has_value()) {
        return;  // lost the race to the listener teardown: a clean failure
      }
      const auto result =
          client->query(paths[t % paths.size()], &thread_error);
      if (!result.has_value()) {
        return;  // rejected or disconnected mid-shutdown: also clean
      }
      if (result->analysis.row.ok && !result->analysis.functions.empty()) {
        completed.fetch_add(1);
      } else {
        torn.fetch_add(1);
      }
    });
  }

  // Let some queries get into the worker pool, then yank the server.
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  auto shutdown_client =
      service::ServiceClient::connect(options.socket_path, &error);
  if (shutdown_client.has_value()) {
    (void)shutdown_client->shutdown_server(&error);
  } else {
    server->stop();
  }

  for (std::thread& t : threads) {
    t.join();
  }
  run_thread.join();
  EXPECT_EQ(torn.load(), 0);  // accepted implies complete and valid
  EXPECT_FALSE(std::filesystem::exists(options.socket_path));
}

// --- Protocol odds and ends -------------------------------------------------

TEST(Service, StatsOpReportsCacheShape) {
  service::ServerOptions options;
  options.cache_capacity = 64;
  options.cache_shards = 4;
  TestServer server(options);
  auto client = server.connect();
  std::string error;
  const auto stats = client.stats(&error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_EQ(stats->get("capacity")->as_double(), 64.0);
  EXPECT_EQ(stats->get("shards")->as_double(), 4.0);
  EXPECT_EQ(stats->get("entries")->as_double(), 0.0);
}

TEST(Service, AnalysisJsonRoundTripsExactly) {
  eval::FileAnalysis fa;
  fa.row.path = "/some/bin";
  fa.row.ok = true;
  fa.row.truth_source = "symtab";
  fa.row.truth = 10;
  fa.row.detected = 9;
  fa.row.tp = 8;
  fa.row.fp = 1;
  fa.row.fn = 2;
  fa.row.plt_excluded = 3;
  fa.content_hash = 0xdeadbeefcafef00dULL;
  fa.fde_starts = 7;
  fa.pointer_starts = 2;
  fa.functions = {{0x401000, "fde"}, {0x401200, "pointer"}};
  std::string error;
  const auto back =
      service::analysis_from_json(service::analysis_json(fa).dump(), &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(service::analysis_json(*back).dump(),
            service::analysis_json(fa).dump());
  EXPECT_EQ(back->content_hash, fa.content_hash);
  EXPECT_EQ(back->functions, fa.functions);
}

// --- Reply bytes ------------------------------------------------------------

/// A query reply built the way the service built every reply before hits
/// were answered from cached bytes: the response tree, dumped compact,
/// behind the 4-byte length header, with the in-band error for an
/// over-cap payload.
std::string tree_built_frame(const std::string& cache,
                             const eval::FileAnalysis& fa,
                             const std::string& trace,
                             const util::json::Value& stages) {
  util::json::Value response = service::ok_response(service::Op::kQuery);
  response.set("cache", util::json::Value(cache));
  response.set("result", service::analysis_json(fa));
  response.set("trace", util::json::Value(trace));
  response.set("stages", stages);
  std::string payload = response.dump_compact();
  if (payload.size() > util::kMaxFrameBytes) {
    payload = service::error_response("result of " +
                                      std::to_string(payload.size()) +
                                      " bytes exceeds the frame cap")
                  .dump_compact();
  }
  const std::vector<std::uint8_t> wire = wire_frame(payload);
  return std::string(wire.begin(), wire.end());
}

/// Byte offset of the first difference (the shorter size when one is a
/// prefix of the other): a readable failure for multi-KiB frames.
std::size_t first_difference(const std::string& a, const std::string& b) {
  return static_cast<std::size_t>(
      std::mismatch(a.begin(), a.begin() + std::min(a.size(), b.size()),
                    b.begin())
          .first -
      a.begin());
}

void expect_same_frame(const std::string& assembled,
                       const std::string& expected) {
  EXPECT_TRUE(assembled == expected)
      << "sizes " << assembled.size() << " vs " << expected.size()
      << ", first difference at byte "
      << first_difference(assembled, expected);
}

TEST(ServiceReply, AssembledFramesMatchTreeBuiltFrames) {
  const eval::AnalysisSession session;
  const eval::FileAnalysis fa = session.analyze_file(
      write_sample_binary("svc_reply.bin", 2, 0x5e71));
  ASSERT_TRUE(fa.row.ok) << fa.row.error;
  const std::string garbage = "definitely not an ELF";
  const eval::FileAnalysis bad = session.analyze_image(
      {reinterpret_cast<const std::uint8_t*>(garbage.data()),
       garbage.size()},
      "/srv/not-an-elf");
  ASSERT_FALSE(bad.row.ok);

  obs::Trace trace("deadbeef00000001");
  trace.record("elf_parse", 12);
  trace.record("detect", 3456);
  const util::json::Value miss_stages = trace.stages_json();
  const util::json::Value no_stages = util::json::Value::array();

  // A minted id, and a client-supplied one that needs escaping.
  for (const std::string& trace_id :
       {std::string("0123456789abcdef"), std::string("client \"id\"\\\n")}) {
    for (const eval::FileAnalysis* analysis : {&fa, &bad}) {
      const std::string body = service::encode_result_body(*analysis);
      const std::string& path = analysis->row.path;
      expect_same_frame(
          service::query_frame("hit", path, body, trace_id, no_stages),
          tree_built_frame("hit", *analysis, trace_id, no_stages));
      expect_same_frame(
          service::query_frame("joined", path, body, trace_id, no_stages),
          tree_built_frame("joined", *analysis, trace_id, no_stages));
      expect_same_frame(
          service::query_frame("miss", path, body, trace_id, miss_stages),
          tree_built_frame("miss", *analysis, trace_id, miss_stages));

      // One cached body answers for the same bytes under another name.
      eval::FileAnalysis renamed = *analysis;
      renamed.row.path = "/other/dir/copy \"of\" it";
      expect_same_frame(service::query_frame("hit", renamed.row.path, body,
                                             trace_id, no_stages),
                        tree_built_frame("hit", renamed, trace_id, no_stages));
    }
  }
}

TEST(ServiceReply, OversizeResultGetsTheInBandError) {
  // Every control byte escapes to six ("\u0001"), so the error member
  // alone dumps past the frame cap.
  eval::FileAnalysis fa;
  fa.row.path = "/srv/huge";
  fa.row.ok = false;
  fa.row.error.assign(util::kMaxFrameBytes / 6 + 1, '\x01');
  const util::json::Value no_stages = util::json::Value::array();
  const std::string expected = tree_built_frame("miss", fa, "t", no_stages);
  const std::string assembled = service::query_frame(
      "miss", fa.row.path, service::encode_result_body(fa), "t", no_stages);
  expect_same_frame(assembled, expected);

  const auto doc = util::json::Value::parse(assembled.substr(4));
  ASSERT_TRUE(doc.has_value());
  ASSERT_EQ(doc->get("status")->text(), "error");
  EXPECT_NE(doc->get("error")->text().find("exceeds the frame cap"),
            std::string::npos);
}

TEST(ServiceReply, ServedHitsAreTreeBuiltFramesForTheRequestedPath) {
  TestServer server;
  const std::string path =
      write_sample_binary("svc_reply_served.bin", 3, 0x5e72);
  const std::string copy =
      ::testing::TempDir() + "/svc_reply_served_copy.bin";
  std::filesystem::copy_file(
      path, copy, std::filesystem::copy_options::overwrite_existing);
  const eval::AnalysisSession session;

  std::string error;
  auto fd = util::unix_connect(server.socket(), &error);
  ASSERT_TRUE(fd.has_value()) << error;
  auto served = [&](const std::string& query_path) {
    service::Request request;
    request.op = service::Op::kQuery;
    request.path = query_path;
    request.trace = "client-trace-7";
    EXPECT_TRUE(util::write_frame(
        fd->get(), service::request_json(request).dump(), &error))
        << error;
    std::string reply;
    EXPECT_EQ(util::read_frame(fd->get(), &reply, &error),
              util::FrameStatus::kOk)
        << error;
    return wire_frame(reply);
  };
  auto as_string = [](const std::vector<std::uint8_t>& wire) {
    return std::string(wire.begin(), wire.end());
  };

  const auto miss = util::json::Value::parse(as_string(served(path)).substr(4));
  ASSERT_TRUE(miss.has_value());
  EXPECT_EQ(miss->get("cache")->text(), "miss");
  const util::json::Value no_stages = util::json::Value::array();
  for (const std::string& query_path : {path, copy}) {
    expect_same_frame(as_string(served(query_path)),
                      tree_built_frame("hit", session.analyze_file(query_path),
                                       "client-trace-7", no_stages));
  }
}

/// True when \p json has no whitespace outside its strings.
bool compact_outside_strings(const std::string& json) {
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;  // the escaped character
      } else if (c == '"') {
        in_string = false;
      }
    } else if (c == '"') {
      in_string = true;
    } else if (c == ' ' || c == '\n' || c == '\t' || c == '\r') {
      return false;
    }
  }
  return true;
}

/// "0x" + lowercase hex digits without a leading zero ("0x0" for zero).
bool minimal_hex(const std::string& text) {
  return text.size() > 2 && text.size() <= 18 && text.starts_with("0x") &&
         (text.size() == 3 || text[2] != '0') &&
         text.find_first_not_of("0123456789abcdef", 2) == std::string::npos;
}

TEST(ServiceReply, ServedHitsAreCompactWithMinimalHexAddresses) {
  TestServer server;
  const std::string path =
      write_sample_binary("svc_reply_compact.bin", 4, 0xc0de);
  std::string error;
  auto fd = util::unix_connect(server.socket(), &error);
  ASSERT_TRUE(fd.has_value()) << error;
  service::Request request;
  request.op = service::Op::kQuery;
  request.path = path;
  for (const char* expected : {"miss", "hit"}) {
    ASSERT_TRUE(util::write_frame(
        fd->get(), service::request_json(request).dump_compact(), &error))
        << error;
    std::string reply;
    ASSERT_EQ(util::read_frame(fd->get(), &reply, &error),
              util::FrameStatus::kOk)
        << error;
    EXPECT_TRUE(compact_outside_strings(reply)) << reply.substr(0, 200);
    const auto doc = util::json::Value::parse(reply);
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->get("cache")->text(), expected);
    const util::json::Value& result = *doc->get("result");
    ASSERT_TRUE(result.get("ok")->as_bool());
    // The cache key keeps its 16 digits.
    EXPECT_EQ(result.get("content_hash")->text().size(), 18u);
    const util::json::Value& functions = *result.get("functions");
    EXPECT_FALSE(functions.items().empty());
    for (const util::json::Value& entry : functions.items()) {
      EXPECT_TRUE(minimal_hex(entry.items()[0].text()))
          << entry.items()[0].text();
    }
  }
}

// --- Hostile-corpus regression ----------------------------------------------

#ifdef FETCH_FUZZ_CORPUS_DIR

std::vector<std::uint8_t> read_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
}

/// True when \p payload parses as a valid shutdown request — the one
/// corpus input that must never be replayed verbatim against a server the
/// test still needs.
bool is_shutdown_payload(const std::string& payload) {
  std::string error;
  const auto request = service::parse_request(payload, &error);
  return request.has_value() && request->op == service::Op::kShutdown;
}

/// Every checked-in fuzz seed for the two untrusted surfaces the daemon
/// exposes (the framed protocol itself, and .eh_frame bytes smuggled in
/// as payloads) is replayed two ways against a live server: verbatim
/// (whatever framing the seed carries) and re-framed as one opaque
/// payload. The server must answer every well-framed hostile payload with
/// a status:"error" reply — never an ok, never a crash — and must still
/// answer a ping after each input.
TEST(Service, HostileCorpusReplayGetsErrorRepliesAndStaysLive) {
  namespace fs = std::filesystem;
  std::vector<fs::path> inputs;
  for (const char* sub : {"service_frame", "ehframe"}) {
    const fs::path dir = fs::path(FETCH_FUZZ_CORPUS_DIR) / sub;
    ASSERT_TRUE(fs::exists(dir)) << dir;
    for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
      if (entry.is_regular_file()) {
        inputs.push_back(entry.path());
      }
    }
  }
  std::sort(inputs.begin(), inputs.end());
  ASSERT_FALSE(inputs.empty());

  TestServer server;
  std::string error;
  std::size_t error_replies = 0;

  for (const fs::path& path : inputs) {
    SCOPED_TRACE(path.filename().string());
    const std::vector<std::uint8_t> bytes = read_bytes(path);
    const std::string as_payload(bytes.begin(), bytes.end());
    const std::string frame_payload =
        bytes.size() >= 4 ? as_payload.substr(4) : std::string();

    // Verbatim replay: the seed's own bytes on the wire. Torn or
    // oversize frames may get the connection dropped without a reply;
    // what is never acceptable is a hang or a reply that is not a
    // status document.
    if (!is_shutdown_payload(frame_payload)) {
      auto fd = util::unix_connect(server.socket(), &error);
      ASSERT_TRUE(fd.has_value()) << error;
      std::size_t sent = 0;
      while (sent < bytes.size()) {
        const ssize_t n = ::send(fd->get(), bytes.data() + sent,
                                 bytes.size() - sent, MSG_NOSIGNAL);
        ASSERT_GT(n, 0);
        sent += static_cast<std::size_t>(n);
      }
      ::shutdown(fd->get(), SHUT_WR);
      ASSERT_GT(util::poll_readable(fd->get(), 5000), 0)
          << "server answered nothing within 5s";
      std::string reply;
      if (util::read_frame(fd->get(), &reply, &error) ==
          util::FrameStatus::kOk) {
        const auto doc = util::json::Value::parse(reply);
        ASSERT_TRUE(doc.has_value()) << reply;
        EXPECT_NE(doc->get("status"), nullptr) << reply;
      }
    }

    // Re-framed replay: the whole file as one opaque payload. None of
    // the seeds is valid request JSON when wrapped this way, so every
    // reply must be an error — an ok here would be a wrong-success.
    if (!is_shutdown_payload(as_payload)) {
      auto fd = util::unix_connect(server.socket(), &error);
      ASSERT_TRUE(fd.has_value()) << error;
      ASSERT_TRUE(util::write_frame(fd->get(), as_payload, &error)) << error;
      std::string reply;
      ASSERT_EQ(util::read_frame(fd->get(), &reply, &error),
                util::FrameStatus::kOk)
          << error;
      const auto doc = util::json::Value::parse(reply);
      ASSERT_TRUE(doc.has_value()) << reply;
      const util::json::Value* status = doc->get("status");
      ASSERT_NE(status, nullptr) << reply;
      if (!service::parse_request(as_payload, &error).has_value()) {
        EXPECT_EQ(status->text(), "error") << reply;
        ++error_replies;
      }
    }

    // Liveness: the daemon took the hostile input in stride.
    auto client = server.connect();
    EXPECT_TRUE(client.ping(&error)) << path << ": " << error;
  }

  // The corpus actually exercised the error paths, not just valid seeds.
  EXPECT_GT(error_replies, inputs.size() / 2);
}

#endif  // FETCH_FUZZ_CORPUS_DIR

}  // namespace
}  // namespace fetch
