#pragma once

/// \file server.hpp
/// The resident analysis daemon behind `fetch-cli serve`, rebuilt as an
/// event-driven server that degrades gracefully under overload instead
/// of hanging or crashing.
///
/// Threading model: run() is the I/O thread. It owns every socket in
/// non-blocking mode behind one epoll instance, assembles frames
/// incrementally (util::FrameAssembler — a client trickling one byte per
/// second costs a buffer, never a thread), and answers cheap ops (ping,
/// stats, shutdown, protocol errors) inline. Queries are pushed onto a
/// **bounded** queue consumed by a fixed worker pool; when the queue is
/// full the client gets an immediate `overloaded` error response — shed
/// load, never hang. Workers analyze (mmap read path, content-hash
/// keyed single-flight LRU, and a stat-identity memo that answers a hit
/// on an unchanged file without reading it) and hand the serialized
/// response back to the I/O thread through a completion list + eventfd
/// wakeup; only the I/O thread ever writes to a socket.
///
/// Deadlines: a timer wheel enforces a per-connection idle timeout
/// (measured from the last *complete* frame, so slow-loris byte
/// trickling does not count as activity) and a write-stall timeout (a
/// client that stops draining its responses is evicted once its
/// buffered output has aged past the deadline). Connections beyond
/// --max-connections are rejected at accept time with a best-effort
/// `overloaded` frame; EMFILE/ENFILE is absorbed by a reserved-fd
/// accept-then-reject plus a listener backoff instead of a busy spin.
///
/// stop() — from a shutdown request, a signal, or another thread —
/// stops reads and the listener, lets queued and running analyses
/// finish, flushes every response, then returns from run().

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "eval/session.hpp"
#include "obs/metrics.hpp"
#include "service/protocol.hpp"
#include "util/framing.hpp"
#include "util/fs.hpp"
#include "util/lru.hpp"
#include "util/socket.hpp"
#include "util/timer_wheel.hpp"

namespace fetch::service {

struct ServerOptions {
  std::string socket_path;  ///< empty = default_socket_path()
  /// Analysis workers (one analysis can run per worker);
  /// 0 = FETCH_JOBS env, else hardware concurrency.
  std::size_t workers = 0;
  /// Total result-cache entries across all shards.
  std::size_t cache_capacity = 256;
  /// Result-cache shards (lock granularity). 1 = fully deterministic
  /// global LRU order; the default trades that for less contention.
  std::size_t cache_shards = 8;
  /// Hard cap on concurrently open client connections; further clients
  /// are rejected at accept time with an `overloaded` error frame.
  std::size_t max_connections = 256;
  /// Bounded analysis-queue depth; 0 = max(32, 8 × workers). A full
  /// queue sheds queries with an immediate `overloaded` error.
  std::size_t queue_depth = 0;
  /// Evict a connection after this long without a complete request
  /// frame (and with no analysis in flight for it). 0 disables.
  std::uint64_t idle_timeout_ms = 30'000;
  /// Evict a connection whose buffered responses it has not drained for
  /// this long (slow/stalled reader). 0 disables.
  std::uint64_t write_stall_ms = 10'000;
  /// Log (at warn) any query whose wall time meets or exceeds this many
  /// milliseconds, with its trace id and per-stage timings. 0 disables.
  std::uint64_t slow_query_ms = 0;
};

class ServiceServer {
 public:
  explicit ServiceServer(ServerOptions options);
  ~ServiceServer();

  ServiceServer(const ServiceServer&) = delete;
  ServiceServer& operator=(const ServiceServer&) = delete;

  /// Binds + listens. false + *error when the socket cannot be created
  /// (path too long, permissions, or a live server already there).
  [[nodiscard]] bool start(std::string* error);

  /// Serves until stop(). Call after start(); returns once the listener
  /// is closed and every in-flight request has been answered.
  void run();

  /// Initiates shutdown; safe from any thread and idempotent.
  void stop();

  [[nodiscard]] bool stopping() const {
    return stopping_.load(std::memory_order_acquire);
  }
  [[nodiscard]] const std::string& socket_path() const {
    return options_.socket_path;
  }
  [[nodiscard]] const ServerOptions& options() const { return options_; }

  /// This server's metrics: every name in its Registry (connection,
  /// queue and query counters, gauges and latency histograms), the
  /// result cache's counters, and the uptime. The `metrics` op adds
  /// obs::Registry::global() to it; the `stats` op is stats_view of it.
  [[nodiscard]] obs::Snapshot metrics() const;

 private:
  /// Per-connection state, owned exclusively by the I/O thread.
  ///
  /// The protocol has no request ids, so a pipelining client must see
  /// responses in request order even though workers finish out of
  /// order and cheap ops are answered inline. Every request frame is
  /// assigned a sequence number (seq_alloc); its reply parks in
  /// `ready` until every earlier reply has been appended to outbuf.
  struct Connection {
    util::Fd fd;
    std::uint64_t id = 0;
    util::FrameAssembler assembler;
    std::string outbuf;        ///< wire bytes not yet accepted by send()
    std::size_t out_off = 0;   ///< bytes of outbuf already sent
    std::size_t inflight = 0;  ///< queued or running analyses for this conn
    std::uint64_t seq_alloc = 0;  ///< next request sequence number
    std::uint64_t seq_send = 0;   ///< next reply sequence to emit
    std::map<std::uint64_t, std::string> ready;  ///< out-of-order replies
    std::uint32_t events = 0;  ///< epoll interest mask currently armed
    bool read_open = true;     ///< false after EOF / poisoned stream / drain
    bool reads_paused = false; ///< backpressure: outbuf too large
    bool close_after_flush = false;
    std::uint64_t idle_deadline_ms = 0;   ///< 0 = disarmed
    std::uint64_t write_deadline_ms = 0;  ///< 0 = disarmed

    /// Response bytes still owed to the client (buffered or parked).
    [[nodiscard]] bool output_pending() const {
      return out_off < outbuf.size() || !ready.empty();
    }
  };

  struct Job {
    std::uint64_t conn_id = 0;
    std::uint64_t seq = 0;  ///< reply slot on that connection
    std::string path;
    std::string trace_id;         ///< echoed in the reply
    std::uint64_t enqueue_us = 0; ///< steady µs at enqueue (queue-wait metric)
  };

  struct Completion {
    std::uint64_t conn_id = 0;
    std::uint64_t seq = 0;
    std::string frame;  ///< full wire bytes: header + payload
  };

  // --- I/O-thread helpers (never called from workers) ---
  void accept_ready(std::uint64_t now_ms);
  void handle_emfile();
  void read_ready(Connection* conn, std::uint64_t now_ms);
  void dispatch_frames(Connection* conn, std::uint64_t now_ms);
  void handle_frame(Connection* conn, const std::string& payload,
                    std::uint64_t now_ms);
  /// Parks \p frame in reply slot \p seq and appends every slot that is
  /// now contiguous to outbuf, then flushes.
  void queue_reply(Connection* conn, std::uint64_t seq, std::string frame,
                   std::uint64_t now_ms);
  void flush_conn(Connection* conn, std::uint64_t now_ms);
  void update_interest(Connection* conn);
  void arm_idle(Connection* conn, std::uint64_t now_ms);
  void close_conn(std::uint64_t id);
  void drain_completions(std::uint64_t now_ms);
  void expire_timers(std::uint64_t now_ms);
  void begin_drain(std::uint64_t now_ms);
  [[nodiscard]] bool drain_complete() const;
  [[nodiscard]] util::json::Value stats_response(Op op) const;
  /// fetch-metrics-v1 document: metrics() merged with
  /// obs::Registry::global() (decode cache, disassembly, session stages).
  [[nodiscard]] util::json::Value metrics_response() const;

  /// What stat says identifies a file's bytes: where it lives and the
  /// size and timestamps the kernel reports for it.
  struct FileIdentity {
    std::uint64_t dev = 0;
    std::uint64_t ino = 0;
    std::int64_t size = 0;
    std::int64_t mtime_ns = 0;
    std::int64_t ctime_ns = 0;

    [[nodiscard]] static FileIdentity of(const struct stat& st);
    /// The memo key: a hash of (dev, ino). Several files may share a
    /// key, so a lookup compares the whole identity.
    [[nodiscard]] std::uint64_t key() const;
    bool operator==(const FileIdentity&) const = default;
  };

  /// A file's identity when its content was hashed, and that hash.
  struct HashMemo {
    FileIdentity identity;
    std::uint64_t content_hash = 0;
  };

  // --- worker-side ---
  void worker_loop();
  [[nodiscard]] std::string run_query(const Job& job);
  /// The cached reply body for \p path when its stat matches a memoised
  /// identity and that content's result is still cached; else nullptr.
  [[nodiscard]] std::shared_ptr<const std::string> memo_lookup(
      const std::string& path);
  /// Memoises \p content_hash for \p file when the file did not change
  /// while it was hashed and its timestamps are settled: both at least
  /// kSettledNs older than \p wall_ns, the wall clock read before map().
  void memo_store(const util::MappedFile& file, std::int64_t wall_ns,
                  std::uint64_t content_hash);

  ServerOptions options_;
  std::size_t effective_queue_depth_ = 0;
  eval::AnalysisSession session_;
  /// Content hash -> encode_result_body of that content's analysis.
  util::ShardedLru<std::string> cache_;
  /// Hash of (st_dev, st_ino) -> the content hash last computed for that
  /// file, so a hit on an unchanged file skips reading and hashing it.
  util::ShardedLru<HashMemo> memo_;
  util::Fd listener_;
  util::Fd epoll_;
  util::Fd wake_event_;   ///< eventfd: worker completions + stop() wakeups
  util::Fd reserve_fd_;   ///< /dev/null, sacrificed to accept under EMFILE
  std::atomic<bool> stopping_{false};

  // I/O-thread-only state.
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> connections_;
  std::uint64_t next_conn_id_ = 1;
  util::TimerWheel timers_;
  std::uint64_t listener_paused_until_ms_ = 0;  ///< EMFILE backoff
  bool draining_ = false;
  std::uint64_t drain_deadline_ms_ = 0;

  // Analysis queue (I/O thread enqueues, workers dequeue).
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Job> queue_;
  bool workers_stop_ = false;
  std::vector<std::thread> workers_;

  // Completions (workers append, I/O thread drains after eventfd wake).
  std::mutex completions_mu_;
  std::vector<Completion> completions_;

  /// Queries enqueued but whose responses the I/O thread has not yet
  /// consumed — the drain barrier for graceful shutdown.
  std::atomic<std::uint64_t> jobs_outstanding_{0};

  std::uint64_t start_ms_ = 0;  ///< set by start(); uptime anchor

  /// Per-server metrics, NOT in the global registry, so two in-process
  /// servers (the tests run several) never share them. The constructor
  /// registers every name, so each exists at zero, and resolves these
  /// handles once: updating one takes no lock and no name lookup.
  obs::Registry registry_;
  obs::Counter& accepted_;              ///< connections ever accepted
  obs::Counter& rejected_connections_;  ///< over the --max-connections cap
  obs::Counter& emfile_rejections_;     ///< shed via the reserve-fd path
  obs::Counter& idle_timeouts_;         ///< connections evicted for idling
  obs::Counter& write_stall_timeouts_;  ///< evicted for not draining writes
  obs::Counter& queries_shed_;          ///< queries answered "overloaded"
  obs::Counter& frames_shed_;           ///< frames dropped (poisoned stream)
  obs::Counter& slow_queries_;          ///< queries over --slow-query-ms
  obs::Gauge& active_;                  ///< connections open right now
  obs::Gauge& peak_active_;             ///< high-water mark of active_
  obs::Gauge& queue_depth_;             ///< analysis queue depth right now
  obs::Gauge& queue_high_water_;        ///< max queue depth ever observed
  obs::Histogram& queue_wait_us_;       ///< enqueue → worker dequeue
  obs::Histogram& query_us_;            ///< worker dequeue → reply encoded
  obs::Counter& hash_skipped_;          ///< hits answered from memo_
  obs::Histogram& hash_us_;             ///< content hash of one readable query
};

}  // namespace fetch::service
