#include "service/server.hpp"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <optional>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "obs/log.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/hash.hpp"
#include "util/thread_pool.hpp"

namespace fetch::service {

namespace {

/// epoll user-data tags for the two non-connection descriptors; real
/// connection ids start at 1 and never reach this range.
constexpr std::uint64_t kListenerTag = ~std::uint64_t{0};
constexpr std::uint64_t kWakeTag = ~std::uint64_t{0} - 1;

/// Pause reading from a connection once this much response data is
/// buffered for it — backpressure instead of unbounded memory growth
/// when a client pipelines queries faster than it drains answers.
constexpr std::size_t kOutbufPauseBytes = 1u << 20;

/// How long accept() stays parked after EMFILE/ENFILE before retrying.
constexpr std::uint64_t kEmfileBackoffMs = 100;

/// How long a graceful drain may take before remaining connections are
/// closed with responses unflushed (a stalled reader must not be able
/// to block shutdown forever).
constexpr std::uint64_t kDrainDeadlineMs = 5'000;

std::uint64_t now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Timer-wheel ids: each connection arms at most one idle and one
/// write-stall deadline, multiplexed over one id space.
std::uint64_t idle_timer_id(std::uint64_t conn_id) { return conn_id * 2; }
std::uint64_t write_timer_id(std::uint64_t conn_id) { return conn_id * 2 + 1; }

/// A memoised content hash is trusted only for a file whose mtime and
/// ctime were at least this much older than the wall clock before it was
/// hashed. A write after that moves ctime to "now", past the stored
/// value, however coarse the file system's timestamps are.
constexpr std::int64_t kSettledNs = 2'000'000'000;

std::int64_t wall_clock_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

std::int64_t timespec_ns(const timespec& ts) {
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

const char* outcome_name(util::ShardedLru<std::string>::Outcome outcome) {
  using Outcome = util::ShardedLru<std::string>::Outcome;
  switch (outcome) {
    case Outcome::kHit:
      return "hit";
    case Outcome::kComputed:
      return "miss";
    case Outcome::kJoined:
      return "joined";
  }
  return "?";
}

}  // namespace

ServiceServer::ServiceServer(ServerOptions options)
    : options_(std::move(options)),
      cache_(options_.cache_capacity, options_.cache_shards),
      memo_(options_.cache_capacity, options_.cache_shards),
      accepted_(registry_.counter("service_accepted_total")),
      rejected_connections_(
          registry_.counter("service_rejected_connections_total")),
      emfile_rejections_(registry_.counter("service_emfile_rejections_total")),
      idle_timeouts_(registry_.counter("service_idle_timeouts_total")),
      write_stall_timeouts_(
          registry_.counter("service_write_stall_timeouts_total")),
      queries_shed_(registry_.counter("service_queries_shed_total")),
      frames_shed_(registry_.counter("service_frames_shed_total")),
      slow_queries_(registry_.counter("service_slow_queries_total")),
      active_(registry_.gauge("service_active_connections")),
      peak_active_(registry_.gauge("service_peak_active_connections")),
      queue_depth_(registry_.gauge("service_queue_depth")),
      queue_high_water_(registry_.gauge("service_queue_high_water")),
      queue_wait_us_(registry_.histogram("service_queue_wait_us")),
      query_us_(registry_.histogram("service_query_us")),
      hash_skipped_(registry_.counter("service_hash_skipped_total")),
      hash_us_(registry_.histogram("service_hash_us")) {
  if (options_.socket_path.empty()) {
    options_.socket_path = default_socket_path();
  }
  if (options_.workers == 0) {
    options_.workers = util::default_jobs();
  }
  effective_queue_depth_ = options_.queue_depth != 0
                               ? options_.queue_depth
                               : std::max<std::size_t>(32, 8 * options_.workers);
  registry_.gauge("service_workers")
      .set(static_cast<std::int64_t>(options_.workers));
  registry_.gauge("cache_capacity")
      .set(static_cast<std::int64_t>(cache_.capacity()));
  registry_.gauge("cache_shards")
      .set(static_cast<std::int64_t>(cache_.shard_count()));
}

ServiceServer::~ServiceServer() {
  if (listener_.valid()) {
    listener_.reset();
    ::unlink(options_.socket_path.c_str());
  }
}

bool ServiceServer::start(std::string* error) {
  auto fd = util::unix_listen(options_.socket_path, /*backlog=*/128, error);
  if (!fd) {
    return false;
  }
  if (!util::set_nonblocking(fd->get())) {
    *error = "cannot make listener non-blocking";
    return false;
  }
  listener_ = std::move(*fd);
  // Create the event-loop descriptors here, on the caller's thread,
  // before run() can be spawned: stop() reads wake_event_ from
  // arbitrary threads, so these members must never be assigned once
  // the loop thread exists.
  epoll_ = util::Fd(::epoll_create1(EPOLL_CLOEXEC));
  if (!epoll_.valid()) {
    *error = "cannot create epoll instance";
    return false;
  }
  wake_event_ = util::Fd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
  if (!wake_event_.valid()) {
    *error = "cannot create wakeup eventfd";
    return false;
  }
  reserve_fd_ = util::Fd(::open("/dev/null", O_RDONLY | O_CLOEXEC));
  start_ms_ = now_ms();
  return true;
}

obs::Snapshot ServiceServer::metrics() const {
  obs::Snapshot snap;
  registry_.collect(&snap);
  const util::LruStats cache = cache_.stats();
  snap.set_counter("cache_hits_total", cache.hits);
  snap.set_counter("cache_misses_total", cache.misses);
  snap.set_counter("cache_joined_total", cache.joined);
  snap.set_counter("cache_evictions_total", cache.evictions);
  // lookups() == hits + misses + joined; exported so consumers (and the
  // conservation test) need no client-side arithmetic.
  snap.set_counter("cache_lookups_total", cache.lookups());
  snap.set_gauge("cache_entries", static_cast<std::int64_t>(cache.entries));
  snap.set_gauge("service_uptime_ms",
                 static_cast<std::int64_t>(
                     start_ms_ != 0 ? now_ms() - start_ms_ : 0));
  return snap;
}

void ServiceServer::run() {
  FETCH_ASSERT(listener_.valid());
  // epoll_ / wake_event_ were created in start(); never reassign them
  // here — stop() may read wake_event_ concurrently from any thread.
  FETCH_ASSERT(epoll_.valid());
  FETCH_ASSERT(wake_event_.valid());

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenerTag;
  ::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, listener_.get(), &ev);
  ev.data.u64 = kWakeTag;
  ::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, wake_event_.get(), &ev);

  workers_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  obs::log_info("service", "serving",
                {{"socket", options_.socket_path},
                 {"workers", std::to_string(options_.workers)},
                 {"queue_depth", std::to_string(effective_queue_depth_)},
                 {"max_connections",
                  std::to_string(options_.max_connections)}});

  std::vector<epoll_event> events(64);
  std::vector<std::uint64_t> expired;
  for (;;) {
    const std::uint64_t loop_now = now_ms();
    if (stopping() && !draining_) {
      begin_drain(loop_now);
    }
    if (draining_ &&
        (drain_complete() || loop_now >= drain_deadline_ms_)) {
      break;
    }
    // Resume a listener parked by EMFILE backoff.
    if (listener_paused_until_ms_ != 0 &&
        loop_now >= listener_paused_until_ms_ && !draining_) {
      listener_paused_until_ms_ = 0;
      epoll_event lev{};
      lev.events = EPOLLIN;
      lev.data.u64 = kListenerTag;
      ::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, listener_.get(), &lev);
    }

    // Bound the wait by the earliest timer (or EMFILE resume), capped at
    // 100 ms so external state changes are never missed for long.
    int timeout = 100;
    std::uint64_t next = timers_.next_deadline();
    if (listener_paused_until_ms_ != 0 &&
        (next == 0 || listener_paused_until_ms_ < next)) {
      next = listener_paused_until_ms_;
    }
    if (next != 0) {
      timeout = next <= loop_now
                    ? 0
                    : static_cast<int>(
                          std::min<std::uint64_t>(next - loop_now, 100));
    }
    const int n =
        ::epoll_wait(epoll_.get(), events.data(),
                     static_cast<int>(events.size()), timeout);
    const std::uint64_t wake_now = now_ms();
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      if (tag == kListenerTag) {
        accept_ready(wake_now);
        continue;
      }
      if (tag == kWakeTag) {
        std::uint64_t counter = 0;
        while (::read(wake_event_.get(), &counter, sizeof(counter)) ==
               static_cast<ssize_t>(sizeof(counter))) {
        }
        drain_completions(wake_now);
        continue;
      }
      const auto it = connections_.find(tag);
      if (it == connections_.end()) {
        continue;  // closed earlier in this batch
      }
      Connection* conn = it->second.get();
      const std::uint32_t flags = events[i].events;
      if ((flags & (EPOLLERR | EPOLLHUP)) != 0 && (flags & EPOLLIN) == 0) {
        close_conn(tag);
        continue;
      }
      if ((flags & EPOLLOUT) != 0) {
        flush_conn(conn, wake_now);
        if (connections_.find(tag) == connections_.end()) {
          continue;  // flush closed it
        }
      }
      if ((flags & (EPOLLIN | EPOLLHUP)) != 0) {
        read_ready(conn, wake_now);
      }
    }
    // Completions can also arrive while we were busy with sockets.
    drain_completions(wake_now);
    expire_timers(wake_now);
  }

  // Workers: the drain barrier (jobs_outstanding_ == 0) means the queue
  // is already empty, so the stop flag is observed immediately.
  {
    const std::lock_guard<std::mutex> lock(queue_mu_);
    workers_stop_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
  workers_.clear();

  connections_.clear();
  active_.set(0);
  const obs::Snapshot last = metrics();
  const auto counter = [&last](const char* name) {
    return std::to_string(last.counters().at(name));
  };
  obs::log_info(
      "service", "stopped",
      {{"socket", options_.socket_path},
       {"uptime_ms", std::to_string(last.gauges().at("service_uptime_ms"))},
       {"hits", counter("cache_hits_total")},
       {"misses", counter("cache_misses_total")},
       {"joined", counter("cache_joined_total")},
       {"evictions", counter("cache_evictions_total")},
       {"shed", counter("service_queries_shed_total")},
       {"rejected", counter("service_rejected_connections_total")}});
  // epoll_ and wake_event_ stay open until destruction: a racing stop()
  // from another thread may still poke the eventfd, and writing into a
  // recycled descriptor would be far worse than holding two fds.
}

void ServiceServer::stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) {
    return;
  }
  // Wake the event loop if it is parked in epoll_wait.
  if (wake_event_.valid()) {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t rc =
        ::write(wake_event_.get(), &one, sizeof(one));
  }
}

void ServiceServer::begin_drain(std::uint64_t now) {
  draining_ = true;
  drain_deadline_ms_ = now + kDrainDeadlineMs;
  obs::log_info(
      "service", "draining",
      {{"connections", std::to_string(connections_.size())},
       {"jobs_outstanding",
        std::to_string(jobs_outstanding_.load(std::memory_order_acquire))}});
  // No new clients, no new requests: close the listener and stop
  // reading everywhere. Queued and running analyses still complete and
  // their responses still flush.
  if (listener_.valid()) {
    ::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, listener_.get(), nullptr);
    listener_.reset();
    ::unlink(options_.socket_path.c_str());
  }
  std::vector<std::uint64_t> idle_ids;
  for (auto& [id, conn] : connections_) {
    conn->read_open = false;
    update_interest(conn.get());
    if (conn->inflight == 0 && !conn->output_pending()) {
      idle_ids.push_back(id);
    }
  }
  for (const std::uint64_t id : idle_ids) {
    close_conn(id);
  }
}

bool ServiceServer::drain_complete() const {
  if (jobs_outstanding_.load(std::memory_order_acquire) != 0) {
    return false;
  }
  for (const auto& [id, conn] : connections_) {
    if (conn->output_pending() || conn->inflight != 0) {
      return false;
    }
  }
  return true;
}

// --- Accept path ------------------------------------------------------------

void ServiceServer::accept_ready(std::uint64_t now) {
  if (draining_ || listener_paused_until_ms_ != 0) {
    return;
  }
  for (;;) {
    const int cfd = ::accept4(listener_.get(), nullptr, nullptr,
                              SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (cfd < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return;
      }
      if (errno == EMFILE || errno == ENFILE) {
        handle_emfile();
        return;
      }
      return;  // transient (ECONNABORTED etc.): keep serving
    }
    accepted_.add();
    if (connections_.size() >= options_.max_connections) {
      // Over the hard cap: tell the client it is load, not protocol,
      // then hang up. Best-effort — the socket buffer of a freshly
      // accepted connection is empty, so the frame virtually always
      // fits without blocking.
      rejected_connections_.add();
      obs::log_warn("service", "connection rejected: at --max-connections",
                    {{"active", std::to_string(connections_.size())}});
      const std::string frame = encode_frame(error_response(
          "server is at its connection limit", kErrOverloaded));
      [[maybe_unused]] const ssize_t rc =
          ::send(cfd, frame.data(), frame.size(), MSG_NOSIGNAL);
      ::close(cfd);
      continue;
    }
    const std::uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<Connection>();
    conn->fd = util::Fd(cfd);
    conn->id = id;
    conn->events = EPOLLIN;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, cfd, &ev) != 0) {
      continue;  // conn's Fd closes it on scope exit
    }
    arm_idle(conn.get(), now);
    connections_.emplace(id, std::move(conn));
    const auto active = static_cast<std::int64_t>(connections_.size());
    active_.set(active);
    peak_active_.bump_max(active);
  }
}

void ServiceServer::handle_emfile() {
  // Out of descriptors: accept() fails but the pending connection keeps
  // the listener readable, which level-triggered epoll would turn into
  // a 100% CPU spin. Sacrifice the reserved fd to accept-then-close the
  // connection (the client sees a hangup instead of a dead socket),
  // then park the listener briefly so the loop stays quiet even if the
  // backlog is full of further connections we cannot serve.
  emfile_rejections_.add();
  obs::log_warn("service", "out of file descriptors: shedding via reserve fd");
  if (reserve_fd_.valid()) {
    reserve_fd_.reset();
    const int cfd = ::accept(listener_.get(), nullptr, nullptr);
    if (cfd >= 0) {
      ::close(cfd);
    }
    reserve_fd_ = util::Fd(::open("/dev/null", O_RDONLY | O_CLOEXEC));
  }
  ::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, listener_.get(), nullptr);
  listener_paused_until_ms_ = now_ms() + kEmfileBackoffMs;
}

// --- Read path --------------------------------------------------------------

void ServiceServer::read_ready(Connection* conn, std::uint64_t now) {
  if (!conn->read_open) {
    return;
  }
  const std::uint64_t id = conn->id;
  std::uint8_t buf[64 * 1024];
  bool saw_eof = false;
  for (;;) {
    const ssize_t n = ::recv(conn->fd.get(), buf, sizeof(buf), 0);
    if (n > 0) {
      std::string perr;
      if (!conn->assembler.push({buf, static_cast<std::size_t>(n)}, &perr)) {
        // Oversize header: the stream cannot be resynchronized. Answer
        // with the reason, then close once the reply has flushed.
        frames_shed_.add();
        dispatch_frames(conn, now);  // frames completed before the poison
        if (connections_.find(id) == connections_.end()) {
          return;
        }
        conn->read_open = false;
        conn->close_after_flush = true;
        const std::uint64_t seq = conn->seq_alloc++;
        queue_reply(conn, seq, encode_frame(error_response(perr)), now);
        return;
      }
      continue;
    }
    if (n == 0) {
      saw_eof = true;
      break;
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    }
    close_conn(id);  // ECONNRESET and friends
    return;
  }
  dispatch_frames(conn, now);
  if (connections_.find(id) == connections_.end()) {
    return;  // a dispatched frame closed the connection
  }
  if (saw_eof) {
    conn->read_open = false;
    if (conn->assembler.mid_frame()) {
      // Mid-frame disconnect: nobody is left to read a reply; count it
      // and let the close path run.
      frames_shed_.add();
    }
    update_interest(conn);
    if (conn->inflight == 0 && !conn->output_pending()) {
      close_conn(id);
    }
  }
}

void ServiceServer::dispatch_frames(Connection* conn, std::uint64_t now) {
  std::string payload;
  bool any = false;
  const std::uint64_t id = conn->id;
  while (conn->assembler.next(&payload)) {
    any = true;
    handle_frame(conn, payload, now);
    if (connections_.find(id) == connections_.end()) {
      return;  // handle_frame closed it
    }
  }
  if (any) {
    // Idle means "no complete request frame for a while" — trickled
    // bytes deliberately do not re-arm this clock.
    arm_idle(conn, now);
  }
}

void ServiceServer::handle_frame(Connection* conn, const std::string& payload,
                                 std::uint64_t now) {
  const std::uint64_t seq = conn->seq_alloc++;
  std::string error;
  const auto request = parse_request(payload, &error);
  if (!request) {
    // A malformed *request* in a well-formed frame is recoverable: reply
    // with the parse error and keep the connection open.
    queue_reply(conn, seq, encode_frame(error_response(error)), now);
    return;
  }
  switch (request->op) {
    case Op::kPing:
      queue_reply(conn, seq, encode_frame(ok_response(Op::kPing)), now);
      return;
    case Op::kStats:
      queue_reply(conn, seq, encode_frame(stats_response(Op::kStats)), now);
      return;
    case Op::kMetrics:
      queue_reply(conn, seq, encode_frame(metrics_response()), now);
      return;
    case Op::kShutdown: {
      const std::uint64_t id = conn->id;
      conn->close_after_flush = true;
      conn->read_open = false;
      queue_reply(conn, seq, encode_frame(stats_response(Op::kShutdown)),
                  now);
      if (const auto it = connections_.find(id); it != connections_.end()) {
        update_interest(it->second.get());
      }
      stop();
      return;
    }
    case Op::kQuery:
      break;
  }
  // Bounded handoff to the worker pool; a full queue is answered
  // immediately with `overloaded` instead of queueing without limit
  // (the client can back off and retry; a hang helps nobody).
  bool enqueued = false;
  {
    const std::lock_guard<std::mutex> lock(queue_mu_);
    if (queue_.size() < effective_queue_depth_) {
      // The trace id travels with the job and is echoed in the reply:
      // client-supplied when present, minted here otherwise.
      queue_.push_back(Job{conn->id, seq, request->path,
                           request->trace.empty() ? obs::mint_trace_id()
                                                  : request->trace,
                           now_us()});
      const auto depth = static_cast<std::int64_t>(queue_.size());
      queue_depth_.set(depth);
      queue_high_water_.bump_max(depth);
      enqueued = true;
    }
  }
  if (!enqueued) {
    queries_shed_.add();
    obs::log_warn("service", "query shed: analysis queue is full",
                  {{"path", request->path}});
    queue_reply(
        conn, seq,
        encode_frame(error_response("analysis queue is full", kErrOverloaded)),
        now);
    return;
  }
  conn->inflight++;
  jobs_outstanding_.fetch_add(1, std::memory_order_acq_rel);
  queue_cv_.notify_one();
}

util::json::Value ServiceServer::stats_response(Op op) const {
  util::json::Value response = ok_response(op);
  response.set("stats", stats_view(metrics()));
  return response;
}

util::json::Value ServiceServer::metrics_response() const {
  obs::Snapshot snap = metrics();
  // The global registry's names (codeview_, disasm_, session_, batch_)
  // never collide with this server's (service_, cache_).
  obs::Registry::global().collect(&snap);
  util::json::Value response = ok_response(Op::kMetrics);
  response.set("metrics", snap.json());
  return response;
}

// --- Write path -------------------------------------------------------------

void ServiceServer::queue_reply(Connection* conn, std::uint64_t seq,
                                std::string frame, std::uint64_t now) {
  conn->ready.emplace(seq, std::move(frame));
  bool appended = false;
  for (auto it = conn->ready.find(conn->seq_send); it != conn->ready.end();
       it = conn->ready.find(conn->seq_send)) {
    if (conn->outbuf.empty()) {
      conn->outbuf = std::move(it->second);
      conn->out_off = 0;
    } else {
      conn->outbuf.append(it->second);
    }
    conn->ready.erase(it);
    conn->seq_send++;
    appended = true;
  }
  if (appended) {
    flush_conn(conn, now);
  }
}

void ServiceServer::flush_conn(Connection* conn, std::uint64_t now) {
  const std::uint64_t id = conn->id;
  while (conn->out_off < conn->outbuf.size()) {
    const ssize_t n =
        ::send(conn->fd.get(), conn->outbuf.data() + conn->out_off,
               conn->outbuf.size() - conn->out_off, MSG_NOSIGNAL);
    if (n >= 0) {
      conn->out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // Kernel buffer full: hand the rest to epoll and start (or keep)
      // the write-stall clock — a reader that never drains is evicted.
      if (conn->write_deadline_ms == 0 && options_.write_stall_ms != 0) {
        conn->write_deadline_ms = now + options_.write_stall_ms;
        timers_.schedule(write_timer_id(id), conn->write_deadline_ms);
      }
      if (conn->outbuf.size() - conn->out_off > kOutbufPauseBytes &&
          !conn->reads_paused) {
        conn->reads_paused = true;
      }
      update_interest(conn);
      return;
    }
    close_conn(id);  // EPIPE/ECONNRESET: peer is gone
    return;
  }
  // Fully drained.
  conn->outbuf.clear();
  conn->out_off = 0;
  conn->write_deadline_ms = 0;
  timers_.cancel(write_timer_id(id));
  conn->reads_paused = false;
  if ((conn->close_after_flush || !conn->read_open) && conn->inflight == 0 &&
      conn->ready.empty()) {
    close_conn(id);
    return;
  }
  update_interest(conn);
}

void ServiceServer::update_interest(Connection* conn) {
  std::uint32_t want = 0;
  if (conn->read_open && !conn->reads_paused && !draining_) {
    want |= EPOLLIN;
  }
  if (conn->out_off < conn->outbuf.size()) {
    want |= EPOLLOUT;
  }
  if (want == conn->events) {
    return;
  }
  epoll_event ev{};
  ev.events = want;
  ev.data.u64 = conn->id;
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, conn->fd.get(), &ev) == 0) {
    conn->events = want;
  }
}

// --- Timers -----------------------------------------------------------------

void ServiceServer::arm_idle(Connection* conn, std::uint64_t now) {
  if (options_.idle_timeout_ms == 0) {
    return;
  }
  conn->idle_deadline_ms = now + options_.idle_timeout_ms;
  timers_.schedule(idle_timer_id(conn->id), conn->idle_deadline_ms);
}

void ServiceServer::expire_timers(std::uint64_t now) {
  std::vector<std::uint64_t> expired;
  timers_.expire(now, &expired);
  for (const std::uint64_t tid : expired) {
    const std::uint64_t conn_id = tid / 2;
    const auto it = connections_.find(conn_id);
    if (it == connections_.end()) {
      continue;  // stale entry for a closed connection
    }
    Connection* conn = it->second.get();
    if (tid == idle_timer_id(conn_id)) {
      if (conn->idle_deadline_ms == 0 || now < conn->idle_deadline_ms) {
        if (conn->idle_deadline_ms != 0) {
          timers_.schedule(tid, conn->idle_deadline_ms);
        }
        continue;
      }
      if (conn->inflight != 0 || conn->write_deadline_ms != 0) {
        // Busy is not idle: an analysis is still running for this
        // client, or a stalled flush is already on the write-stall
        // clock (which owns the eviction decision). Re-arm and check
        // again later.
        arm_idle(conn, now);
        continue;
      }
      idle_timeouts_.add();
      close_conn(conn_id);
    } else {
      if (conn->write_deadline_ms == 0 || now < conn->write_deadline_ms) {
        if (conn->write_deadline_ms != 0) {
          timers_.schedule(tid, conn->write_deadline_ms);
        }
        continue;
      }
      if (conn->out_off >= conn->outbuf.size()) {
        continue;  // drained in the meantime; flush already disarmed
      }
      write_stall_timeouts_.add();
      close_conn(conn_id);
    }
  }
}

void ServiceServer::close_conn(std::uint64_t id) {
  const auto it = connections_.find(id);
  if (it == connections_.end()) {
    return;
  }
  timers_.cancel(idle_timer_id(id));
  timers_.cancel(write_timer_id(id));
  ::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, it->second->fd.get(), nullptr);
  connections_.erase(it);
  active_.set(static_cast<std::int64_t>(connections_.size()));
}

// --- Worker side ------------------------------------------------------------

void ServiceServer::drain_completions(std::uint64_t now) {
  std::vector<Completion> batch;
  {
    const std::lock_guard<std::mutex> lock(completions_mu_);
    batch.swap(completions_);
  }
  for (Completion& completion : batch) {
    const auto it = connections_.find(completion.conn_id);
    if (it != connections_.end()) {
      Connection* conn = it->second.get();
      conn->inflight--;
      queue_reply(conn, completion.seq, std::move(completion.frame), now);
      // queue_reply may close the connection (write error, or EOF seen
      // earlier with this being the last in-flight response).
    }
    jobs_outstanding_.fetch_sub(1, std::memory_order_acq_rel);
  }
}

void ServiceServer::worker_loop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock,
                     [this] { return workers_stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // workers_stop_ and nothing left to do
      }
      job = std::move(queue_.front());
      queue_.pop_front();
      queue_depth_.set(static_cast<std::int64_t>(queue_.size()));
    }
    queue_wait_us_.record_us(now_us() - job.enqueue_us);
    std::string frame = run_query(job);
    {
      const std::lock_guard<std::mutex> lock(completions_mu_);
      completions_.push_back(
          Completion{job.conn_id, job.seq, std::move(frame)});
    }
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t rc =
        ::write(wake_event_.get(), &one, sizeof(one));
  }
}

ServiceServer::FileIdentity ServiceServer::FileIdentity::of(
    const struct stat& st) {
  return {static_cast<std::uint64_t>(st.st_dev),
          static_cast<std::uint64_t>(st.st_ino),
          static_cast<std::int64_t>(st.st_size), timespec_ns(st.st_mtim),
          timespec_ns(st.st_ctim)};
}

std::uint64_t ServiceServer::FileIdentity::key() const {
  return util::fnv1a(dev, ino);
}

std::shared_ptr<const std::string> ServiceServer::memo_lookup(
    const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) {
    return nullptr;
  }
  const FileIdentity identity = FileIdentity::of(st);
  const std::shared_ptr<const HashMemo> memo = memo_.find(identity.key());
  if (memo == nullptr || memo->identity != identity) {
    return nullptr;
  }
  return cache_.find(memo->content_hash);
}

void ServiceServer::memo_store(const util::MappedFile& file,
                               std::int64_t wall_ns,
                               std::uint64_t content_hash) {
  const FileIdentity identity = FileIdentity::of(file.status());
  struct stat after {};
  if (!file.restat(&after) || FileIdentity::of(after) != identity) {
    return;  // changed while it was hashed
  }
  const std::int64_t settled = wall_ns - kSettledNs;
  if (identity.mtime_ns > settled || identity.ctime_ns > settled) {
    return;  // racily clean: a write may not have moved the timestamps yet
  }
  memo_.put(identity.key(),
            std::make_shared<const HashMemo>(HashMemo{identity, content_hash}));
}

std::string ServiceServer::run_query(const Job& job) {
  const std::string& path = job.path;
  obs::Trace trace(job.trace_id);
  obs::Span query_span(nullptr, "query", &query_us_);

  // A hit on a file whose stat identity is unchanged since it was hashed
  // is answered without opening it (memo_lookup). Everything else reads
  // and hashes the file, then consults the cache, so the cache stays
  // content-addressed: a changed binary at the same path is a different
  // key, the same binary at a different path is a hit, and a miss
  // analyzes exactly the bytes whose hash it just computed. mmap avoids
  // copying multi-MiB binaries into a heap buffer just to hash them. A
  // path that is not a readable regular file (missing, a FIFO, a device)
  // gets the uncached "none" reply without a byte read from it.
  using Outcome = util::ShardedLru<std::string>::Outcome;
  std::shared_ptr<const std::string> body = memo_lookup(path);
  Outcome outcome = Outcome::kHit;
  if (body != nullptr) {
    hash_skipped_.add();
  } else {
    const std::int64_t wall_ns = wall_clock_ns();
    const std::optional<util::MappedFile> mapped = util::MappedFile::map(path);
    if (!mapped) {
      util::json::Value response = ok_response(Op::kQuery);
      response.set("cache", util::json::Value("none"));
      response.set("result",
                   analysis_json(eval::AnalysisSession::unreadable(path)));
      response.set("trace", util::json::Value(trace.id()));
      response.set("stages", trace.stages_json());
      return encode_frame(response);
    }
    const std::span<const std::uint8_t> bytes = mapped->bytes();
    obs::Span hash_span(nullptr, "hash", &hash_us_);
    const std::uint64_t key = eval::AnalysisSession::content_hash(bytes);
    hash_span.finish();
    memo_store(*mapped, wall_ns, key);
    std::tie(body, outcome) = cache_.get_or_compute(key, [&] {
      // Only a miss runs the pipeline, so only a miss has stage timings;
      // hits and joins echo an empty stages array. The result is encoded
      // here, once, and every later hit copies the encoded bytes.
      return encode_result_body(session_.analyze_image(
          bytes, path, eval::AnalysisSession::Detail::kFull, &trace));
    });
  }
  std::string frame = query_frame(outcome_name(outcome), path, *body,
                                  trace.id(), trace.stages_json());
  const std::uint64_t elapsed_ms = query_span.finish() / 1000;
  if (options_.slow_query_ms != 0 && elapsed_ms >= options_.slow_query_ms) {
    slow_queries_.add();
    std::string stages;
    for (const obs::Trace::Stage& stage : trace.stages()) {
      if (!stages.empty()) {
        stages += ',';
      }
      stages += stage.name + "=" + std::to_string(stage.us) + "us";
    }
    obs::log_warn("service", "slow query",
                  {{"trace", trace.id()},
                   {"path", path},
                   {"ms", std::to_string(elapsed_ms)},
                   {"cache", outcome_name(outcome)},
                   {"stages", stages}});
  }
  return frame;
}

}  // namespace fetch::service
