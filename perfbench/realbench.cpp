/// \file realbench.cpp
/// Real-binary benchmark of the FETCH pipeline and of its analysis service.
/// See README.md in this directory for the workloads, the metrics and how
/// to read a traced run; run.py builds this program, pins its inputs and
/// calls it once per run:
///
///   realbench --workload cold_realbin|service_warm
///             --seed N --seconds N --trace 0|1 --socket-dir DIR
///             [--digest-store FILE] [--expect-digest NAME=HEX]...
///             [--self-test] --input SET:NAME:SIZE:PATH...
///
/// Every run does a fixed amount of work chosen from --seconds (never a
/// time box), checks every result it gets, and prints its metrics as one
/// JSON object on the last line of stdout. Human-readable lines (sample
/// counts, per-input digests, failures) come before it.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <random>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/callconv.hpp"
#include "analysis/pointer_scan.hpp"
#include "core/detector.hpp"
#include "core/pointer_detector.hpp"
#include "core/tail_call_merger.hpp"
#include "disasm/code_view.hpp"
#include "disasm/recursive.hpp"
#include "ehframe/eh_frame.hpp"
#include "elf/elf_file.hpp"
#include "eval/batch.hpp"
#include "eval/session.hpp"
#include "obs/metrics.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"

namespace {

using namespace fetch;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double ms_since(Clock::time_point from) {
  return ms_between(from, Clock::now());
}

[[noreturn]] void die(const std::string& message) {
  throw std::runtime_error(message);
}

// --- Workload shape ----------------------------------------------------------

constexpr std::size_t kSetupRepeats = 5;    // setup_s is their median
constexpr std::size_t kServiceWorkers = 2;  // analysis workers per server
constexpr std::size_t kMinColdPasses = 3;   // 3 x 8 inputs: p50 has 12 beyond
constexpr double kColdSecondsPerPass = 10.0;
constexpr std::size_t kWarmClients = 2;
constexpr std::size_t kWarmRequestsPerSecond = 150;  // of --seconds
constexpr std::size_t kWarmWarmupRequests = 100;
constexpr std::size_t kWarmBlock = 256;  // requests between two host probes
constexpr std::size_t kProbeRepeats = 3;     // untraced analyses per input
constexpr std::size_t kHashRepeats = 5;
constexpr std::size_t kPings = 200;
constexpr std::size_t kMinBeyond = 10;  // samples a percentile must leave above it

// --- Host speed --------------------------------------------------------------

/// Wall time of the host-speed probe at the reference speed: its median
/// on the 4-vCPU x86-64 VM the benchmark was tuned on, so scaled figures
/// read as milliseconds on that host at a typical moment.
constexpr double kProbeReferenceMs = 170.0;
constexpr std::size_t kProbeWindow = 2;  // probes on each side in a factor

/// Ordered-tree work shaped like the analysis' own: a std::set of 100k
/// pseudo-random keys and a std::map of vectors are built, searched and
/// freed, about 6 MB in all. Its cost depends on the host alone, never on
/// the program under test.
double host_probe_ms() {
  const auto t0 = Clock::now();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x & 0xfffffff;
  };
  std::set<std::uint64_t> keys;
  std::map<std::uint64_t, std::vector<std::uint32_t>> refs;
  for (std::uint32_t i = 0; i < 100000; ++i) {
    const std::uint64_t k = next();
    keys.insert(k);
    if (i % 8 == 0) {
      refs[k].push_back(i);
    }
  }
  std::uint64_t found = 0;
  for (std::uint32_t i = 0; i < 200000; ++i) {
    found += keys.count(next());
    if (const auto it = refs.lower_bound(next()); it != refs.end()) {
      found += it->second.size();
    }
  }
  volatile std::uint64_t sink = found + keys.size();
  (void)sink;
  return ms_since(t0);
}

/// On a shared host this memory-bound program can run 1.5x slower or
/// faster for minutes at a time, far beyond what a longer run averages
/// out. So the probe runs after every timed operation, and once the run is
/// over each operation's wall time is scaled by kProbeReferenceMs over the
/// median of the probes around it. A drift of host speed moves probe and
/// operation alike and cancels; a change to the program moves the
/// operation alone.
class HostSpeed {
 public:
  /// One timed operation: its wall time and the probe that followed it.
  struct Timed {
    double wall_ms = 0.0;
    std::size_t probe = 0;
  };

  HostSpeed() { probes_ms_.push_back(host_probe_ms()); }

  /// Runs \p op, then the probe.
  template <typename Fn>
  Timed time(Fn&& op) {
    const auto t0 = Clock::now();
    op();
    const double wall_ms = ms_since(t0);
    return Timed{wall_ms, probe()};
  }

  /// Probes once after an operation timed by the caller; returns the
  /// probe's index for Timed.
  std::size_t probe() {
    probes_ms_.push_back(host_probe_ms());
    return probes_ms_.size() - 1;
  }

  /// Probes kProbeWindow times, so the first operation timed next is not
  /// scaled by probes from before an untimed phase.
  void fresh_window() {
    for (std::size_t i = 0; i < kProbeWindow; ++i) {
      (void)probe();
    }
  }

  /// \p t in ms at the reference host speed: its wall time times
  /// kProbeReferenceMs over the median of the kProbeWindow probes on each
  /// side of the one that followed it.
  [[nodiscard]] double scaled_ms(const Timed& t) const {
    const std::size_t lo = t.probe > kProbeWindow ? t.probe - kProbeWindow : 0;
    const std::size_t hi = std::min(t.probe + kProbeWindow + 1, probes_ms_.size());
    std::vector<double> window(probes_ms_.begin() + static_cast<std::ptrdiff_t>(lo),
                               probes_ms_.begin() + static_cast<std::ptrdiff_t>(hi));
    std::sort(window.begin(), window.end());
    const std::size_t n = window.size();
    const double mid = n % 2 == 1 ? window[n / 2]
                                  : (window[n / 2 - 1] + window[n / 2]) / 2.0;
    return t.wall_ms * kProbeReferenceMs / mid;
  }

  /// One human-readable line on how far the host drifted during the run.
  void print() const {
    std::vector<double> sorted = probes_ms_;
    std::sort(sorted.begin(), sorted.end());
    std::printf("host probe n=%zu  min=%.1f  median=%.1f  max=%.1f ms "
                "(reference %.1f ms)\n",
                sorted.size(), sorted.front(), sorted[sorted.size() / 2],
                sorted.back(), kProbeReferenceMs);
  }

 private:
  std::vector<double> probes_ms_;
};

// --- Inputs ------------------------------------------------------------------

struct Input {
  std::string set;   ///< manifest set, e.g. "realbin"
  std::string name;  ///< short manifest name, used in metric names
  std::string path;
  std::uint64_t size = 0;  ///< pinned size; the content hash is pinned by run.py
  std::vector<std::uint8_t> bytes;
};

/// Reads every input into memory; a missing or resized file is an error.
/// A repeated load reuses the buffers, so it costs the copy alone.
void load_inputs(std::vector<Input>& inputs) {
  for (Input& input : inputs) {
    std::ifstream in(input.path, std::ios::binary);
    if (!in) {
      die("input " + input.name + " is missing: " + input.path);
    }
    input.bytes.resize(input.size);
    in.read(reinterpret_cast<char*>(input.bytes.data()),
            static_cast<std::streamsize>(input.size));
    if (in.gcount() != static_cast<std::streamsize>(input.size) ||
        in.peek() != std::ifstream::traits_type::eof()) {
      die("input " + input.name + " changed: " + input.path +
          " is not the pinned " + std::to_string(input.size) + " bytes");
    }
  }
}

std::vector<Input*> select(std::vector<Input>& inputs, const std::string& set) {
  std::vector<Input*> out;
  for (Input& input : inputs) {
    if (input.set == set) {
      out.push_back(&input);
    }
  }
  if (out.empty()) {
    die("no inputs in set " + set);
  }
  return out;
}

std::uint64_t total_bytes(const std::vector<Input*>& inputs) {
  std::uint64_t total = 0;
  for (const Input* input : inputs) {
    total += input->size;
  }
  return total;
}

/// \p count picks over \p n items: back-to-back seeded permutations, so
/// every item is picked equally often whatever the seed.
std::vector<std::size_t> balanced_picks(std::size_t n, std::size_t count,
                                        std::mt19937_64& rng) {
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  std::vector<std::size_t> out;
  out.reserve(count);
  while (out.size() < count) {
    std::shuffle(perm.begin(), perm.end(), rng);
    for (std::size_t i = 0; i < n && out.size() < count; ++i) {
      out.push_back(perm[i]);
    }
  }
  return out;
}

// --- Output check ------------------------------------------------------------

/// FNV-1a over everything an analysis reports except its path label. Kept
/// in the benchmark so a change to the program's own hashing cannot hide a
/// change of output.
std::uint64_t detection_digest(const eval::FileAnalysis& fa) {
  std::uint64_t h = 14695981039346656037ULL;
  auto bytes = [&h](const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h = (h ^ p[i]) * 1099511628211ULL;
    }
  };
  auto u64 = [&bytes](std::uint64_t v) { bytes(&v, sizeof v); };
  auto str = [&](const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  };
  const eval::BatchRow& row = fa.row;
  u64(row.ok ? 1 : 0);
  str(row.error);
  str(row.truth_source);
  for (const std::size_t v :
       {row.truth, row.detected, row.tp, row.fp, row.fn, row.plt_excluded,
        row.zero_sized, row.ifuncs, row.aliases, fa.fde_starts,
        fa.pointer_starts, fa.merged_parts, fa.invalid_fde_starts}) {
    u64(v);
  }
  u64(fa.functions.size());
  for (const auto& [addr, provenance] : fa.functions) {
    u64(addr);
    str(provenance);
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Counts operations and failures, and holds each input's reference
/// result. Thread-safe: client threads check their replies through it.
class Ledger {
 public:
  /// Expected digest for \p name (from the digest store of earlier runs,
  /// or planted by the self-test); every later result must match it.
  void expect(const std::string& name, std::uint64_t digest) {
    const std::lock_guard<std::mutex> lock(mu_);
    refs_[name].digest = digest;
    refs_[name].pinned = true;
  }

  /// Records one operation on input \p name whose outcome is \p fa (null
  /// when the operation failed, with \p error saying why: a transport
  /// error, a refusal, a wrong cache outcome). The first result for an
  /// input becomes its reference unless one was expected; every other must
  /// have the same digest and content hash.
  void record(const std::string& what, const std::string& name,
              const eval::FileAnalysis* fa, const std::string& error = {}) {
    const std::uint64_t digest = fa != nullptr ? detection_digest(*fa) : 0;
    const std::lock_guard<std::mutex> lock(mu_);
    ++attempted_;
    if (fa == nullptr) {
      fail_locked(what + " " + name + ": " + error);
      return;
    }
    if (!fa->row.ok) {
      fail_locked(what + " " + name + ": analysis failed: " + fa->row.error);
      return;
    }
    Reference& ref = refs_[name];
    if (!ref.seen) {
      ref.seen = true;
      ref.row = fa->row;
      ref.content_hash = fa->content_hash;
      if (!ref.pinned) {
        ref.digest = digest;
      }
    }
    if (digest != ref.digest) {
      fail_locked(what + " " + name + ": detection digest " + hex64(digest) +
                  " != reference " + hex64(ref.digest));
    } else if (fa->content_hash != ref.content_hash) {
      fail_locked(what + " " + name + ": content hash differs");
    }
  }

  [[nodiscard]] std::uint64_t attempted() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return attempted_;
  }
  [[nodiscard]] std::uint64_t failed() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return failed_;
  }

  /// Micro-averaged F1 over the distinct inputs among \p names whose
  /// reference was scored against a .symtab.
  [[nodiscard]] double f1(const std::vector<Input*>& inputs) const {
    const std::lock_guard<std::mutex> lock(mu_);
    eval::BatchTotals totals;
    for (const Input* input : inputs) {
      const auto it = refs_.find(input->name);
      if (it != refs_.end() && it->second.seen &&
          it->second.row.truth_source == "symtab") {
        totals.add(it->second.row);
      }
    }
    return totals.f1();
  }

  /// name -> reference digest of every input seen in this run.
  [[nodiscard]] std::map<std::string, std::uint64_t> digests() const {
    const std::lock_guard<std::mutex> lock(mu_);
    std::map<std::string, std::uint64_t> out;
    for (const auto& [name, ref] : refs_) {
      if (ref.seen) {
        out[name] = ref.digest;
      }
    }
    return out;
  }

 private:
  struct Reference {
    std::uint64_t digest = 0;
    std::uint64_t content_hash = 0;
    eval::BatchRow row;
    bool pinned = false;
    bool seen = false;
  };

  void fail_locked(const std::string& message) {
    ++failed_;
    if (failed_ <= 20) {
      std::cout << "FAIL " << message << "\n";
    }
  }

  mutable std::mutex mu_;
  std::map<std::string, Reference> refs_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// --- Statistics and report ---------------------------------------------------

struct Quantile {
  double value = 0.0;
  std::size_t n = 0;
  std::size_t beyond = 0;  ///< samples strictly above the interpolation point
};

/// Linear-interpolated quantile \p q of \p samples, with its support.
Quantile quantile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    die("quantile of no samples");
  }
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  Quantile out;
  out.value = samples[lo] + (samples[hi] - samples[lo]) *
                                (pos - static_cast<double>(lo));
  out.n = samples.size();
  out.beyond = samples.size() - 1 - lo;
  return out;
}

double median(const std::vector<double>& samples) {
  return quantile(samples, 0.5).value;
}

/// One human-readable line with the shape of a latency distribution.
void print_distribution(const std::string& label,
                        const std::vector<double>& samples) {
  std::printf("latency %-12s n=%zu", label.c_str(), samples.size());
  for (const double q : {0.5, 0.9, 0.95, 0.99, 1.0}) {
    std::printf("  p%g=%.3f", q * 100, quantile(samples, q).value);
  }
  std::printf(" ms\n");
}

/// Quantile \p q of log2 buckets (obs::Histogram shape: bucket i covers
/// [le/2, le) µs, bucket 0 covers [0, 2)), interpolated inside the bucket.
/// \p buckets holds per-bucket counts keyed by le_us.
Quantile bucket_quantile(const std::map<std::uint64_t, std::uint64_t>& buckets,
                         double q) {
  Quantile out;
  for (const auto& [le, count] : buckets) {
    out.n += count;
  }
  if (out.n == 0) {
    return out;
  }
  const double rank = q * static_cast<double>(out.n);
  std::uint64_t below = 0;
  for (const auto& [le, count] : buckets) {
    if (count != 0 && static_cast<double>(below + count) >= rank) {
      const double lo = le <= 2 ? 0.0 : static_cast<double>(le) / 2.0;
      const double frac = (rank - static_cast<double>(below)) /
                          static_cast<double>(count);
      out.value = (lo + (static_cast<double>(le) - lo) * frac) / 1000.0;
      out.beyond = out.n - below - count;
      return out;
    }
    below += count;
  }
  return out;
}

/// One run's metrics, printed as human-readable lines and then as the
/// final JSON line.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           const std::string& note = {}) {
    if (!std::isfinite(value)) {
      die("metric " + name + " is not finite");
    }
    if (metrics_.count(name) == 0) {
      order_.push_back(name);
    }
    metrics_[name] = Metric{value, unit, note};
  }

  /// Sets a latency percentile, noting its sample support; below
  /// kMinBeyond samples above it the run is refused unless \p allow_thin.
  void set_quantile(const std::string& name, const Quantile& q,
                    bool allow_thin, const std::string& note = {}) {
    if (q.beyond < kMinBeyond && !allow_thin) {
      die("metric " + name + " has only " + std::to_string(q.beyond) +
          " samples beyond it (n=" + std::to_string(q.n) + ")");
    }
    std::string full = "n=" + std::to_string(q.n) +
                       ", beyond=" + std::to_string(q.beyond);
    if (!note.empty()) {
      full += "; " + note;
    }
    set(name, q.value, "ms", full);
  }

  void print(bool correct, std::uint64_t attempted,
             std::uint64_t failed) const {
    for (const std::string& name : order_) {
      const Metric& m = metrics_.at(name);
      std::printf("metric %-28s %14.6f %-6s %s\n", name.c_str(), m.value,
                  m.unit.c_str(), m.note.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < order_.size(); ++i) {
      const Metric& m = metrics_.at(order_[i]);
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", order_[i].c_str(), m.value,
                  m.unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
    std::string note;
  };
  std::vector<std::string> order_;
  std::map<std::string, Metric> metrics_;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// setup_s: the median of kSetupRepeats set-ups, each timed with \p host.
template <typename Fn>
double median_setup_s(HostSpeed& host, Fn&& setup_once) {
  std::vector<HostSpeed::Timed> timed;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    timed.push_back(host.time(setup_once));
  }
  std::vector<double> seconds;
  for (const HostSpeed::Timed& t : timed) {
    seconds.push_back(host.scaled_ms(t) / 1000.0);
  }
  return median(seconds);
}

// --- In-process service ------------------------------------------------------

/// A private daemon on its own socket, served from a background thread.
/// The destructor stops it, joins the thread and removes the socket, also
/// when a phase throws.
class LocalServer {
 public:
  explicit LocalServer(service::ServerOptions options)
      : server_(std::move(options)) {
    std::string error;
    if (!server_.start(&error)) {
      die("cannot start the service: " + error);
    }
    thread_ = std::thread([this] { server_.run(); });
  }
  ~LocalServer() {
    server_.stop();
    thread_.join();
    ::unlink(server_.socket_path().c_str());
  }
  LocalServer(const LocalServer&) = delete;
  LocalServer& operator=(const LocalServer&) = delete;

  [[nodiscard]] const std::string& socket() const {
    return server_.socket_path();
  }

 private:
  service::ServiceServer server_;
  std::thread thread_;
};

service::ServiceClient connect_client(const std::string& socket) {
  std::string error;
  std::optional<service::ServiceClient> client =
      service::ServiceClient::connect(socket, &error);
  if (!client) {
    die("cannot connect to " + socket + ": " + error);
  }
  return std::move(*client);
}

obs::Snapshot server_metrics(service::ServiceClient& client) {
  std::string error;
  const std::optional<util::json::Value> doc = client.metrics(&error);
  if (!doc) {
    die("metrics request failed: " + error);
  }
  std::optional<obs::Snapshot> snap = obs::Snapshot::from_json(*doc, &error);
  if (!snap) {
    die("bad metrics document: " + error);
  }
  return std::move(*snap);
}

std::uint64_t counter_delta(const obs::Snapshot& before,
                            const obs::Snapshot& after,
                            const std::string& name) {
  const auto b = before.counters().find(name);
  const auto a = after.counters().find(name);
  if (a == after.counters().end()) {
    return 0;
  }
  return a->second - (b == before.counters().end() ? 0 : b->second);
}

std::map<std::uint64_t, std::uint64_t> histogram_delta(
    const obs::Snapshot& before, const obs::Snapshot& after,
    const std::string& name) {
  std::map<std::uint64_t, std::uint64_t> out;
  if (const auto a = after.histograms().find(name);
      a != after.histograms().end()) {
    for (const auto& [le, count] : a->second.buckets) {
      out[le] += count;
    }
  }
  if (const auto b = before.histograms().find(name);
      b != before.histograms().end()) {
    for (const auto& [le, count] : b->second.buckets) {
      out[le] -= count;
    }
  }
  return out;
}

// --- Run context -------------------------------------------------------------

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  unsigned seconds = 10;
  bool trace = false;
  bool self_test = false;
  std::string socket_dir = ".";
  std::string digest_store;
  std::map<std::string, std::uint64_t> expected;
  std::vector<Input> inputs;
};

struct Run {
  Config config;
  Ledger ledger;
  Report report;
  eval::AnalysisSession session;
  std::size_t sockets = 0;

  std::mt19937_64 rng(std::uint64_t stream) const {
    return std::mt19937_64(config.seed * 0x9e3779b97f4a7c15ULL + stream);
  }

  service::ServerOptions server_options(std::size_t cache_capacity,
                                        std::size_t cache_shards) {
    service::ServerOptions options;
    options.socket_path = config.socket_dir + "/rb-" +
                          std::to_string(::getpid()) + "-" +
                          std::to_string(sockets++) + ".sock";
    options.workers = kServiceWorkers;
    options.cache_capacity = cache_capacity;
    options.cache_shards = cache_shards;
    // Clients sit idle through the cache fill, however long it takes.
    options.idle_timeout_ms = 0;
    return options;
  }

  eval::FileAnalysis analyze(const Input& input) const {
    return session.analyze_image({input.bytes.data(), input.bytes.size()},
                                 input.path);
  }
};

/// A ready service: the server plus its client connections.
struct Service {
  std::unique_ptr<LocalServer> server;
  std::vector<service::ServiceClient> clients;
};

/// setup_s for the service workload: load the inputs, start a server and
/// connect and ping every client, kSetupRepeats times; the last one stays.
double setup_service(Run& run, HostSpeed& host, Service& service,
                     std::size_t clients, std::size_t cache_capacity,
                     std::size_t cache_shards) {
  return median_setup_s(host, [&] {
    service.clients.clear();
    service.server.reset();
    load_inputs(run.config.inputs);
    service.server = std::make_unique<LocalServer>(
        run.server_options(cache_capacity, cache_shards));
    for (std::size_t i = 0; i < clients; ++i) {
      service.clients.push_back(connect_client(service.server->socket()));
      std::string error;
      if (!service.clients.back().ping(&error)) {
        die("ping failed: " + error);
      }
    }
  });
}

/// Checks one served reply: a refusal, a wrong cache outcome or a result
/// that differs from the reference is a failed operation.
void check_reply(Run& run, const char* what, const Input& input,
                 const std::optional<service::QueryResult>& reply,
                 const std::string& error, const char* expected_cache) {
  if (reply && reply->cache != expected_cache) {
    run.ledger.record(what, input.name, nullptr,
                      "cache " + reply->cache + ", expected " + expected_cache);
  } else {
    run.ledger.record(what, input.name, reply ? &reply->analysis : nullptr,
                      error);
  }
}

/// Analyzes \p inputs locally, two at a time in a fixed pairing, and
/// records each result as that input's reference.
void local_references(Run& run, const std::vector<Input*>& inputs) {
  for (std::size_t i = 0; i < inputs.size(); i += 2) {
    std::optional<eval::FileAnalysis> second;
    std::jthread other;
    if (i + 1 < inputs.size()) {
      other = std::jthread([&] { second = run.analyze(*inputs[i + 1]); });
    }
    const eval::FileAnalysis first = run.analyze(*inputs[i]);
    if (other.joinable()) {
      other.join();
    }
    run.ledger.record("local", inputs[i]->name, &first);
    if (second) {
      run.ledger.record("local", inputs[i + 1]->name, &*second);
    }
  }
}

/// Queries every input once through \p client, one at a time with nothing
/// else running: all cache misses, each checked against the local
/// reference recorded before.
void fill_cache(Run& run, service::ServiceClient& client,
                const std::vector<Input*>& inputs) {
  for (const Input* input : inputs) {
    std::string error;
    const std::optional<service::QueryResult> served =
        client.query(input->path, &error);
    check_reply(run, "fill", *input, served, error, "miss");
  }
}

// --- Traced layer probe ------------------------------------------------------

/// Sums of span durations (ms) and work counts over the probed inputs.
struct LayerTotals {
  std::map<std::string, double> ms;
  double insns = 0, decoded = 0, probed = 0, accepted = 0, merged = 0,
         callconv_calls = 0, hash_bytes = 0, reply_bytes = 0;
  std::size_t drifted = 0;  ///< inputs whose replayed start set differs
};

std::uint64_t global_counter(const std::string& name) {
  obs::Snapshot snap;
  obs::Registry::global().collect(&snap);
  const auto it = snap.counters().find(name);
  return it == snap.counters().end() ? 0 : it->second;
}

std::uint64_t global_histogram_sum_us(const std::string& name) {
  obs::Snapshot snap;
  obs::Registry::global().collect(&snap);
  const auto it = snap.histograms().find(name);
  return it == snap.histograms().end() ? 0 : it->second.sum_us;
}

/// Replays FunctionDetector::run (default options, as analyze_image runs
/// it) through the public entry points of each layer, timing a span
/// around each call, and returns the final start set. Spans live in
/// memory until the run ends.
std::set<std::uint64_t> replay_pipeline(const Input& input, LayerTotals& t) {
  auto span = [&t](const char* name, auto&& call) {
    const auto t0 = Clock::now();
    call();
    t.ms[name] += ms_since(t0);
  };
  const core::DetectorOptions options;
  const std::uint64_t decoded_before = global_counter("codeview_decoded_total");

  std::optional<elf::ElfFile> elf;
  span("elf.parse_ms", [&] { elf.emplace(std::span<const std::uint8_t>(
                                 input.bytes.data(), input.bytes.size())); });
  span("elf.truth_ms", [&] { (void)elf->function_truth(); });
  std::optional<disasm::CodeView> code;
  span("disasm.codeview_ms", [&] { code.emplace(*elf); });
  std::optional<eh::EhFrame> eh;
  span("ehframe.parse_ms", [&] { eh = eh::EhFrame::from_elf(*elf); });

  // Seeds exactly as FunctionDetector::run picks them.
  std::set<std::uint64_t> fde_starts;
  std::vector<std::uint64_t> seeds;
  if (eh) {
    for (const std::uint64_t pc : eh->pc_begins()) {
      if (code->is_code(pc)) {
        fde_starts.insert(pc);
        seeds.push_back(pc);
      }
    }
  }
  if (code->is_code(elf->entry())) {
    seeds.push_back(elf->entry());
  }
  std::sort(seeds.begin(), seeds.end());
  seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());

  span("analysis.callconv_ms", [&] {
    std::vector<std::uint64_t> kept;
    for (const std::uint64_t s : seeds) {
      if (fde_starts.count(s) != 0) {
        t.callconv_calls += 1;
        if (!analysis::meets_calling_convention(*code, s)) {
          continue;
        }
      }
      kept.push_back(s);
    }
    seeds = std::move(kept);
  });

  disasm::Result state;
  span("disasm.analyze_ms",
       [&] { state = disasm::analyze(*code, seeds, options.disasm); });
  t.insns += static_cast<double>(state.insn_starts.size());
  core::PointerDetectionResult pd;
  span("core.pointer_ms", [&] {
    pd = core::detect_pointer_functions(*code, state, options.disasm);
  });
  t.probed += static_cast<double>(pd.probed);
  t.accepted += static_cast<double>(pd.accepted.size());
  if (!pd.accepted.empty()) {
    const std::vector<std::uint64_t> all(state.starts.begin(),
                                         state.starts.end());
    span("disasm.reanalyze_ms",
         [&] { state = disasm::analyze(*code, all, options.disasm); });
    t.insns += static_cast<double>(state.insn_starts.size());
  }
  std::set<std::uint64_t> data_refs;
  span("analysis.data_refs_ms",
       [&] { data_refs = analysis::scan_data_pointers(*elf, state); });
  if (eh) {
    span("core.alg1_ms", [&] {
      const core::MergeOutcome merged = core::merge_noncontiguous_functions(
          *code, state, *eh, data_refs, fde_starts);
      t.merged += static_cast<double>(merged.merged.size());
    });
  }
  t.decoded += static_cast<double>(global_counter("codeview_decoded_total") -
                                   decoded_before);

  // Off the pipeline sum: what one exploration pass and one no-return
  // fixpoint cost on their own (decode cache already warm).
  disasm::Result explored;
  span("disasm.explore_ms",
       [&] { explored = disasm::explore(*code, seeds, options.disasm); });
  span("disasm.noreturn_ms", [&] {
    (void)disasm::find_noreturn_functions(*code, explored, options.disasm);
  });
  return state.starts;
}

/// Spans whose sum is compared with the untraced analyze_image time.
const char* const kPipelineSpans[] = {
    "elf.parse_ms",         "elf.truth_ms",       "disasm.codeview_ms",
    "ehframe.parse_ms",     "analysis.callconv_ms", "disasm.analyze_ms",
    "core.pointer_ms",      "disasm.reanalyze_ms", "analysis.data_refs_ms",
    "core.alg1_ms",         "eval.score_ms"};

void layer_probe(Run& run, const std::vector<Input*>& inputs) {
  LayerTotals t;
  double untraced_ms = 0.0;
  for (const Input* input : inputs) {
    // Untraced analyze_image: input.<name>.ms and the unexplained base.
    std::vector<double> runs;
    std::optional<eval::FileAnalysis> result;
    const std::uint64_t score_before = global_histogram_sum_us("session_score_us");
    for (std::size_t i = 0; i < kProbeRepeats; ++i) {
      const auto t0 = Clock::now();
      eval::FileAnalysis fa = run.analyze(*input);
      runs.push_back(ms_since(t0));
      run.ledger.record("probe", input->name, &fa);
      result = std::move(fa);
    }
    const double input_ms = median(runs);
    untraced_ms += input_ms;
    t.ms["eval.score_ms"] +=
        static_cast<double>(global_histogram_sum_us("session_score_us") -
                            score_before) /
        1000.0 / static_cast<double>(kProbeRepeats);
    run.report.set("input." + input->name + ".ms", input_ms, "ms",
                   "median of " + std::to_string(kProbeRepeats));

    const std::set<std::uint64_t> replayed = replay_pipeline(*input, t);
    std::set<std::uint64_t> served;
    for (const auto& [addr, provenance] : result->functions) {
      served.insert(addr);
    }
    if (replayed != served) {
      ++t.drifted;
    }

    // The hit path's two per-request costs, timed from outside.
    const std::span<const std::uint8_t> bytes(input->bytes.data(),
                                              input->bytes.size());
    std::vector<double> hash_ms;
    std::vector<double> encode_ms;
    std::size_t reply_bytes = 0;
    for (std::size_t i = 0; i < kHashRepeats; ++i) {
      auto t0 = Clock::now();
      volatile std::uint64_t key = eval::AnalysisSession::content_hash(bytes);
      (void)key;
      hash_ms.push_back(ms_since(t0));
      t0 = Clock::now();
      reply_bytes = service::analysis_json(*result).dump().size();
      encode_ms.push_back(ms_since(t0));
    }
    t.ms["util.hash_ms"] += median(hash_ms);
    t.ms["service.encode_ms"] += median(encode_ms);
    t.hash_bytes += static_cast<double>(input->size);
    t.reply_bytes += static_cast<double>(reply_bytes);
  }

  double traced_ms = 0.0;
  for (const char* name : kPipelineSpans) {
    traced_ms += t.ms[name];
  }
  const double disasm_ms =
      t.ms["disasm.analyze_ms"] + t.ms["disasm.reanalyze_ms"];
  Report& r = run.report;
  const std::string over = "sum over " + std::to_string(inputs.size()) +
                           " inputs, one traced replay each";
  for (const auto& [name, ms] : t.ms) {
    r.set(name, ms, "ms", over);
  }
  r.set("disasm.insns", t.insns, "count", "instructions found by both analyze calls");
  r.set("disasm.insns_per_s",
        t.insns / ((t.ms["disasm.analyze_ms"] + t.ms["disasm.reanalyze_ms"]) / 1000.0),
        "1/s");
  r.set("disasm.decoded_records", t.decoded, "count");
  r.set("core.pointer_probed", t.probed, "count");
  r.set("core.pointer_accept_ratio", t.probed == 0 ? 0.0 : t.accepted / t.probed,
        "ratio");
  r.set("core.alg1_merged", t.merged, "count");
  r.set("analysis.callconv_calls", t.callconv_calls, "count");
  r.set("util.hash_gb_per_s", t.hash_bytes / 1e9 / (t.ms["util.hash_ms"] / 1000.0),
        "GB/s");
  r.set("service.reply_kb", t.reply_bytes / 1024.0, "KB");
  r.set("trace.unexplained_ms", untraced_ms - traced_ms, "ms",
        "untraced " + std::to_string(untraced_ms) + " ms - spans " +
            std::to_string(traced_ms) + " ms");
  std::printf("trace: disasm.analyze + disasm.reanalyze is %.1f%% of "
              "untraced analyze_image time over %zu inputs\n",
              100.0 * disasm_ms / untraced_ms, inputs.size());
  if (t.drifted != 0) {
    std::printf("trace: WARNING replayed start set differs from "
                "analyze_image on %zu inputs; the replay no longer follows "
                "the pipeline\n",
                t.drifted);
  }

  // Transport floor: pings against an idle private server.
  LocalServer server(run.server_options(8, 1));
  service::ServiceClient client = connect_client(server.socket());
  std::vector<double> ping_ms;
  for (std::size_t i = 0; i < kPings + kPings / 10; ++i) {
    std::string error;
    const auto t0 = Clock::now();
    const bool ok = client.ping(&error);
    const double ms = ms_since(t0);
    if (!ok) {
      die("ping failed: " + error);
    }
    if (i >= kPings / 10) {  // the first tenth warms up
      ping_ms.push_back(ms);
    }
  }
  r.set_quantile("service.ping_ms_p50", quantile(ping_ms, 0.5), false);
}

/// Service-side layer metrics of one measured phase, from the daemon's
/// own metrics op (log2-bucket histograms, interpolated).
void service_layers(Run& run, const obs::Snapshot& before,
                    const obs::Snapshot& after) {
  const auto wait = histogram_delta(before, after, "service_queue_wait_us");
  const auto query = histogram_delta(before, after, "service_query_us");
  Report& r = run.report;
  r.set_quantile("service.queue_wait_ms_p50", bucket_quantile(wait, 0.5), true,
                 "log2 buckets");
  r.set_quantile("service.queue_wait_ms_p99", bucket_quantile(wait, 0.99), true,
                 "log2 buckets");
  r.set_quantile("service.query_ms_p50", bucket_quantile(query, 0.5), true,
                 "log2 buckets");
  const std::uint64_t lookups = counter_delta(before, after, "cache_lookups_total");
  const std::uint64_t hits = counter_delta(before, after, "cache_hits_total");
  r.set("util.lru.hit_ratio",
        lookups == 0 ? 0.0
                     : static_cast<double>(hits) / static_cast<double>(lookups),
        "ratio", "lookups=" + std::to_string(lookups));
}

/// Per-layer service metrics for a workload without a server.
void no_service_layers(Run& run) {
  const char* note = "no service phase in this workload";
  for (const char* name : {"service.queue_wait_ms_p50",
                           "service.queue_wait_ms_p99", "service.query_ms_p50"}) {
    run.report.set(name, 0.0, "ms", note);
  }
  run.report.set("util.lru.hit_ratio", 0.0, "ratio", note);
}

// --- Workloads ---------------------------------------------------------------

/// cold_realbin: a closed loop with one analyze_image in flight over the
/// realbin set; a warm-up pass, then max(3, seconds/10) timed passes.
void cold_realbin(Run& run) {
  Config& config = run.config;
  const std::vector<Input*> inputs = select(config.inputs, "realbin");
  HostSpeed host;
  const double setup_s =
      median_setup_s(host, [&] { load_inputs(config.inputs); });
  if (config.trace) {
    layer_probe(run, inputs);
    no_service_layers(run);
    return;
  }

  for (const Input* input : inputs) {  // warm-up pass, not timed
    const eval::FileAnalysis fa = run.analyze(*input);
    run.ledger.record("warm-up", input->name, &fa);
  }
  const std::size_t passes = std::max<std::size_t>(
      kMinColdPasses,
      static_cast<std::size_t>(std::ceil(config.seconds / kColdSecondsPerPass)));
  // Every pass runs in manifest order: the heap's high-water mark, and so
  // peak_rss_mb, depends on the order of analyses. The inputs are fixed
  // files, so this workload has nothing to seed.
  host.fresh_window();
  std::vector<std::vector<HostSpeed::Timed>> timed(passes);
  for (std::size_t pass = 0; pass < passes; ++pass) {
    for (const Input* input : inputs) {
      std::optional<eval::FileAnalysis> fa;
      timed[pass].push_back(host.time([&] { fa = run.analyze(*input); }));
      run.ledger.record("pass " + std::to_string(pass), input->name, &*fa);
    }
  }
  std::vector<double> latency_ms;  // at the reference host speed
  std::map<std::string, std::vector<double>> input_ms;
  for (std::size_t pass = 0; pass < passes; ++pass) {
    double wall_ms = 0.0;
    double pass_ms = 0.0;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const double ms = host.scaled_ms(timed[pass][i]);
      wall_ms += timed[pass][i].wall_ms;
      pass_ms += ms;
      latency_ms.push_back(ms);
      input_ms[inputs[i]->name].push_back(ms);
    }
    std::printf("pass %zu: %.1f ms wall, %.1f ms at reference speed\n", pass,
                wall_ms, pass_ms);
  }
  host.print();
  print_distribution("analysis", latency_ms);
  // Each input's median over the passes; their sum is the time of a
  // typical pass, robust to one slow moment on any input.
  double pass_ms = 0.0;
  double slowest_ms = 0.0;
  std::string slowest;
  for (const auto& [name, samples] : input_ms) {
    const double ms = median(samples);
    std::printf("input %-12s median %.1f ms at reference speed:", name.c_str(), ms);
    for (const double v : samples) {
      std::printf(" %.1f", v);
    }
    std::printf("\n");
    pass_ms += ms;
    if (ms > slowest_ms) {
      slowest_ms = ms;
      slowest = name;
    }
  }
  const std::string over =
      "sum of per-input medians over " + std::to_string(passes) + " passes";
  Report& r = run.report;
  r.set("setup_s", setup_s, "s", "median of 5: read inputs");
  r.set("analyze_mb_per_s",
        static_cast<double>(total_bytes(inputs)) / 1e6 / (pass_ms / 1000.0),
        "MB/s", over);
  r.set("requests_per_s", static_cast<double>(inputs.size()) / (pass_ms / 1000.0),
        "1/s", "analyses per second, " + over);
  r.set_quantile("latency_ms_p50", quantile(latency_ms, 0.5), config.self_test);
  // 24 samples support no p90, and their top few are one slow moment. The
  // tail a cold request can meet is the slowest input, at its median pass.
  r.set("latency_ms_p90", slowest_ms, "ms",
        "too few samples for p90: median pass of the slowest input, " +
            slowest);
  r.set("f1", run.ledger.f1(inputs), "ratio", "symtab inputs");
}

/// One measured request of a closed loop.
struct Sample {
  double done_ms = 0.0;  ///< completion, from the start of the block
  double latency_ms = 0.0;
  std::uint64_t bytes = 0;
};

/// A closed-loop client: sends \p picks one at a time, all expected hits.
void closed_loop(Run& run, service::ServiceClient& client,
                 const std::vector<Input*>& inputs,
                 const std::vector<std::size_t>& picks, const char* what,
                 Clock::time_point start, std::vector<Sample>* samples) {
  for (const std::size_t i : picks) {
    const Input& input = *inputs[i];
    std::string error;
    const auto t0 = Clock::now();
    const std::optional<service::QueryResult> reply =
        client.query(input.path, &error);
    const auto t1 = Clock::now();
    samples->push_back(
        Sample{ms_between(start, t1), ms_between(t0, t1), input.size});
    check_reply(run, what, input, reply, error, "hit");
  }
}

/// service_warm: 2 workers, cache filled with the realbin set in set-up;
/// 2 closed-loop clients send 150 x seconds balanced seeded picks, all
/// hits, in blocks of kWarmBlock with a host probe after each.
void service_warm(Run& run) {
  Config& config = run.config;
  const std::vector<Input*> inputs = select(config.inputs, "realbin");
  HostSpeed host;
  Service service;
  const double setup_s = setup_service(run, host, service, kWarmClients, 256, 8);
  // The local references also warm the process up before the fill.
  local_references(run, inputs);
  fill_cache(run, service.clients[0], inputs);

  // Both clients run a block to its end; their samples are merged.
  auto run_block = [&](std::size_t per_client, std::uint64_t stream,
                       const char* what) {
    std::vector<std::vector<Sample>> samples(kWarmClients);
    std::vector<std::jthread> threads;
    const auto start = Clock::now();
    for (std::size_t c = 0; c < kWarmClients; ++c) {
      std::mt19937_64 rng = run.rng(stream + c);
      threads.emplace_back(
          [&, c, picks = balanced_picks(inputs.size(), per_client, rng)] {
            closed_loop(run, service.clients[c], inputs, picks, what, start,
                        &samples[c]);
          });
    }
    for (std::jthread& t : threads) {
      t.join();
    }
    std::vector<Sample> all;
    for (const auto& mine : samples) {
      all.insert(all.end(), mine.begin(), mine.end());
    }
    return all;
  };
  (void)run_block(kWarmWarmupRequests / kWarmClients, 100, "warm-up");

  const std::size_t blocks = std::max<std::size_t>(
      1, kWarmRequestsPerSecond * config.seconds / kWarmBlock);
  // Each block is timed as one operation: the blocks' wall time and each
  // request's latency are scaled by the probes around the block.
  struct TimedBlock {
    std::vector<Sample> samples;
    HostSpeed::Timed timed;
  };
  std::vector<TimedBlock> timed_blocks;
  const obs::Snapshot before = server_metrics(service.clients[0]);
  host.fresh_window();
  for (std::size_t b = 0; b < blocks; ++b) {
    TimedBlock block;
    block.samples =
        run_block(kWarmBlock / kWarmClients, 200 + b * kWarmClients, "warm");
    for (const Sample& s : block.samples) {
      block.timed.wall_ms = std::max(block.timed.wall_ms, s.done_ms);
    }
    block.timed.probe = host.probe();
    timed_blocks.push_back(std::move(block));
  }
  const obs::Snapshot after = server_metrics(service.clients[0]);

  std::vector<double> latency_ms;       // at the reference host speed
  std::vector<double> wall_latency_ms;  // as measured
  std::vector<double> block_rps;
  std::vector<double> block_mbps;
  for (const TimedBlock& block : timed_blocks) {
    const double f = host.scaled_ms(block.timed) / block.timed.wall_ms;
    std::uint64_t bytes = 0;
    for (const Sample& s : block.samples) {
      latency_ms.push_back(s.latency_ms * f);
      wall_latency_ms.push_back(s.latency_ms);
      bytes += s.bytes;
    }
    const double seconds = host.scaled_ms(block.timed) / 1000.0;
    block_rps.push_back(static_cast<double>(block.samples.size()) / seconds);
    block_mbps.push_back(static_cast<double>(bytes) / 1e6 / seconds);
  }

  host.print();
  print_distribution("hit-wall", wall_latency_ms);
  print_distribution("hit", latency_ms);
  Report& r = run.report;
  if (config.trace) {
    layer_probe(run, inputs);
    service_layers(run, before, after);
    return;
  }
  r.set("setup_s", setup_s, "s",
        "median of 5: read inputs, start server, connect and ping");
  const std::string over = "median of " + std::to_string(blocks) +
                           " blocks of " + std::to_string(kWarmBlock);
  r.set("analyze_mb_per_s", median(block_mbps), "MB/s",
        "input MB answered, " + over);
  r.set("requests_per_s", median(block_rps), "1/s", over);
  r.set_quantile("latency_ms_p50", quantile(latency_ms, 0.5), config.self_test);
  // p90, not p99: a p99 hangs on a few millisecond stalls of the host, and
  // moved 18% between runs where p90 moved 3%.
  r.set_quantile("latency_ms_p90", quantile(latency_ms, 0.9), config.self_test);
  r.set("f1", run.ledger.f1(inputs), "ratio", "symtab inputs");
}

// --- Digest store ------------------------------------------------------------

/// "name hex" lines: each input's detection digest from earlier runs of
/// this build, so every workload must agree on every shared input.
std::map<std::string, std::uint64_t> read_digest_store(const std::string& path) {
  std::map<std::string, std::uint64_t> out;
  std::ifstream in(path);
  std::string name;
  std::string hex;
  while (in >> name >> hex) {
    out[name] = std::stoull(hex, nullptr, 16);
  }
  return out;
}

void write_digest_store(const std::string& path,
                        const std::map<std::string, std::uint64_t>& digests) {
  std::map<std::string, std::uint64_t> merged = read_digest_store(path);
  for (const auto& [name, digest] : digests) {
    merged[name] = digest;
  }
  const std::string tmp = path + "." + std::to_string(::getpid());
  {
    std::ofstream out(tmp, std::ios::trunc);
    for (const auto& [name, digest] : merged) {
      out << name << " " << hex64(digest) << "\n";
    }
    if (!out) {
      die("cannot write " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    die("cannot replace " + path);
  }
}

// --- Main --------------------------------------------------------------------

Config parse_args(int argc, char** argv) {
  Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        die("missing value for " + arg);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      config.workload = value();
    } else if (arg == "--seed") {
      config.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      config.seconds = static_cast<unsigned>(std::stoul(value()));
    } else if (arg == "--trace") {
      config.trace = value() == "1";
    } else if (arg == "--self-test") {
      config.self_test = true;
    } else if (arg == "--socket-dir") {
      config.socket_dir = value();
    } else if (arg == "--digest-store") {
      config.digest_store = value();
    } else if (arg == "--expect-digest") {
      const std::string v = value();
      const std::size_t eq = v.find('=');
      if (eq == std::string::npos) {
        die("--expect-digest wants NAME=HEX");
      }
      config.expected[v.substr(0, eq)] = std::stoull(v.substr(eq + 1), nullptr, 16);
    } else if (arg == "--input") {
      // SET:NAME:SIZE:PATH (the path may itself hold ':')
      const std::string v = value();
      std::istringstream in(v);
      Input input;
      std::string size;
      if (!std::getline(in, input.set, ':') || !std::getline(in, input.name, ':') ||
          !std::getline(in, size, ':') || !std::getline(in, input.path)) {
        die("--input wants SET:NAME:SIZE:PATH, got " + v);
      }
      input.size = std::stoull(size);
      config.inputs.push_back(std::move(input));
    } else {
      die("unknown argument " + arg);
    }
  }
  if (config.seconds == 0) {
    die("--seconds must be positive");
  }
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Run run;
    run.config = parse_args(argc, argv);
    Config& config = run.config;
    std::map<std::string, std::uint64_t> expected;
    if (!config.digest_store.empty()) {
      expected = read_digest_store(config.digest_store);
    }
    for (const auto& [name, digest] : config.expected) {
      expected[name] = digest;
    }
    for (const auto& [name, digest] : expected) {
      run.ledger.expect(name, digest);
    }

    if (config.workload == "cold_realbin") {
      cold_realbin(run);
    } else if (config.workload == "service_warm") {
      service_warm(run);
    } else {
      die("unknown workload '" + config.workload + "'");
    }

    const std::uint64_t attempted = run.ledger.attempted();
    const std::uint64_t failed = run.ledger.failed();
    if (!config.trace) {
      run.report.set("peak_rss_mb", peak_rss_mb(), "MB", "whole process");
      run.report.set("ok_ratio",
                     attempted == 0 ? 0.0
                                    : static_cast<double>(attempted - failed) /
                                          static_cast<double>(attempted),
                     "ratio", std::to_string(attempted - failed) + "/" +
                                  std::to_string(attempted));
    }
    for (const auto& [name, digest] : run.ledger.digests()) {
      std::printf("digest %-12s %s\n", name.c_str(), hex64(digest).c_str());
    }
    if (failed == 0 && !config.digest_store.empty() && config.expected.empty()) {
      write_digest_store(config.digest_store, run.ledger.digests());
    }
    run.report.print(failed == 0 && attempted > 0, attempted, failed);
    return 0;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::cerr << "realbench: error: " << e.what() << "\n";
    return 2;
  }
}
