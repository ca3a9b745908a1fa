#pragma once

/// \file metrics.hpp
/// Process-wide metrics registry: lock-free counters, gauges, and log2
/// latency histograms cheap enough to stay compiled in and enabled on
/// every hot path (see DESIGN.md, "Observability").
///
/// Hot-path cost model: Counter::add is one relaxed fetch_add on a
/// cache-line-private stripe selected per thread, so concurrent writers
/// on different threads never bounce a line; Histogram::record_us is
/// three relaxed fetch_adds. Reads (value(), snapshots) walk the stripes
/// and are allowed to be slow — they run on stats/metrics requests, not
/// in the pipeline.
///
/// Naming scheme: lower_snake_case, prefixed by subsystem ("service_",
/// "codeview_", "session_", "cache_", "batch_"); counters end in
/// "_total", microsecond histograms in "_us", byte counts in "_bytes".
/// Names double as Prometheus metric names (prefixed "fetch_"), so they
/// must match [a-z_][a-z0-9_]*.
///
/// Registries: Registry::global() holds library-level metrics (decode
/// cache, disassembly, analysis session, batch engine). Each service
/// daemon owns a *separate* Registry for its connection, queue and
/// query metrics, so that in-process servers (tests spin up several per
/// binary) never bleed into one another. ServiceServer::metrics()
/// snapshots it with the result cache's counters; the metrics op merges
/// that with the global registry, and the stats op is a fixed view of
/// it (service::stats_view).

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/json.hpp"

namespace fetch::obs {

inline constexpr const char* kMetricsSchema = "fetch-metrics-v1";

/// Monotonic counter striped across cache lines. add() is wait-free and
/// safe from any thread; value() is a point-in-time sum (monotone, but
/// not a linearization point across counters).
class Counter {
 public:
  static constexpr std::size_t kStripes = 8;

  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t n = 1) noexcept {
    stripes_[tls_stripe()].value.fetch_add(n, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const Stripe& stripe : stripes_) {
      total += stripe.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Stripe {
    std::atomic<std::uint64_t> value{0};
  };

  /// Stripe index for the calling thread: assigned round-robin on first
  /// use, cached in a thread_local, so every add from one thread lands
  /// on the same line and threads spread across lines.
  [[nodiscard]] static std::size_t tls_stripe() noexcept;

  Stripe stripes_[kStripes];
};

/// Point-in-time signed value (queue depths, connection counts) with a
/// monotone high-water variant via bump_max().
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t delta) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  /// Raises the gauge to \p v if it is below (never lowers it).
  void bump_max(std::int64_t v) noexcept {
    std::int64_t seen = value_.load(std::memory_order_relaxed);
    while (v > seen && !value_.compare_exchange_weak(
                           seen, v, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Log2 latency histogram over microseconds: bucket i counts samples in
/// [2^i, 2^(i+1)) µs (bucket 0 also takes 0), the last bucket is the
/// overflow. Same shape the service bench has always reported, now
/// shared by every subsystem.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 26;  // up to ~67 s, then overflow

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void record_us(std::uint64_t us) noexcept {
    buckets_[bucket_of(us)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_us_.fetch_add(us, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum_us() const noexcept {
    return sum_us_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bucket_count(std::size_t bucket) const noexcept {
    return buckets_[bucket].load(std::memory_order_relaxed);
  }

  [[nodiscard]] static std::size_t bucket_of(std::uint64_t us) noexcept {
    if (us < 2) {
      return 0;
    }
    return std::min<std::size_t>(std::bit_width(us) - 1, kBuckets - 1);
  }
  /// Exclusive upper bound of bucket \p i in microseconds.
  [[nodiscard]] static std::uint64_t le_us(std::size_t bucket) noexcept {
    return std::uint64_t{2} << bucket;
  }

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_us_{0};
};

/// One histogram's frozen state inside a Snapshot. Buckets are
/// (le_us, count) pairs in ascending le_us order with trailing empty
/// buckets trimmed; counts are per-bucket (NOT cumulative — the
/// Prometheus renderer cumulates).
struct HistogramData {
  std::uint64_t count = 0;
  std::uint64_t sum_us = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets;
};

/// Freezes a live Histogram into HistogramData (trailing empty buckets
/// trimmed) — shared by Registry::collect and ad-hoc exporters.
[[nodiscard]] HistogramData freeze_histogram(const Histogram& histogram);

/// A frozen, mergeable view of any number of registries plus ad-hoc
/// values (cache stats, uptime). Deterministic: maps keep names sorted,
/// so json() output depends only on the values.
class Snapshot {
 public:
  void set_counter(const std::string& name, std::uint64_t value);
  void set_gauge(const std::string& name, std::int64_t value);
  void set_histogram(const std::string& name, HistogramData data);

  [[nodiscard]] const std::map<std::string, std::uint64_t>& counters() const {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, std::int64_t>& gauges() const {
    return gauges_;
  }
  [[nodiscard]] const std::map<std::string, HistogramData>& histograms()
      const {
    return histograms_;
  }

  /// Serializes as a fetch-metrics-v1 document.
  [[nodiscard]] util::json::Value json() const;

  /// Inverse of json(): strict parse of a fetch-metrics-v1 document.
  [[nodiscard]] static std::optional<Snapshot> from_json(
      const util::json::Value& doc, std::string* error);

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, std::int64_t> gauges_;
  std::map<std::string, HistogramData> histograms_;
};

/// Prometheus text exposition (version 0.0.4) of a snapshot: every name
/// prefixed "fetch_", counters as `counter`, gauges as `gauge`,
/// histograms as `histogram` with cumulative le buckets plus +Inf,
/// _sum (seconds-free: microseconds, suffix says so) and _count.
[[nodiscard]] std::string prometheus_text(const Snapshot& snapshot);

/// Named metric store. Handles returned by counter()/gauge()/histogram()
/// are stable for the registry's lifetime; look them up once at setup and
/// keep the reference — lookups take a mutex, the handles do not.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  [[nodiscard]] Counter& counter(const std::string& name);
  [[nodiscard]] Gauge& gauge(const std::string& name);
  [[nodiscard]] Histogram& histogram(const std::string& name);

  /// Folds every metric into \p out (overwriting same-named entries).
  void collect(Snapshot* out) const;

  /// Library-level registry (decode cache, sessions, batch engine).
  [[nodiscard]] static Registry& global();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Dumps Registry::global() as a fetch-metrics-v1 JSON file — the
/// `--metrics-json PATH` implementation shared by fetch-cli, the realbin
/// harness, and the hostile gate. false + *error on I/O failure.
[[nodiscard]] bool write_global_metrics_json(const std::string& path,
                                             std::string* error);

}  // namespace fetch::obs
