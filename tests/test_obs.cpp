#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"

namespace fetch::obs {
namespace {

/// Unit coverage of the telemetry subsystem: the lock-free primitives
/// under concurrency (this file runs under the "concurrency" ctest
/// label, so the sanitizer matrix's TSan leg sees it), the
/// fetch-metrics-v1 round trip, and the logger/trace plumbing.

// --- Counters / histograms under contention --------------------------------

TEST(ObsCounter, SingleThreadedSum) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.add();
  counter.add(41);
  EXPECT_EQ(counter.value(), 42u);
}

TEST(ObsCounter, ConcurrentAddsAreLossless) {
  Counter counter;
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 20'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        counter.add();
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(ObsGauge, SetAddBumpMax) {
  Gauge gauge;
  gauge.set(5);
  gauge.add(-8);
  EXPECT_EQ(gauge.value(), -3);
  gauge.bump_max(7);
  EXPECT_EQ(gauge.value(), 7);
  gauge.bump_max(2);  // never lowers
  EXPECT_EQ(gauge.value(), 7);
}

TEST(ObsHistogram, BucketBoundaries) {
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 0u);
  EXPECT_EQ(Histogram::bucket_of(2), 1u);
  EXPECT_EQ(Histogram::bucket_of(3), 1u);
  EXPECT_EQ(Histogram::bucket_of(4), 2u);
  EXPECT_EQ(Histogram::bucket_of(1023), 9u);
  EXPECT_EQ(Histogram::bucket_of(1024), 10u);
  // Everything past the top lands in the overflow bucket.
  EXPECT_EQ(Histogram::bucket_of(~std::uint64_t{0}),
            Histogram::kBuckets - 1);
  // le_us is the exclusive upper bound of its bucket.
  EXPECT_EQ(Histogram::bucket_of(Histogram::le_us(3) - 1), 3u);
  EXPECT_EQ(Histogram::bucket_of(Histogram::le_us(3)), 4u);
}

TEST(ObsHistogram, ConcurrentRecordsConserveCountAndSum) {
  Histogram histogram;
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 10'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        histogram.record_us(t * 100 + (i % 7));
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(histogram.count(), kThreads * kPerThread);
  std::uint64_t bucket_total = 0;
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
    bucket_total += histogram.bucket_count(i);
  }
  EXPECT_EQ(bucket_total, histogram.count());
  std::uint64_t expected_sum = 0;
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::uint64_t i = 0; i < kPerThread; ++i) {
      expected_sum += t * 100 + (i % 7);
    }
  }
  EXPECT_EQ(histogram.sum_us(), expected_sum);
}

TEST(ObsHistogram, FreezeTrimsTrailingEmptyBuckets) {
  Histogram histogram;
  histogram.record_us(0);
  histogram.record_us(5);  // bucket 2
  const HistogramData data = freeze_histogram(histogram);
  ASSERT_EQ(data.buckets.size(), 3u);  // buckets 0..2, nothing beyond
  EXPECT_EQ(data.buckets[0].first, Histogram::le_us(0));
  EXPECT_EQ(data.buckets[0].second, 1u);
  EXPECT_EQ(data.buckets[1].second, 0u);
  EXPECT_EQ(data.buckets[2].second, 1u);
  EXPECT_EQ(data.count, 2u);
  EXPECT_EQ(data.sum_us, 5u);

  const HistogramData empty = freeze_histogram(Histogram{});
  EXPECT_TRUE(empty.buckets.empty());
  EXPECT_EQ(empty.count, 0u);
}

// --- Registry + snapshot round trip ----------------------------------------

TEST(ObsRegistry, HandlesAreStableAndCollected) {
  Registry registry;
  Counter& counter = registry.counter("test_events_total");
  EXPECT_EQ(&counter, &registry.counter("test_events_total"));
  counter.add(3);
  registry.gauge("test_depth").set(-2);
  registry.histogram("test_wait_us").record_us(10);

  Snapshot snapshot;
  registry.collect(&snapshot);
  EXPECT_EQ(snapshot.counters().at("test_events_total"), 3u);
  EXPECT_EQ(snapshot.gauges().at("test_depth"), -2);
  EXPECT_EQ(snapshot.histograms().at("test_wait_us").count, 1u);
}

TEST(ObsSnapshot, JsonRoundTripsThroughFromJson) {
  Snapshot snapshot;
  snapshot.set_counter("cache_hits_total", 7);
  snapshot.set_counter("cache_misses_total", 2);
  snapshot.set_gauge("service_queue_depth", -1);
  HistogramData data;
  data.count = 3;
  data.sum_us = 70;
  data.buckets = {{2, 1}, {4, 0}, {8, 2}};
  snapshot.set_histogram("service_query_us", std::move(data));

  const util::json::Value doc = snapshot.json();
  const util::json::Value* schema = doc.get("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->text(), kMetricsSchema);

  std::string error;
  const auto parsed = Snapshot::from_json(doc, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->counters(), snapshot.counters());
  EXPECT_EQ(parsed->gauges(), snapshot.gauges());
  ASSERT_EQ(parsed->histograms().size(), 1u);
  const HistogramData& round = parsed->histograms().at("service_query_us");
  EXPECT_EQ(round.count, 3u);
  EXPECT_EQ(round.sum_us, 70u);
  EXPECT_EQ(round.buckets,
            (std::vector<std::pair<std::uint64_t, std::uint64_t>>{
                {2, 1}, {4, 0}, {8, 2}}));

  // Serialization is deterministic: same snapshot, same bytes.
  EXPECT_EQ(doc.dump(), parsed->json().dump());
}

TEST(ObsSnapshot, FromJsonRejectsMalformedDocuments) {
  std::string error;
  EXPECT_FALSE(Snapshot::from_json(util::json::Value::object(), &error)
                   .has_value());

  auto doc = util::json::Value::parse(
      R"({"schema":"fetch-metrics-v1","counters":{"x":-1},)"
      R"("gauges":{},"histograms":{}})");
  ASSERT_TRUE(doc.has_value());
  error.clear();
  EXPECT_FALSE(Snapshot::from_json(*doc, &error).has_value());
  EXPECT_NE(error.find("x"), std::string::npos);
}

TEST(ObsSnapshot, PrometheusTextIsPinned) {
  Snapshot snapshot;
  snapshot.set_counter("cache_hits_total", 7);
  snapshot.set_gauge("service_queue_depth", 3);
  HistogramData data;
  data.count = 3;
  data.sum_us = 70;
  data.buckets = {{2, 1}, {4, 0}, {8, 2}};
  snapshot.set_histogram("service_query_us", std::move(data));
  // Cumulative buckets: 1, 1, 3; +Inf mirrors _count.
  EXPECT_EQ(prometheus_text(snapshot),
            "# TYPE fetch_cache_hits_total counter\n"
            "fetch_cache_hits_total 7\n"
            "# TYPE fetch_service_queue_depth gauge\n"
            "fetch_service_queue_depth 3\n"
            "# TYPE fetch_service_query_us histogram\n"
            "fetch_service_query_us_bucket{le=\"2\"} 1\n"
            "fetch_service_query_us_bucket{le=\"4\"} 1\n"
            "fetch_service_query_us_bucket{le=\"8\"} 3\n"
            "fetch_service_query_us_bucket{le=\"+Inf\"} 3\n"
            "fetch_service_query_us_sum 70\n"
            "fetch_service_query_us_count 3\n");
}

// --- Trace / spans ----------------------------------------------------------

TEST(ObsTrace, MintedIdsAreHexAndDistinct) {
  const std::string a = mint_trace_id();
  const std::string b = mint_trace_id();
  EXPECT_EQ(a.size(), 16u);
  EXPECT_NE(a, b);
  for (const char c : a) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << a;
  }
}

TEST(ObsTrace, SpansRecordStagesInOrder) {
  Trace trace(mint_trace_id());
  Histogram histogram;
  {
    Span span(&trace, "elf_parse", &histogram);
  }
  std::uint64_t detect_us = 0;
  {
    Span span(&trace, "detect");
    detect_us = span.finish();
    // Idempotent: no duplicate stage, and the same duration again.
    EXPECT_EQ(span.finish(), detect_us);
  }
  ASSERT_EQ(trace.stages().size(), 2u);
  EXPECT_EQ(trace.stages()[0].name, "elf_parse");
  EXPECT_EQ(trace.stages()[1].name, "detect");
  EXPECT_EQ(trace.stages()[1].us, detect_us);
  EXPECT_EQ(histogram.count(), 1u);

  const util::json::Value stages = trace.stages_json();
  ASSERT_EQ(stages.items().size(), 2u);
  const util::json::Value* name = stages.items()[0].get("stage");
  ASSERT_NE(name, nullptr);
  EXPECT_EQ(name->text(), "elf_parse");
  EXPECT_NE(stages.items()[0].get("us"), nullptr);
}

TEST(ObsTrace, NullSinksAreNoops) {
  // A span with neither a trace nor a histogram must be safe (this is
  // the disabled-instrumentation fast path).
  Span span(nullptr, "noop", nullptr);
  EXPECT_EQ(span.finish(), 0u);
}

// --- Logger -----------------------------------------------------------------

TEST(ObsLog, LevelGateFilters) {
  Logger& logger = Logger::instance();
  const LogLevel previous = logger.level();
  logger.set_level(LogLevel::kWarn);
  EXPECT_FALSE(logger.enabled(LogLevel::kDebug));
  EXPECT_FALSE(logger.enabled(LogLevel::kInfo));
  EXPECT_TRUE(logger.enabled(LogLevel::kWarn));
  EXPECT_TRUE(logger.enabled(LogLevel::kError));
  logger.set_level(LogLevel::kOff);
  EXPECT_FALSE(logger.enabled(LogLevel::kError));
  logger.set_level(previous);
}

TEST(ObsLog, ParseLevelNames) {
  EXPECT_EQ(parse_log_level("info"), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("warn"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("off"), LogLevel::kOff);
  EXPECT_FALSE(parse_log_level("loud").has_value());
  EXPECT_EQ(std::string(log_level_name(LogLevel::kError)), "error");
}

TEST(ObsLog, FileSinkWritesJsonLines) {
  Logger& logger = Logger::instance();
  const LogLevel previous = logger.level();
  const std::string path =
      "/tmp/fetch-obs-log-test-" + std::to_string(::getpid()) + ".jsonl";
  std::string error;
  ASSERT_TRUE(logger.open_file(path, &error)) << error;
  logger.set_level(LogLevel::kInfo);
  log_info("test", "hello", {{"key", "value"}});
  log_debug("test", "filtered out");
  logger.close_file();
  logger.set_level(previous);

  std::ifstream in(path);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  std::remove(path.c_str());
  ASSERT_EQ(lines.size(), 1u);  // the debug event was below the level
  const auto event = util::json::Value::parse(lines[0]);
  ASSERT_TRUE(event.has_value()) << lines[0];
  const util::json::Value* level = event->get("level");
  const util::json::Value* component = event->get("component");
  const util::json::Value* message = event->get("message");
  const util::json::Value* fields = event->get("fields");
  ASSERT_NE(level, nullptr);
  ASSERT_NE(component, nullptr);
  ASSERT_NE(message, nullptr);
  ASSERT_NE(fields, nullptr);
  EXPECT_EQ(level->text(), "info");
  EXPECT_EQ(component->text(), "test");
  EXPECT_EQ(message->text(), "hello");
  const util::json::Value* field = fields->get("key");
  ASSERT_NE(field, nullptr);
  EXPECT_EQ(field->text(), "value");
}

}  // namespace
}  // namespace fetch::obs
