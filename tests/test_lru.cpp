#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/lru.hpp"

namespace fetch::util {
namespace {

/// Unit coverage of the sharded single-flight LRU (the service's result
/// cache). Determinism cases use one shard so global LRU order is exact.

TEST(ShardedLru, HitMissAndPromotion) {
  ShardedLru<int> cache(/*capacity=*/3, /*shards=*/1);
  EXPECT_EQ(cache.get(1), nullptr);  // miss
  cache.put(1, std::make_shared<const int>(10));
  cache.put(2, std::make_shared<const int>(20));
  cache.put(3, std::make_shared<const int>(30));
  const auto hit = cache.get(1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 10);

  const LruStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(ShardedLru, EvictionIsDeterministicLruOrder) {
  ShardedLru<int> cache(3, 1);
  cache.put(1, std::make_shared<const int>(1));
  cache.put(2, std::make_shared<const int>(2));
  cache.put(3, std::make_shared<const int>(3));
  // Touch 1 so 2 is now least-recently-used; inserting 4 must evict 2.
  ASSERT_NE(cache.get(1), nullptr);
  cache.put(4, std::make_shared<const int>(4));
  EXPECT_EQ(cache.get(2), nullptr);
  EXPECT_NE(cache.get(1), nullptr);
  EXPECT_NE(cache.get(3), nullptr);
  EXPECT_NE(cache.get(4), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);

  // Repeat the same sequence on a fresh cache: identical outcome.
  ShardedLru<int> again(3, 1);
  again.put(1, std::make_shared<const int>(1));
  again.put(2, std::make_shared<const int>(2));
  again.put(3, std::make_shared<const int>(3));
  ASSERT_NE(again.get(1), nullptr);
  again.put(4, std::make_shared<const int>(4));
  EXPECT_EQ(again.get(2), nullptr);
  EXPECT_EQ(again.stats().evictions, 1u);
}

TEST(ShardedLru, EvictedEntryStaysAliveForHolders) {
  ShardedLru<int> cache(1, 1);
  cache.put(1, std::make_shared<const int>(11));
  const auto held = cache.get(1);
  cache.put(2, std::make_shared<const int>(22));  // evicts key 1
  EXPECT_EQ(cache.get(1), nullptr);
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(*held, 11);  // shared_ptr keeps the value valid
}

TEST(ShardedLru, GetOrComputeCachesAndCountsOutcomes) {
  ShardedLru<int> cache(4, 1);
  int computed = 0;
  const auto first = cache.get_or_compute(7, [&] {
    ++computed;
    return 70;
  });
  EXPECT_EQ(first.second, ShardedLru<int>::Outcome::kComputed);
  EXPECT_EQ(*first.first, 70);
  const auto second = cache.get_or_compute(7, [&] {
    ++computed;
    return 71;
  });
  EXPECT_EQ(second.second, ShardedLru<int>::Outcome::kHit);
  EXPECT_EQ(*second.first, 70);  // cached value, fn not rerun
  EXPECT_EQ(computed, 1);
}

TEST(ShardedLru, FindCountsOnlyHits) {
  // A probe with find() that falls back to get_or_compute() counts each
  // request once: the absent probe counts nothing, the compute a miss.
  ShardedLru<int> cache(4, 1);
  EXPECT_EQ(cache.find(9), nullptr);
  EXPECT_EQ(cache.stats().lookups(), 0u);
  const auto computed = cache.get_or_compute(9, [] { return 90; });
  EXPECT_EQ(computed.second, ShardedLru<int>::Outcome::kComputed);
  const auto found = cache.find(9);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found, computed.first);  // the cached object, not a copy

  const LruStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.joined, 0u);
  EXPECT_EQ(stats.lookups(), 2u);
}

TEST(ShardedLru, SingleFlightComputesOnceUnderContention) {
  ShardedLru<int> cache(8, 4);
  std::atomic<int> computations{0};
  std::atomic<int> hits{0};
  std::atomic<int> joined{0};
  std::vector<std::thread> threads;
  threads.reserve(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      const auto [value, outcome] = cache.get_or_compute(42, [&] {
        // Slow computation: every other thread must pile up behind it.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        return 1 + computations.fetch_add(1);
      });
      EXPECT_EQ(*value, 1);
      if (outcome == ShardedLru<int>::Outcome::kComputed) {
        // counted via `computations`
      } else if (outcome == ShardedLru<int>::Outcome::kJoined) {
        joined.fetch_add(1);
      } else {
        hits.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(computations.load(), 1);  // the whole point of single-flight
  EXPECT_EQ(hits.load() + joined.load(), 7);
}

TEST(ShardedLru, ComputeFailurePropagatesAndCachesNothing) {
  ShardedLru<int> cache(4, 1);
  EXPECT_THROW(
      {
        (void)cache.get_or_compute(
            5, []() -> int { throw std::runtime_error("boom"); });
      },
      std::runtime_error);
  EXPECT_EQ(cache.get(5), nullptr);
  int computed = 0;
  const auto retry = cache.get_or_compute(5, [&] {
    ++computed;
    return 55;
  });
  EXPECT_EQ(retry.second, ShardedLru<int>::Outcome::kComputed);
  EXPECT_EQ(computed, 1);  // a failed flight does not poison the key
}

TEST(ShardedLru, CapacitySplitsAcrossShards) {
  ShardedLru<int> cache(256, 8);
  EXPECT_EQ(cache.shard_count(), 8u);
  EXPECT_EQ(cache.capacity(), 256u);
  // Small caches collapse to fewer shards instead of striping a tiny
  // budget into one-entry shards that thrash on hot-key collisions.
  ShardedLru<int> small(8, 4);
  EXPECT_EQ(small.shard_count(), 1u);
  EXPECT_EQ(small.capacity(), 8u);
  ShardedLru<int> tiny(1, 4);
  EXPECT_EQ(tiny.shard_count(), 1u);
  EXPECT_EQ(tiny.capacity(), 1u);
  // Non-divisible budgets round DOWN: the enforced/reported capacity
  // never exceeds what the user configured.
  ShardedLru<int> uneven(100, 8);
  EXPECT_EQ(uneven.shard_count(), 8u);
  EXPECT_EQ(uneven.capacity(), 96u);
}

TEST(ShardedLru, SmallCapacityDoesNotThrashOnHotKeys) {
  // Regression: capacity 8 with 8 requested shards used to become eight
  // one-entry shards; two hot keys hashing to one shard then evicted
  // each other forever. Now they must all stay resident.
  ShardedLru<int> cache(8, 8);
  for (std::uint64_t key = 1; key <= 3; ++key) {
    cache.put(key, std::make_shared<const int>(static_cast<int>(key)));
  }
  for (int round = 0; round < 10; ++round) {
    for (std::uint64_t key = 1; key <= 3; ++key) {
      EXPECT_NE(cache.get(key), nullptr) << key;
    }
  }
  EXPECT_EQ(cache.stats().evictions, 0u);
}

// The sanitizer-matrix stress case (ctest label "concurrency", run under
// TSan in CI): 12 threads mixing get/put/get_or_compute over a key range
// larger than capacity, so eviction, promotion, single-flight joins, and
// failed flights all interleave on the same shard mutexes.
TEST(ShardedLru, MixedOperationsUnderHeavyContention) {
  ShardedLru<int> cache(/*capacity=*/32, /*shards=*/4);
  constexpr int kThreads = 12;
  constexpr int kOpsPerThread = 2000;
  constexpr std::uint64_t kKeys = 64;  // 2x capacity: constant eviction
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &failures, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::uint64_t key =
            (static_cast<std::uint64_t>(t) * 7919 + i) % kKeys;
        switch ((t + i) % 4) {
          case 0: {
            const auto hit = cache.get(key);
            // A hit must always carry the key's canonical value.
            if (hit != nullptr && *hit != static_cast<int>(key)) {
              failures.fetch_add(1);
            }
            break;
          }
          case 1:
            cache.put(key, std::make_shared<const int>(static_cast<int>(key)));
            break;
          case 2: {
            const auto [value, outcome] = cache.get_or_compute(
                key, [key] { return static_cast<int>(key); });
            if (*value != static_cast<int>(key)) {
              failures.fetch_add(1);
            }
            (void)outcome;
            break;
          }
          default:
            // Failed flights interleaved with the rest must neither poison
            // the key nor leak an Inflight entry.
            try {
              (void)cache.get_or_compute(
                  key, []() -> int { throw std::runtime_error("flaky"); });
            } catch (const std::runtime_error&) {
            }
            break;
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  const LruStats stats = cache.stats();
  EXPECT_LE(stats.entries, 32u);  // capacity respected throughout
  // Every key must still be computable (no stuck inflight state).
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    const auto [value, outcome] =
        cache.get_or_compute(key, [key] { return static_cast<int>(key); });
    ASSERT_EQ(*value, static_cast<int>(key));
    (void)outcome;
  }
}

}  // namespace
}  // namespace fetch::util
