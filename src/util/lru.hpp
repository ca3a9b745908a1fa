#pragma once

/// \file lru.hpp
/// Sharded, capacity-bounded LRU cache with single-flight computation —
/// the result-cache primitive behind the analysis service (src/service/).
///
/// Keys are 64-bit hashes: the service keys its result cache by content
/// (util/hash.hpp XXH64 digests) and its stat memo by (device, inode).
/// Values are handed out as shared_ptr<const V>, so a hit shares the
/// cached object with zero copying and an entry evicted while a reader
/// still holds it stays alive until the last reader drops it.
///
/// Single-flight: get_or_compute() guarantees that concurrent callers
/// asking for the same absent key trigger exactly ONE computation; the
/// rest block until it finishes and share the result (Outcome::kJoined).
/// N clients querying the service for the same new binary cost one
/// analysis, not N.
///
/// Sharding: keys are distributed over independently locked shards, so
/// the lock a request takes is only contended by keys in the same shard
/// and a slow *computation* never holds any lock at all. Capacity is
/// divided evenly across shards; eviction is strict LRU per shard, which
/// makes eviction order fully deterministic for a single-shard cache
/// (the configuration the eviction tests pin down).

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace fetch::util {

/// Aggregated counters across all shards. `entries` is a point-in-time
/// sum; the monotonic counters never decrease.
struct LruStats {
  std::uint64_t hits = 0;       ///< value found in the cache
  std::uint64_t misses = 0;     ///< value computed by this caller
  std::uint64_t joined = 0;     ///< waited on another caller's computation
  std::uint64_t evictions = 0;  ///< entries dropped to respect capacity
  std::size_t entries = 0;      ///< current cached entries

  /// Every lookup lands in exactly one of hits/misses/joined — the
  /// conservation law the observability tests pin down.
  [[nodiscard]] std::uint64_t lookups() const {
    return hits + misses + joined;
  }
};

template <typename V>
class ShardedLru {
 public:
  enum class Outcome : std::uint8_t { kHit, kComputed, kJoined };

  /// Entries each shard should be able to hold before sharding is worth
  /// its skew: capacity is striped by key hash, so a shard whose slice
  /// is tiny evicts hot keys that would have fit in a global LRU. Small
  /// caches therefore collapse to fewer shards instead of thrashing.
  static constexpr std::size_t kMinEntriesPerShard = 8;

  /// \p capacity is the total entry budget, split evenly across up to
  /// \p shards shards (fewer when capacity / kMinEntriesPerShard is
  /// smaller; each shard always holds at least one entry). Rounded DOWN
  /// to a multiple of the shard count, so capacity() — what stats
  /// report and eviction enforces — never exceeds the configured budget.
  ShardedLru(std::size_t capacity, std::size_t shards)
      : shards_(effective_shards(capacity, shards)) {
    per_shard_capacity_ = capacity / shards_.size();
    if (per_shard_capacity_ == 0) {
      per_shard_capacity_ = 1;
    }
  }

  ShardedLru(const ShardedLru&) = delete;
  ShardedLru& operator=(const ShardedLru&) = delete;

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] std::size_t capacity() const {
    return per_shard_capacity_ * shards_.size();
  }

  /// Looks up \p key, promoting it to most-recently-used. nullptr on miss
  /// (counted as a miss).
  [[nodiscard]] std::shared_ptr<const V> get(std::uint64_t key) {
    Shard& shard = shard_for(key);
    const std::lock_guard<std::mutex> lock(shard.mu);
    std::shared_ptr<const V> value = hit_locked(shard, key);
    if (value == nullptr) {
      ++shard.misses;
    }
    return value;
  }

  /// Looks up \p key like get(), but counts only a hit: an absent key
  /// leaves the counters alone. For a probe that falls back to
  /// get_or_compute() on nullptr, which then counts the miss or join, so
  /// lookups() still counts each request once.
  [[nodiscard]] std::shared_ptr<const V> find(std::uint64_t key) {
    Shard& shard = shard_for(key);
    const std::lock_guard<std::mutex> lock(shard.mu);
    return hit_locked(shard, key);
  }

  /// Inserts (or overwrites and promotes) \p key.
  void put(std::uint64_t key, std::shared_ptr<const V> value) {
    FETCH_ASSERT(value != nullptr);
    Shard& shard = shard_for(key);
    const std::lock_guard<std::mutex> lock(shard.mu);
    insert_locked(shard, key, std::move(value));
  }

  /// Returns the cached value for \p key, or computes it exactly once.
  /// \p fn returns V by value and runs WITHOUT any shard lock held, so a
  /// slow computation never blocks unrelated keys. If \p fn throws, every
  /// caller waiting on this computation rethrows the same exception and
  /// nothing is cached.
  template <typename Fn>
  [[nodiscard]] std::pair<std::shared_ptr<const V>, Outcome> get_or_compute(
      std::uint64_t key, Fn&& fn) {
    Shard& shard = shard_for(key);
    std::unique_lock<std::mutex> lock(shard.mu);
    for (;;) {
      if (std::shared_ptr<const V> value = hit_locked(shard, key)) {
        return {std::move(value), Outcome::kHit};
      }
      const auto flight = shard.inflight.find(key);
      if (flight == shard.inflight.end()) {
        break;  // nobody is computing: this caller will
      }
      const std::shared_ptr<Inflight> entry = flight->second;
      entry->cv.wait(lock, [&entry] { return entry->done; });
      if (entry->error) {
        std::rethrow_exception(entry->error);
      }
      ++shard.joined;
      return {entry->value, Outcome::kJoined};
    }

    const auto flight = std::make_shared<Inflight>();
    shard.inflight.emplace(key, flight);
    ++shard.misses;
    lock.unlock();

    std::shared_ptr<const V> value;
    std::exception_ptr error;
    try {
      value = std::make_shared<const V>(fn());
    } catch (...) {
      error = std::current_exception();
    }

    lock.lock();
    if (!error) {
      insert_locked(shard, key, value);
    }
    flight->value = value;
    flight->error = error;
    flight->done = true;
    shard.inflight.erase(key);
    lock.unlock();
    flight->cv.notify_all();
    if (error) {
      std::rethrow_exception(error);
    }
    return {value, Outcome::kComputed};
  }

  [[nodiscard]] LruStats stats() const {
    LruStats out;
    for (const Shard& shard : shards_) {
      const std::lock_guard<std::mutex> lock(shard.mu);
      out.hits += shard.hits;
      out.misses += shard.misses;
      out.joined += shard.joined;
      out.evictions += shard.evictions;
      out.entries += shard.index.size();
    }
    return out;
  }

 private:
  struct Inflight {
    std::condition_variable cv;
    bool done = false;
    std::shared_ptr<const V> value;
    std::exception_ptr error;
  };

  struct Shard {
    mutable std::mutex mu;
    /// MRU at the front; eviction pops the back.
    std::list<std::pair<std::uint64_t, std::shared_ptr<const V>>> order;
    std::unordered_map<
        std::uint64_t,
        typename std::list<
            std::pair<std::uint64_t, std::shared_ptr<const V>>>::iterator>
        index;
    std::unordered_map<std::uint64_t, std::shared_ptr<Inflight>> inflight;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t joined = 0;
    std::uint64_t evictions = 0;
  };

  static std::size_t effective_shards(std::size_t capacity,
                                      std::size_t shards) {
    if (shards == 0) {
      shards = 1;
    }
    const std::size_t supportable =
        std::max<std::size_t>(1, capacity / kMinEntriesPerShard);
    return std::min(shards, supportable);
  }

  Shard& shard_for(std::uint64_t key) {
    // Finalizer-style mix so content hashes that differ only in high bits
    // still spread across shards.
    std::uint64_t h = key;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return shards_[h % shards_.size()];
  }

  /// The value cached for \p key, promoted to most-recently-used and
  /// counted as a hit; nullptr, counted nowhere, when absent. The caller
  /// holds shard.mu.
  std::shared_ptr<const V> hit_locked(Shard& shard, std::uint64_t key) {
    const auto it = shard.index.find(key);
    if (it == shard.index.end()) {
      return nullptr;
    }
    ++shard.hits;
    shard.order.splice(shard.order.begin(), shard.order, it->second);
    return it->second->second;
  }

  void insert_locked(Shard& shard, std::uint64_t key,
                     std::shared_ptr<const V> value) {
    const auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      it->second->second = std::move(value);
      shard.order.splice(shard.order.begin(), shard.order, it->second);
      return;
    }
    shard.order.emplace_front(key, std::move(value));
    shard.index.emplace(key, shard.order.begin());
    while (shard.index.size() > per_shard_capacity_) {
      shard.index.erase(shard.order.back().first);
      shard.order.pop_back();
      ++shard.evictions;
    }
  }

  std::vector<Shard> shards_;
  std::size_t per_shard_capacity_ = 1;
};

}  // namespace fetch::util
