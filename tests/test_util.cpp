#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "eval/session.hpp"
#include "util/byte_cursor.hpp"
#include "util/byte_writer.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer_wheel.hpp"

namespace fetch {
namespace {

TEST(ByteCursor, ReadsScalarsLittleEndian) {
  const std::uint8_t data[] = {0x01, 0x02, 0x03, 0x04, 0x05,
                               0x06, 0x07, 0x08, 0x09};
  ByteCursor cur({data, sizeof(data)});
  EXPECT_EQ(cur.u8(), 0x01u);
  EXPECT_EQ(cur.u16(), 0x0302u);
  EXPECT_EQ(cur.u32(), 0x07060504u);
  EXPECT_EQ(cur.remaining(), 2u);
}

TEST(ByteCursor, ThrowsOnTruncatedRead) {
  const std::uint8_t data[] = {0x01, 0x02};
  ByteCursor cur({data, sizeof(data)});
  cur.u8();
  EXPECT_THROW(cur.u32(), ParseError);
}

TEST(ByteCursor, SeekAndSkipBounds) {
  const std::uint8_t data[] = {1, 2, 3, 4};
  ByteCursor cur({data, sizeof(data)});
  cur.seek(4);
  EXPECT_TRUE(cur.empty());
  EXPECT_THROW(cur.seek(5), ParseError);
  cur.seek(0);
  cur.skip(3);
  EXPECT_EQ(cur.remaining(), 1u);
  EXPECT_THROW(cur.skip(2), ParseError);
}

TEST(ByteCursor, CstringStopsAtNul) {
  const std::uint8_t data[] = {'z', 'R', 0, 7};
  ByteCursor cur({data, sizeof(data)});
  EXPECT_EQ(cur.cstring(), "zR");
  EXPECT_EQ(cur.u8(), 7u);
}

TEST(ByteCursor, CstringThrowsWhenUnterminated) {
  const std::uint8_t data[] = {'a', 'b'};
  ByteCursor cur({data, sizeof(data)});
  EXPECT_THROW(cur.cstring(), ParseError);
}

class Leb128Roundtrip : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(Leb128Roundtrip, Signed) {
  const std::int64_t value = GetParam();
  ByteWriter w;
  w.sleb128(value);
  auto bytes = w.take();
  ByteCursor cur({bytes.data(), bytes.size()});
  EXPECT_EQ(cur.sleb128(), value);
  EXPECT_TRUE(cur.empty());
}

TEST_P(Leb128Roundtrip, UnsignedOfAbs) {
  const auto value =
      static_cast<std::uint64_t>(GetParam() < 0 ? -GetParam() : GetParam());
  ByteWriter w;
  w.uleb128(value);
  auto bytes = w.take();
  ByteCursor cur({bytes.data(), bytes.size()});
  EXPECT_EQ(cur.uleb128(), value);
}

INSTANTIATE_TEST_SUITE_P(Values, Leb128Roundtrip,
                         ::testing::Values(0, 1, -1, 63, 64, -64, -65, 127,
                                           128, -128, 0x7fff, -0x8000,
                                           0x12345678, -0x12345678,
                                           INT64_MAX, INT64_MIN + 1));

TEST(ByteWriter, PatchingAndAlignment) {
  ByteWriter w;
  w.u32(0);
  w.cstring("ab");  // 3 bytes incl. NUL -> size 7, one padding byte
  w.align(8, 0xcc);
  EXPECT_EQ(w.size() % 8, 0u);
  w.patch_u32(0, 0xdeadbeef);
  const auto bytes = w.take();
  std::uint32_t v;
  std::memcpy(&v, bytes.data(), 4);
  EXPECT_EQ(v, 0xdeadbeefu);
  EXPECT_EQ(bytes[7], 0xccu);
}

TEST(Rng, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.next() == b.next() ? 1 : 0;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, BelowIsInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, RangeInclusive) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.range(3, 6);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 6u);
    saw_lo |= v == 3;
    saw_hi |= v == 6;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(ThreadPool, RunsEverySubmittedTask) {
  std::atomic<int> counter{0};
  {
    util::ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
  }  // destructor drains the queue and joins
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    std::vector<std::atomic<int>> hits(257);
    util::parallel_for(jobs, hits.size(),
                       [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const std::atomic<int>& h : hits) {
      EXPECT_EQ(h.load(), 1);
    }
  }
}

TEST(ThreadPool, ParallelForSlotWritesMatchSerial) {
  std::vector<std::uint64_t> serial(1000);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    serial[i] = i * i;
  }
  std::vector<std::uint64_t> parallel(serial.size());
  util::parallel_for(8, parallel.size(),
                     [&](std::size_t i) { parallel[i] = i * i; });
  EXPECT_EQ(parallel, serial);
}

TEST(ThreadPool, ParallelForRethrowsFirstException) {
  EXPECT_THROW(
      util::parallel_for(4, 64,
                         [](std::size_t i) {
                           if (i % 7 == 3) {
                             throw std::runtime_error("boom");
                           }
                         }),
      std::runtime_error);
}

TEST(ThreadPool, ParallelForZeroAndOneItems) {
  int runs = 0;
  util::parallel_for(4, 0, [&](std::size_t) { ++runs; });
  EXPECT_EQ(runs, 0);
  util::parallel_for(4, 1, [&](std::size_t) { ++runs; });
  EXPECT_EQ(runs, 1);
}

TEST(ThreadPool, ParallelMapMatchesSerial) {
  const auto squares = util::parallel_map<std::uint64_t>(
      4, 100, [](std::size_t i) { return i * i; });
  ASSERT_EQ(squares.size(), 100u);
  for (std::size_t i = 0; i < squares.size(); ++i) {
    EXPECT_EQ(squares[i], i * i);
  }
}

TEST(ThreadPool, ParseJobsAcceptsOnlyPlainNonNegativeIntegers) {
  std::size_t jobs = 99;
  EXPECT_TRUE(util::parse_jobs("4", &jobs));
  EXPECT_EQ(jobs, 4u);
  EXPECT_TRUE(util::parse_jobs("0", &jobs));
  EXPECT_EQ(jobs, 0u);
  jobs = 99;
  EXPECT_FALSE(util::parse_jobs("-1", &jobs));
  EXPECT_FALSE(util::parse_jobs("+1", &jobs));
  EXPECT_FALSE(util::parse_jobs("", &jobs));
  EXPECT_FALSE(util::parse_jobs("4x", &jobs));
  EXPECT_FALSE(util::parse_jobs(" 4", &jobs));
  EXPECT_FALSE(util::parse_jobs("banana", &jobs));
  EXPECT_EQ(jobs, 99u);  // rejected inputs leave the output untouched
}

TEST(ThreadPool, DefaultJobsHonorsEnvVariable) {
  ::setenv("FETCH_JOBS", "3", 1);
  EXPECT_EQ(util::default_jobs(), 3u);
  ::setenv("FETCH_JOBS", "not-a-number", 1);
  EXPECT_GE(util::default_jobs(), 1u);
  ::unsetenv("FETCH_JOBS");
  EXPECT_GE(util::default_jobs(), 1u);
}

std::uint64_t xxh64_of(std::string_view text) {
  return util::xxh64({reinterpret_cast<const std::uint8_t*>(text.data()),
                      text.size()});
}

/// XXH64 (seed 0) as the specification states it, one step at a time:
/// the independent check on util::xxh64's lane loads and tail handling.
std::uint64_t xxh64_reference(const std::vector<std::uint8_t>& in,
                              std::size_t len) {
  const std::uint64_t p1 = 0x9E3779B185EBCA87ULL;
  const std::uint64_t p2 = 0xC2B2AE3D27D4EB4FULL;
  const std::uint64_t p3 = 0x165667B19E3779F9ULL;
  const std::uint64_t p4 = 0x85EBCA77C2B2AE63ULL;
  const std::uint64_t p5 = 0x27D4EB2F165667C5ULL;
  auto rotl = [](std::uint64_t x, int r) { return (x << r) | (x >> (64 - r)); };
  auto read = [&](std::size_t at, std::size_t width) {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < width; ++i) {
      v |= static_cast<std::uint64_t>(in[at + i]) << (8 * i);
    }
    return v;
  };
  auto round = [&](std::uint64_t acc, std::uint64_t lane) {
    acc += lane * p2;
    acc = rotl(acc, 31);
    return acc * p1;
  };
  std::size_t i = 0;
  std::uint64_t h = 0;
  if (len >= 32) {
    std::uint64_t acc[4] = {p1 + p2, p2, 0, 0 - p1};
    for (; i + 32 <= len; i += 32) {
      for (std::size_t lane = 0; lane < 4; ++lane) {
        acc[lane] = round(acc[lane], read(i + 8 * lane, 8));
      }
    }
    h = rotl(acc[0], 1) + rotl(acc[1], 7) + rotl(acc[2], 12) +
        rotl(acc[3], 18);
    for (const std::uint64_t a : acc) {
      h ^= round(0, a);
      h = h * p1 + p4;
    }
  } else {
    h = p5;
  }
  h += len;
  for (; i + 8 <= len; i += 8) {
    h ^= round(0, read(i, 8));
    h = rotl(h, 27) * p1 + p4;
  }
  if (i + 4 <= len) {
    h ^= read(i, 4) * p1;
    h = rotl(h, 23) * p2 + p3;
    i += 4;
  }
  for (; i < len; ++i) {
    h ^= in[i] * p5;
    h = rotl(h, 11) * p1;
  }
  h ^= h >> 33;
  h *= p2;
  h ^= h >> 29;
  h *= p3;
  h ^= h >> 32;
  return h;
}

TEST(Xxh64, MatchesPublishedVectors) {
  EXPECT_EQ(xxh64_of(""), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(xxh64_of("a"), 0xD24EC4F1A98C6E5BULL);
  EXPECT_EQ(xxh64_of("abc"), 0x44BC2CF5AD770999ULL);
  // 39 and 43 bytes: one 32-byte stripe, then 8-, 4- and 1-byte tails.
  EXPECT_EQ(xxh64_of("Nobody inspects the spammish repetition"),
            0xFBCEA83C8A378BF1ULL);
  EXPECT_EQ(xxh64_of("The quick brown fox jumps over the lazy dog"),
            0x0B242D361FDA71BCULL);
}

TEST(Xxh64, EveryTailLengthMatchesTheReference) {
  std::vector<std::uint8_t> buffer(3 * 32);
  for (std::size_t i = 0; i < buffer.size(); ++i) {
    buffer[i] = static_cast<std::uint8_t>(i * 167 + 13);
  }
  // 0-31 bytes take the short path; 32-95 cover every tail after one and
  // two full stripes.
  for (std::size_t len = 0; len < buffer.size(); ++len) {
    EXPECT_EQ(util::xxh64({buffer.data(), len}),
              xxh64_reference(buffer, len))
        << "length " << len;
  }
}

TEST(Xxh64, IsTheServiceContentHash) {
  const std::vector<std::uint8_t> bytes = {0x7f, 'E', 'L', 'F', 2, 1, 1, 0};
  EXPECT_EQ(eval::AnalysisSession::content_hash(bytes), util::xxh64(bytes));
}

TEST(TimerWheel, FiresExactlyOnceAtOrAfterDeadline) {
  util::TimerWheel wheel(10, 16);
  wheel.schedule(7, 100);
  std::vector<std::uint64_t> expired;
  wheel.expire(99, &expired);
  EXPECT_TRUE(expired.empty());
  wheel.expire(100, &expired);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0], 7u);
  EXPECT_EQ(wheel.armed(), 0u);
  // Firing disarms: later sweeps stay quiet.
  expired.clear();
  wheel.expire(500, &expired);
  EXPECT_TRUE(expired.empty());
}

TEST(TimerWheel, RescheduleSupersedesAndCancelDisarms) {
  util::TimerWheel wheel(10, 16);
  wheel.schedule(1, 50);
  wheel.schedule(1, 300);  // newest wins; the 50 ms entry is now stale
  wheel.schedule(2, 50);
  wheel.cancel(2);
  std::vector<std::uint64_t> expired;
  wheel.expire(200, &expired);
  EXPECT_TRUE(expired.empty()) << "stale or cancelled entry fired";
  wheel.expire(300, &expired);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0], 1u);
}

TEST(TimerWheel, DeadlinesBeyondOneRevolutionSurvive) {
  // Circumference 8 slots x 10 ms = 80 ms; a 250 ms deadline shares a
  // slot with earlier ticks and must ride out two full revolutions.
  util::TimerWheel wheel(10, 8);
  wheel.schedule(9, 250);
  std::vector<std::uint64_t> expired;
  for (std::uint64_t now = 10; now < 250; now += 10) {
    wheel.expire(now, &expired);
    ASSERT_TRUE(expired.empty()) << "fired early at " << now << " ms";
  }
  wheel.expire(250, &expired);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0], 9u);
}

TEST(TimerWheel, NextDeadlineTracksEarliestArmed) {
  util::TimerWheel wheel;
  EXPECT_EQ(wheel.next_deadline(), 0u);
  wheel.schedule(1, 900);
  wheel.schedule(2, 400);
  wheel.schedule(3, 1200);
  EXPECT_EQ(wheel.next_deadline(), 400u);
  wheel.cancel(2);
  EXPECT_EQ(wheel.next_deadline(), 900u);
  std::vector<std::uint64_t> expired;
  wheel.expire(1200, &expired);
  EXPECT_EQ(expired.size(), 2u);
  EXPECT_EQ(wheel.next_deadline(), 0u);
}

TEST(TimerWheel, ManyIdsExpireAcrossOneSweep) {
  util::TimerWheel wheel(10, 32);
  for (std::uint64_t id = 0; id < 100; ++id) {
    wheel.schedule(id, 10 + id * 3);
  }
  std::vector<std::uint64_t> expired;
  wheel.expire(1000, &expired);
  EXPECT_EQ(expired.size(), 100u);
  std::sort(expired.begin(), expired.end());
  for (std::uint64_t id = 0; id < 100; ++id) {
    EXPECT_EQ(expired[id], id);
  }
  EXPECT_EQ(wheel.armed(), 0u);
}

}  // namespace
}  // namespace fetch
