#pragma once

/// \file hash.hpp
/// The two stable hashes fetch uses. Both are pure functions of the fed
/// bytes, so digests agree across platforms and runs.
///
/// - Fnv1a: a streaming FNV-1a (64-bit) hasher for structured values:
///   per-entry corpus RNG seeds, experiment-spec fingerprints and trace
///   ids. Multi-byte values are fed in a fixed little-endian canonical
///   form and variable-length values (strings, spans) are length-prefixed,
///   so adjacent fields can never alias each other ("ab"+"c" != "a"+"bc").
/// - xxh64: XXH64 with seed 0 over a whole buffer, the content key of the
///   analysis service's result cache. It consumes four 8-byte lanes per
///   32-byte stripe, so it runs an order of magnitude faster than the
///   byte-serial FNV-1a on multi-MiB binaries.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>
#include <type_traits>

namespace fetch::util {

class Fnv1a {
 public:
  static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ULL;
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;

  /// Starts from the standard offset basis, or chains from a previous
  /// digest (used to derive per-entry seeds from a corpus-level hash).
  explicit Fnv1a(std::uint64_t basis = kOffsetBasis) : h_(basis) {}

  void byte(std::uint8_t b) { h_ = (h_ ^ b) * kPrime; }

  void bytes(std::span<const std::uint8_t> data) {
    for (const std::uint8_t b : data) {
      byte(b);
    }
  }

  /// Any integral (or enum) value, canonicalized to 8 little-endian bytes.
  template <typename T>
  void value(T v) {
    static_assert(std::is_integral_v<T> || std::is_enum_v<T>);
    auto u = static_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i) {
      byte(static_cast<std::uint8_t>(u >> (8 * i)));
    }
  }

  /// IEEE-754 bit pattern; all corpus probabilities flow through here.
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    value(bits);
  }

  /// Length-prefixed string contents.
  void str(std::string_view s) {
    value(s.size());
    for (const char c : s) {
      byte(static_cast<std::uint8_t>(c));
    }
  }

  [[nodiscard]] std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_;
};

/// One-shot convenience: fnv1a("name", 3u, Role::kLeaf) — each argument is
/// dispatched to str()/value() by type.
template <typename... Args>
[[nodiscard]] std::uint64_t fnv1a(const Args&... args) {
  Fnv1a h;
  (
      [&] {
        if constexpr (std::is_convertible_v<Args, std::string_view>) {
          h.str(args);
        } else {
          h.value(args);
        }
      }(),
      ...);
  return h.digest();
}

namespace detail {

/// The little-endian unsigned value of the sizeof(T) bytes at \p p: one
/// unaligned load on little-endian hosts, byte assembly elsewhere.
template <typename T>
[[nodiscard]] inline std::uint64_t load_le(const std::uint8_t* p) {
  T v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof(v));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<T>(p[i]) << (8 * i));
    }
  }
  return v;
}

}  // namespace detail

/// XXH64 (seed 0) of \p data, bit-compatible with the reference
/// implementation. Lanes are assembled from bytes in little-endian order,
/// so the digest is the same on every host byte order.
[[nodiscard]] inline std::uint64_t xxh64(std::span<const std::uint8_t> data) {
  constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ULL;
  constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;
  constexpr std::uint64_t kP3 = 0x165667B19E3779F9ULL;
  constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ULL;
  constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ULL;
  using detail::load_le;
  const auto round = [](std::uint64_t acc, std::uint64_t lane) {
    return std::rotl(acc + lane * kP2, 31) * kP1;
  };
  const auto merge = [&](std::uint64_t h, std::uint64_t v) {
    return (h ^ round(0, v)) * kP1 + kP4;
  };

  const std::uint8_t* p = data.data();
  std::size_t left = data.size();
  std::uint64_t h = 0;
  if (left >= 32) {
    std::uint64_t v1 = kP1 + kP2;
    std::uint64_t v2 = kP2;
    std::uint64_t v3 = 0;
    std::uint64_t v4 = 0 - kP1;
    for (; left >= 32; p += 32, left -= 32) {
      v1 = round(v1, load_le<std::uint64_t>(p));
      v2 = round(v2, load_le<std::uint64_t>(p + 8));
      v3 = round(v3, load_le<std::uint64_t>(p + 16));
      v4 = round(v4, load_le<std::uint64_t>(p + 24));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = merge(merge(merge(merge(h, v1), v2), v3), v4);
  } else {
    h = kP5;
  }
  h += static_cast<std::uint64_t>(data.size());

  for (; left >= 8; p += 8, left -= 8) {
    h = std::rotl(h ^ round(0, load_le<std::uint64_t>(p)), 27) * kP1 + kP4;
  }
  if (left >= 4) {
    h = std::rotl(h ^ (load_le<std::uint32_t>(p) * kP1), 23) * kP2 + kP3;
    p += 4;
    left -= 4;
  }
  for (; left > 0; ++p, --left) {
    h = std::rotl(h ^ (*p * kP5), 11) * kP1;
  }

  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

}  // namespace fetch::util
