#pragma once

/// \file byte_cursor.hpp
/// Bounds-checked forward reader over a byte span. Every parser in fetch
/// reads input exclusively through ByteCursor, which guarantees that
/// malformed input raises ParseError instead of reading out of bounds.

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>

#include "util/error.hpp"

namespace fetch {

class ByteCursor {
 public:
  ByteCursor() = default;
  explicit ByteCursor(std::span<const std::uint8_t> data) : data_(data) {}

  /// Bytes consumed so far.
  [[nodiscard]] std::size_t offset() const { return pos_; }
  /// Bytes still available.
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool empty() const { return remaining() == 0; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }

  /// Repositions the cursor to an absolute offset within the span.
  void seek(std::size_t offset) {
    if (offset > data_.size()) {
      throw ParseError("ByteCursor::seek past end (" + std::to_string(offset) +
                       " > " + std::to_string(data_.size()) + ")");
    }
    pos_ = offset;
  }

  void skip(std::size_t n) {
    require(n, "skip");
    pos_ += n;
  }

  [[nodiscard]] std::uint8_t peek_u8() const {
    require(1, "peek_u8");
    return data_[pos_];
  }

  std::uint8_t u8() { return read_scalar<std::uint8_t>("u8"); }
  std::uint16_t u16() { return read_scalar<std::uint16_t>("u16"); }
  std::uint32_t u32() { return read_scalar<std::uint32_t>("u32"); }
  std::uint64_t u64() { return read_scalar<std::uint64_t>("u64"); }
  std::int8_t i8() { return static_cast<std::int8_t>(u8()); }
  std::int16_t i16() { return static_cast<std::int16_t>(u16()); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  /// Unsigned LEB128 (DWARF).
  std::uint64_t uleb128() {
    std::uint64_t result = 0;
    unsigned shift = 0;
    while (true) {
      const std::uint8_t byte = u8();
      if (shift < 64) {
        result |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      }
      if ((byte & 0x80) == 0) {
        return result;
      }
      shift += 7;
      if (shift > 70) {
        throw ParseError("uleb128 too long");
      }
    }
  }

  /// Signed LEB128 (DWARF).
  std::int64_t sleb128() {
    std::int64_t result = 0;
    unsigned shift = 0;
    std::uint8_t byte = 0;
    do {
      byte = u8();
      if (shift < 64) {
        result |= static_cast<std::int64_t>(
            static_cast<std::uint64_t>(byte & 0x7f) << shift);
      }
      shift += 7;
      if (shift > 70) {
        throw ParseError("sleb128 too long");
      }
    } while ((byte & 0x80) != 0);
    if (shift < 64 && (byte & 0x40) != 0) {
      result |= -(static_cast<std::int64_t>(1) << shift);  // sign extend
    }
    return result;
  }

  /// Reads \p n raw bytes; the returned view aliases the underlying buffer.
  std::span<const std::uint8_t> bytes(std::size_t n) {
    require(n, "bytes");
    auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  /// Reads \p n bytes as text. The copy (vs a string_view) is deliberate:
  /// callers routinely outlive the underlying buffer.
  std::string string(std::size_t n) {
    const auto view = bytes(n);
    std::string out(n, '\0');
    std::memcpy(out.data(), view.data(), n);
    return out;
  }

  /// Reads one trivially-copyable record (e.g. an ELF header struct) with
  /// the same bounds checking as the scalar readers. memcpy keeps the load
  /// alignment- and aliasing-safe for any source offset.
  template <class T>
  T pod() {
    static_assert(std::is_trivially_copyable_v<T>,
                  "pod() needs a flat struct");
    require(sizeof(T), "pod record");
    T value;
    std::memcpy(&value, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  /// NUL-terminated string (the terminator is consumed).
  std::string cstring() {
    std::string out;
    while (true) {
      const char c = static_cast<char>(u8());
      if (c == '\0') {
        return out;
      }
      out.push_back(c);
      if (out.size() > data_.size()) {
        throw ParseError("unterminated string");  // unreachable safety net
      }
    }
  }

  /// A sub-cursor over the next \p n bytes (consumes them from this cursor).
  ByteCursor sub(std::size_t n) { return ByteCursor(bytes(n)); }

 private:
  template <class T>
  T read_scalar(const char* what) {
    require(sizeof(T), what);
    T value;
    std::memcpy(&value, data_.data() + pos_, sizeof(T));  // little-endian host
    pos_ += sizeof(T);
    return value;
  }

  /// The bounds check every read makes. The throw lives out of line, so
  /// this stays small enough to inline and the compiler sees each read
  /// guarded by it.
  void require(std::size_t n, const char* what) const {
    if (remaining() < n) {
      truncated(n, what);
    }
  }

  [[noreturn]] [[gnu::noinline]] void truncated(std::size_t n,
                                                const char* what) const {
    throw ParseError(std::string("ByteCursor: truncated input reading ") +
                     what + " (need " + std::to_string(n) + ", have " +
                     std::to_string(remaining()) + ")");
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Bounds-checked subspan: the view [off, off+size) of \p data, or
/// ParseError when the range does not fit. The overflow-safe form of
/// `data.data() + off` slicing for untrusted offsets.
inline std::span<const std::uint8_t> subspan_checked(
    std::span<const std::uint8_t> data, std::uint64_t off,
    std::uint64_t size, const char* what = "slice") {
  if (off > data.size() || size > data.size() - off) {
    throw ParseError(std::string("ByteCursor: ") + what + " [" +
                     std::to_string(off) + ", +" + std::to_string(size) +
                     ") out of bounds of " + std::to_string(data.size()) +
                     " bytes");
  }
  return data.subspan(static_cast<std::size_t>(off),
                      static_cast<std::size_t>(size));
}

}  // namespace fetch
