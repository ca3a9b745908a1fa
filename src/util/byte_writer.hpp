#pragma once

/// \file byte_writer.hpp
/// Append-only little-endian byte buffer used by the ELF and eh_frame
/// builders in fetch::synth. Also supports patching previously written
/// bytes, which the builders use for size fields written before content.

#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/error.hpp"

namespace fetch {

class ByteWriter {
 public:
  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  [[nodiscard]] const std::vector<std::uint8_t>& data() const { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { scalar(v); }
  void u32(std::uint32_t v) { scalar(v); }
  void u64(std::uint64_t v) { scalar(v); }
  void i8(std::int8_t v) { u8(static_cast<std::uint8_t>(v)); }
  void i16(std::int16_t v) { u16(static_cast<std::uint16_t>(v)); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

  void uleb128(std::uint64_t v) {
    do {
      std::uint8_t byte = v & 0x7f;
      v >>= 7;
      if (v != 0) {
        byte |= 0x80;
      }
      u8(byte);
    } while (v != 0);
  }

  void sleb128(std::int64_t v) {
    bool more = true;
    while (more) {
      std::uint8_t byte = v & 0x7f;
      v >>= 7;  // arithmetic shift
      const bool sign = (byte & 0x40) != 0;
      if ((v == 0 && !sign) || (v == -1 && sign)) {
        more = false;
      } else {
        byte |= 0x80;
      }
      u8(byte);
    }
  }

  void bytes(std::span<const std::uint8_t> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  /// Writes the string contents with no terminator (length-prefixed
  /// formats carry the size out of band).
  void text(std::string_view s) {
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  /// Writes the string contents followed by a NUL terminator.
  void cstring(std::string_view s) {
    buf_.insert(buf_.end(), s.begin(), s.end());
    u8(0);
  }

  /// Writes one trivially-copyable record (e.g. an ELF header struct) as
  /// raw bytes — the serialization twin of ByteCursor::pod().
  template <class T>
  void pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "pod() needs a flat struct");
    const std::size_t at = buf_.size();
    buf_.resize(at + sizeof(T));
    std::memcpy(buf_.data() + at, &v, sizeof(T));
  }

  /// Appends \p n copies of \p fill.
  void pad(std::size_t n, std::uint8_t fill = 0) {
    buf_.insert(buf_.end(), n, fill);
  }

  /// Pads with \p fill until size() is a multiple of \p alignment.
  void align(std::size_t alignment, std::uint8_t fill = 0) {
    FETCH_ASSERT(alignment != 0);
    while (buf_.size() % alignment != 0) {
      buf_.push_back(fill);
    }
  }

  /// Overwrites a previously written 32-bit little-endian field.
  void patch_u32(std::size_t offset, std::uint32_t v) {
    FETCH_ASSERT(offset + 4 <= buf_.size());
    std::memcpy(buf_.data() + offset, &v, 4);
  }

  void patch_u64(std::size_t offset, std::uint64_t v) {
    FETCH_ASSERT(offset + 8 <= buf_.size());
    std::memcpy(buf_.data() + offset, &v, 8);
  }

 private:
  template <class T>
  void scalar(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));  // LE
    }
  }

  std::vector<std::uint8_t> buf_;
};

}  // namespace fetch
