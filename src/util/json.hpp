#pragma once

/// \file json.hpp
/// Minimal self-contained JSON: an ordered value tree, a strict pull
/// reader (Reader, the only tokenizer; Value::parse is built on it) and a
/// deterministic pretty-printer. Consumers: the fetch-service-v1 protocol
/// (service/protocol.cpp; a query reply is decoded with Reader straight
/// into an analysis, everything else through Value), the bench harness's
/// `--json` output and bench_diff, `fetch-cli batch --json`, the
/// experiment specs, tolerances and trajectories (src/exp), the metrics,
/// trace and log documents (src/obs), truth sidecars and the json_schema
/// validator.
///
/// Numbers keep their source/format text verbatim alongside the parsed
/// double, so a value formatted with eval::fmt() survives a
/// write → parse → compare cycle exactly — the property the
/// "JSON totals match the human-readable table" ctest check relies on.

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <unordered_map>
#include <utility>
#include <vector>

namespace fetch::util::json {

class Value;

/// Object members keep insertion order so dumps are deterministic and
/// diffs against a checked-in baseline stay readable.
using Member = std::pair<std::string, Value>;

class Value {
 public:
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  Value() : kind_(Kind::kNull) {}
  explicit Value(bool b) : kind_(Kind::kBool), bool_(b) {}
  explicit Value(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}
  explicit Value(const char* s) : kind_(Kind::kString), str_(s) {}

  /// A number carrying explicit formatting (e.g. from eval::fmt).
  [[nodiscard]] static Value number(double value, std::string text) {
    Value v;
    v.kind_ = Kind::kNumber;
    v.num_ = value;
    v.str_ = std::move(text);
    return v;
  }
  [[nodiscard]] static Value number(double value);
  [[nodiscard]] static Value number(std::uint64_t value) {
    return number(static_cast<double>(value), std::to_string(value));
  }
  [[nodiscard]] static Value array() {
    Value v;
    v.kind_ = Kind::kArray;
    return v;
  }
  [[nodiscard]] static Value object() {
    Value v;
    v.kind_ = Kind::kObject;
    return v;
  }

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool as_bool() const { return bool_; }
  [[nodiscard]] double as_double() const { return num_; }
  /// For numbers: the exact formatted text; for strings: the contents.
  [[nodiscard]] const std::string& text() const { return str_; }
  [[nodiscard]] const std::vector<Value>& items() const { return items_; }
  [[nodiscard]] const std::vector<Member>& members() const { return members_; }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Value* get(std::string_view key) const {
    if (kind_ != Kind::kObject) {
      return nullptr;
    }
    for (const Member& m : members_) {
      if (m.first == key) {
        return &m.second;
      }
    }
    return nullptr;
  }

  Value& add(Value item) {  // array append
    items_.push_back(std::move(item));
    return items_.back();
  }
  /// Object insert/overwrite: a repeated key keeps its first position and
  /// takes the new value. Scans the members, so building an object of n
  /// distinct keys this way is O(n^2); Reader decodes objects in O(n).
  Value& set(std::string key, Value value) {
    for (Member& m : members_) {
      if (m.first == key) {
        m.second = std::move(value);
        return m.second;
      }
    }
    members_.emplace_back(std::move(key), std::move(value));
    return members_.back().second;
  }

  /// Structural equality (numbers compare by parsed value, not text).
  [[nodiscard]] bool operator==(const Value& other) const {
    if (kind_ != other.kind_) {
      return false;
    }
    switch (kind_) {
      case Kind::kNull:
        return true;
      case Kind::kBool:
        return bool_ == other.bool_;
      case Kind::kNumber:
        return num_ == other.num_;
      case Kind::kString:
        return str_ == other.str_;
      case Kind::kArray:
        return items_ == other.items_;
      case Kind::kObject:
        return members_ == other.members_;
    }
    return false;
  }

  /// Serializes with 2-space indentation (stable across runs).
  [[nodiscard]] std::string dump(int indent = 0) const;

  /// Single-line serialization (no whitespace outside strings) — for
  /// JSON-lines sinks where one value must stay one line, and for the
  /// service's wire frames.
  [[nodiscard]] std::string dump_compact() const;

  /// Strict parse of a complete JSON document (trailing whitespace only).
  /// std::nullopt on any syntax error.
  [[nodiscard]] static std::optional<Value> parse(std::string_view text);

 private:
  friend class Reader;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;            // string contents or number text
  std::vector<Value> items_;   // array
  std::vector<Member> members_;  // object
};

namespace detail {

inline void dump_string(const std::string& s, std::string& out) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

inline void dump_value(const Value& value, int depth, std::string& out) {
  const std::string pad(static_cast<std::size_t>(depth) * 2, ' ');
  const std::string inner(static_cast<std::size_t>(depth + 1) * 2, ' ');
  switch (value.kind()) {
    case Value::Kind::kNull:
      out += "null";
      break;
    case Value::Kind::kBool:
      out += value.as_bool() ? "true" : "false";
      break;
    case Value::Kind::kNumber:
      out += value.text();
      break;
    case Value::Kind::kString:
      dump_string(value.text(), out);
      break;
    case Value::Kind::kArray: {
      if (value.items().empty()) {
        out += "[]";
        break;
      }
      out += "[\n";
      for (std::size_t i = 0; i < value.items().size(); ++i) {
        out += inner;
        dump_value(value.items()[i], depth + 1, out);
        out += i + 1 < value.items().size() ? ",\n" : "\n";
      }
      out += pad + "]";
      break;
    }
    case Value::Kind::kObject: {
      if (value.members().empty()) {
        out += "{}";
        break;
      }
      out += "{\n";
      for (std::size_t i = 0; i < value.members().size(); ++i) {
        out += inner;
        dump_string(value.members()[i].first, out);
        out += ": ";
        dump_value(value.members()[i].second, depth + 1, out);
        out += i + 1 < value.members().size() ? ",\n" : "\n";
      }
      out += pad + "}";
      break;
    }
  }
}

inline void dump_value_compact(const Value& value, std::string& out) {
  switch (value.kind()) {
    case Value::Kind::kNull:
      out += "null";
      break;
    case Value::Kind::kBool:
      out += value.as_bool() ? "true" : "false";
      break;
    case Value::Kind::kNumber:
      out += value.text();
      break;
    case Value::Kind::kString:
      dump_string(value.text(), out);
      break;
    case Value::Kind::kArray: {
      out += '[';
      for (std::size_t i = 0; i < value.items().size(); ++i) {
        if (i != 0) {
          out += ',';
        }
        dump_value_compact(value.items()[i], out);
      }
      out += ']';
      break;
    }
    case Value::Kind::kObject: {
      out += '{';
      for (std::size_t i = 0; i < value.members().size(); ++i) {
        if (i != 0) {
          out += ',';
        }
        dump_string(value.members()[i].first, out);
        out += ':';
        dump_value_compact(value.members()[i].second, out);
      }
      out += '}';
      break;
    }
  }
}

}  // namespace detail

/// Strict pull reader over one JSON document: the file's only tokenizer.
/// The caller walks the document value by value — peek() names the kind
/// of the next value, begin_object()/next_member() and
/// begin_array()/next_item() step through containers, and string(),
/// number(), boolean() and null() read scalars — so a consumer that knows
/// its schema decodes straight into its own types and builds no tree.
/// skip() validates a value it does not keep; value() builds a Value.
///
/// Errors are sticky: the first syntax error, or a container opened
/// deeper than kMaxDepth, makes that call and every later one return
/// false, and ok() false. A next_member()/next_item() that returns false
/// with ok() still true has consumed the container's closing bracket.
///
/// Grammar, as Value::parse has always accepted it: whitespace is space,
/// tab, LF and CR; a number is -?digits(.digits)?([eE][+-]?digits)?;
/// strings take the JSON escapes, \u as a BMP code point in UTF-8.
class Reader {
 public:
  /// The deepest nesting of arrays and objects a document may have.
  /// fetch's own documents nest 4 levels at most; the bound is what
  /// keeps a frame of a million '[' from recursing off the stack of a
  /// tree-building caller.
  static constexpr std::size_t kMaxDepth = 256;

  /// \p text must outlive the reader, and the views it hands out.
  explicit Reader(std::string_view text) : text_(text) {}

  [[nodiscard]] bool ok() const { return !failed_; }

  /// The kind of the next value, from its first byte; nullopt after an
  /// error or when no value starts there. Consumes only whitespace.
  [[nodiscard]] std::optional<Value::Kind> peek() {
    if (failed_) {
      return std::nullopt;
    }
    skip_ws();
    if (pos_ >= text_.size()) {
      return std::nullopt;
    }
    switch (text_[pos_]) {
      case '{':
        return Value::Kind::kObject;
      case '[':
        return Value::Kind::kArray;
      case '"':
        return Value::Kind::kString;
      case 't':
      case 'f':
        return Value::Kind::kBool;
      case 'n':
        return Value::Kind::kNull;
      default:
        if (text_[pos_] == '-' || is_digit(text_[pos_])) {
          return Value::Kind::kNumber;
        }
        return std::nullopt;
    }
  }

  /// Opens an object; its members follow through next_member().
  [[nodiscard]] bool begin_object() { return open('{'); }

  /// Steps to the next member of the innermost open object: *key is its
  /// name (valid until the next call), and its value comes next. False
  /// when the object closes here, or on an error.
  [[nodiscard]] bool next_member(std::string_view* key) {
    if (!step('}')) {
      return false;
    }
    if (!string(key)) {
      return false;
    }
    skip_ws();
    return eat(':') || fail();
  }

  /// Opens an array; its items follow through next_item().
  [[nodiscard]] bool begin_array() { return open('['); }

  /// Steps to the next item of the innermost open array, which comes
  /// next. False when the array closes here, or on an error.
  [[nodiscard]] bool next_item() { return step(']'); }

  /// A string's contents, unescaped. *out points into the document when
  /// the string has no escapes and into the reader otherwise; either way
  /// it is valid until the next call.
  [[nodiscard]] bool string(std::string_view* out) {
    if (failed_) {
      return false;
    }
    skip_ws();
    if (!eat('"')) {
      return fail();
    }
    const std::size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\') {
      ++pos_;
    }
    if (pos_ >= text_.size()) {
      return fail();  // unterminated
    }
    if (text_[pos_] == '"') {
      *out = text_.substr(start, pos_ - start);
      ++pos_;
      return true;
    }
    scratch_.assign(text_.substr(start, pos_ - start));
    if (!unescape_rest()) {
      return fail();
    }
    *out = scratch_;
    return true;
  }

  /// A number: its value (what std::strtod makes of the text in the "C"
  /// locale: correctly rounded, ±inf past the double range, ±0 below it)
  /// and, when \p text is given, its source text (valid as long as the
  /// document).
  [[nodiscard]] bool number(double* value, std::string_view* text = nullptr) {
    if (failed_) {
      return false;
    }
    skip_ws();
    const std::size_t start = pos_;
    eat('-');
    if (!digits()) {
      return fail();
    }
    if (eat('.') && !digits()) {
      return fail();
    }
    if (eat('e') || eat('E')) {
      if (!eat('+')) {
        eat('-');
      }
      if (!digits()) {
        return fail();
      }
    }
    const std::string_view source = text_.substr(start, pos_ - start);
    if (value != nullptr &&
        std::from_chars(source.data(), source.data() + source.size(), *value)
                .ec != std::errc()) {
      *value = out_of_range(source);  // from_chars leaves *value as it was
    }
    if (text != nullptr) {
      *text = source;
    }
    return true;
  }

  /// Reads a two-string array written in canonical compact form,
  /// ["<first>","<second>"] with no whitespace and no escape, in one
  /// scan: both views point into the document, and the reader is left
  /// as begin_array(), two string() and the closing next_item() leave
  /// it. Returns false and consumes nothing on any other input (or after
  /// an error), so the caller reads the value token by token instead.
  [[nodiscard]] bool compact_string_pair(std::string_view* first,
                                         std::string_view* second) {
    if (failed_ || depth_ == kMaxDepth) {
      return false;
    }
    std::size_t at = pos_;
    const auto byte = [&](char c) {
      return at < text_.size() && text_[at++] == c;
    };
    const auto quoted = [&](std::string_view* out) {
      if (!byte('"')) {
        return false;
      }
      const std::size_t start = at;
      while (at < text_.size() && text_[at] != '"' && text_[at] != '\\') {
        ++at;
      }
      *out = text_.substr(start, at - start);
      return byte('"');
    };
    if (!(byte('[') && quoted(first) && byte(',') && quoted(second) &&
          byte(']'))) {
      return false;
    }
    pos_ = at;
    first_ = false;
    return true;
  }

  [[nodiscard]] bool boolean(bool* out) {
    if (literal("true")) {
      *out = true;
      return true;
    }
    if (literal("false")) {
      *out = false;
      return true;
    }
    return fail();
  }

  [[nodiscard]] bool null() { return literal("null") || fail(); }

  /// Reads and validates the next value, keeping nothing.
  [[nodiscard]] bool skip() {  // NOLINT(misc-no-recursion)
    const std::optional<Value::Kind> kind = peek();
    if (!kind) {
      return fail();
    }
    std::string_view text;
    switch (*kind) {
      case Value::Kind::kObject:
        if (!begin_object()) {
          return false;
        }
        while (next_member(&text)) {
          if (!skip()) {
            return false;
          }
        }
        return ok();
      case Value::Kind::kArray:
        if (!begin_array()) {
          return false;
        }
        while (next_item()) {
          if (!skip()) {
            return false;
          }
        }
        return ok();
      case Value::Kind::kString:
        return string(&text);
      case Value::Kind::kNumber:
        return number(nullptr);
      case Value::Kind::kBool: {
        bool b = false;
        return boolean(&b);
      }
      case Value::Kind::kNull:
        return null();
    }
    return fail();
  }

  /// Reads the next value into a tree. Object members keep their first
  /// position and their last value, as Value::set does, in time linear
  /// in the member count.
  [[nodiscard]] std::optional<Value> value() {  // NOLINT(misc-no-recursion)
    const std::optional<Value::Kind> kind = peek();
    if (!kind) {
      fail();
      return std::nullopt;
    }
    std::string_view text;
    switch (*kind) {
      case Value::Kind::kObject: {
        Value obj = Value::object();
        if (!begin_object()) {
          return std::nullopt;
        }
        while (next_member(&text)) {
          std::string key(text);
          auto member = value();
          if (!member) {
            return std::nullopt;
          }
          obj.members_.emplace_back(std::move(key), std::move(*member));
        }
        if (!ok()) {
          return std::nullopt;
        }
        fold_repeats(obj.members_);
        return obj;
      }
      case Value::Kind::kArray: {
        Value arr = Value::array();
        if (!begin_array()) {
          return std::nullopt;
        }
        while (next_item()) {
          auto item = value();
          if (!item) {
            return std::nullopt;
          }
          arr.add(std::move(*item));
        }
        return ok() ? std::optional<Value>(std::move(arr)) : std::nullopt;
      }
      case Value::Kind::kString:
        if (!string(&text)) {
          return std::nullopt;
        }
        return Value(std::string(text));
      case Value::Kind::kNumber: {
        double number_value = 0.0;
        if (!number(&number_value, &text)) {
          return std::nullopt;
        }
        return Value::number(number_value, std::string(text));
      }
      case Value::Kind::kBool: {
        bool b = false;
        if (!boolean(&b)) {
          return std::nullopt;
        }
        return Value(b);
      }
      case Value::Kind::kNull:
        if (!null()) {
          return std::nullopt;
        }
        return Value();
    }
    return std::nullopt;
  }

  /// True when no error happened and only whitespace is left.
  [[nodiscard]] bool end() {
    if (failed_) {
      return false;
    }
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  static bool is_digit(char c) { return c >= '0' && c <= '9'; }

  /// What std::strtod gives for a well-formed \p number that
  /// std::from_chars reports out of range: ±inf when it overflows, ±0
  /// when it underflows. The two sides lie hundreds of decades apart, so
  /// the sign of the leading digit's decimal exponent tells them apart.
  static double out_of_range(std::string_view number) {
    std::size_t i = number[0] == '-' ? 1 : 0;
    // The leading digit's exponent is scale - 1 before the e part.
    std::int64_t scale = 0;
    bool leading = true;
    for (; i < number.size() && is_digit(number[i]); ++i) {
      leading = leading && number[i] == '0';
      scale += leading ? 0 : 1;
    }
    if (i < number.size() && number[i] == '.') {
      for (++i; i < number.size() && is_digit(number[i]); ++i) {
        leading = leading && number[i] == '0';
        scale -= leading ? 1 : 0;
      }
    }
    std::int64_t exponent = 0;
    if (i < number.size()) {  // [eE][+-]?digits
      ++i;
      const bool negative = number[i] == '-';
      i += number[i] == '-' || number[i] == '+' ? 1 : 0;
      for (; i < number.size(); ++i) {
        exponent = std::min<std::int64_t>(exponent * 10 + (number[i] - '0'),
                                          std::int64_t{1} << 40);
      }
      exponent = negative ? -exponent : exponent;
    }
    const double magnitude =
        scale + exponent > 0 ? std::numeric_limits<double>::infinity() : 0.0;
    return number[0] == '-' ? -magnitude : magnitude;
  }

  /// Merges repeated keys as Value::set would have, in linear time: a
  /// key keeps its first position and takes its last value.
  static void fold_repeats(std::vector<Member>& members) {
    if (members.size() < 2) {
      return;
    }
    // Pass 1 moves nothing, so the views stay valid: slot[i] is where
    // member i lands once the repeats are folded.
    std::vector<std::size_t> slot(members.size());
    std::size_t kept = 0;
    {
      std::unordered_map<std::string_view, std::size_t> first;
      first.reserve(members.size());
      for (std::size_t i = 0; i < members.size(); ++i) {
        const auto [it, fresh] = first.try_emplace(members[i].first, kept);
        slot[i] = it->second;
        kept += fresh ? 1 : 0;
      }
    }
    if (kept == members.size()) {
      return;
    }
    // Slots are handed out in order, so member i is its key's first
    // occurrence exactly when its slot is the next one to fill.
    std::size_t next = 0;
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (slot[i] == next) {
        if (next != i) {
          members[next] = std::move(members[i]);
        }
        ++next;
      } else {
        members[slot[i]].second = std::move(members[i].second);
      }
    }
    members.resize(kept);
  }

  bool fail() {
    failed_ = true;
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\t' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool eat(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (failed_) {
      return false;
    }
    skip_ws();
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  bool digits() {
    const std::size_t before = pos_;
    while (pos_ < text_.size() && is_digit(text_[pos_])) {
      ++pos_;
    }
    return pos_ > before;
  }

  bool open(char bracket) {
    if (failed_) {
      return false;
    }
    skip_ws();
    if (!eat(bracket) || depth_ == kMaxDepth) {
      return fail();
    }
    ++depth_;
    first_ = true;
    return true;
  }

  /// The separator before a container's next element: \p close ends the
  /// container, a ',' precedes every element but the first. One flag
  /// serves every level — a nested container has always closed, leaving
  /// it false, before its parent steps again.
  bool step(char close) {
    if (failed_) {
      return false;
    }
    skip_ws();
    if (eat(close)) {
      --depth_;
      first_ = false;
      return false;
    }
    if (first_) {
      first_ = false;
      return true;
    }
    return eat(',') || fail();
  }

  /// Finishes a string whose first escape is at pos_, appending its
  /// contents to scratch_ and consuming the closing quote.
  bool unescape_rest() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return true;
      }
      if (c != '\\') {
        scratch_.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        return false;
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          scratch_.push_back(esc);
          break;
        case 'b':
          scratch_.push_back('\b');
          break;
        case 'f':
          scratch_.push_back('\f');
          break;
        case 'n':
          scratch_.push_back('\n');
          break;
        case 'r':
          scratch_.push_back('\r');
          break;
        case 't':
          scratch_.push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return false;
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (is_digit(h)) {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return false;
            }
          }
          // Encode the BMP code point as UTF-8 (surrogates unsupported).
          if (code < 0x80) {
            scratch_.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            scratch_.push_back(static_cast<char>(0xC0 | (code >> 6)));
            scratch_.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            scratch_.push_back(static_cast<char>(0xE0 | (code >> 12)));
            scratch_.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            scratch_.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return false;
      }
    }
    return false;  // unterminated
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
  bool first_ = false;  ///< the open container has no element yet
  bool failed_ = false;
  std::string scratch_;  ///< an escaped string's contents
};

inline Value Value::number(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  return number(value, buf);
}

inline std::string Value::dump(int indent) const {
  std::string out;
  detail::dump_value(*this, indent, out);
  return out;
}

inline std::string Value::dump_compact() const {
  std::string out;
  detail::dump_value_compact(*this, out);
  return out;
}

inline std::optional<Value> Value::parse(std::string_view text) {
  Reader reader(text);
  std::optional<Value> value = reader.value();
  if (!value || !reader.end()) {
    return std::nullopt;
  }
  return value;
}

}  // namespace fetch::util::json
