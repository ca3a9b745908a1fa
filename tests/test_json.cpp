/// \file test_json.cpp
/// util/json.hpp: parser strictness and its depth bound, the pull
/// reader's walk, writer determinism, and the write → parse → compare
/// round trip the bench harness's --json mode depends on.

#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>
#include <utility>

namespace fetch::util::json {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(Value::parse("null")->is_null());
  EXPECT_TRUE(Value::parse("true")->as_bool());
  EXPECT_FALSE(Value::parse("false")->as_bool());
  EXPECT_DOUBLE_EQ(Value::parse("3.25")->as_double(), 3.25);
  EXPECT_DOUBLE_EQ(Value::parse("-17")->as_double(), -17.0);
  EXPECT_DOUBLE_EQ(Value::parse("2e3")->as_double(), 2000.0);
  EXPECT_EQ(Value::parse("\"hi\"")->text(), "hi");

  // Numbers read as std::strtod reads them: past the double range,
  // overflow is ±inf and underflow ±0, the sign kept; the text stays.
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto& [text, want] :
       {std::pair{"1e999", inf}, {"-1e999", -inf}, {"1e-400", 0.0},
        {"-1e-400", -0.0}, {"-0", -0.0}, {"0e999", 0.0},
        {"123456789e305", inf}, {"0.000001e-320", 0.0},
        {"1797693134862316e293", inf},
        {"1797693134862315e293", 1.797693134862315e308},
        {"4.9e-324", 4.9e-324}, {"2e-324", 0.0}}) {
    SCOPED_TRACE(text);
    const auto v = Value::parse(text);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->as_double(), want);
    EXPECT_EQ(v->as_double(), std::strtod(text, nullptr));
    EXPECT_EQ(std::signbit(v->as_double()), std::signbit(want));
    EXPECT_EQ(v->text(), text);
  }
}

TEST(Json, NumberKeepsSourceText) {
  const auto v = Value::parse("0.500");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->text(), "0.500");
  EXPECT_DOUBLE_EQ(v->as_double(), 0.5);
  EXPECT_EQ(v->dump(), "0.500");  // not re-formatted
}

TEST(Json, ParsesNestedStructure) {
  const auto v = Value::parse(
      R"({"a": [1, 2, {"b": "c"}], "d": {"e": null}, "f": true})");
  ASSERT_TRUE(v.has_value());
  ASSERT_TRUE(v->is_object());
  const Value* a = v->get("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items().size(), 3u);
  EXPECT_EQ(a->items()[2].get("b")->text(), "c");
  EXPECT_TRUE(v->get("d")->get("e")->is_null());
  EXPECT_TRUE(v->get("f")->as_bool());
  EXPECT_EQ(v->get("missing"), nullptr);
}

TEST(Json, ParsesStringEscapes) {
  const auto v = Value::parse(R"("a\"b\\c\nd\te\u0041")");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->text(), "a\"b\\c\nd\teA");
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_FALSE(Value::parse("").has_value());
  EXPECT_FALSE(Value::parse("{").has_value());
  EXPECT_FALSE(Value::parse("[1,]").has_value());
  EXPECT_FALSE(Value::parse("{\"a\" 1}").has_value());
  EXPECT_FALSE(Value::parse("\"unterminated").has_value());
  EXPECT_FALSE(Value::parse("1 2").has_value());  // trailing junk
  EXPECT_FALSE(Value::parse("nul").has_value());
  EXPECT_FALSE(Value::parse("1.").has_value());
  EXPECT_FALSE(Value::parse("\"\\q\"").has_value());
}

TEST(Json, DumpParseRoundTrip) {
  Value doc = Value::object();
  doc.set("schema", Value("fetch-bench-v1"));
  doc.set("jobs", Value::number(static_cast<std::uint64_t>(4)));
  Value rows = Value::array();
  Value row = Value::object();
  row.set("name", Value("step_at_warm_dense"));
  row.set("value", Value::number(5.23, "5.23"));
  row.set("unit", Value("ns/op"));
  rows.add(std::move(row));
  doc.set("results", std::move(rows));

  const std::string text = doc.dump();
  const auto parsed = Value::parse(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(*parsed == doc);
  // A second round trip is byte-stable (deterministic writer).
  EXPECT_EQ(parsed->dump(), text);
}

TEST(Json, SetOverwritesInPlace) {
  Value obj = Value::object();
  obj.set("k", Value("one"));
  obj.set("k", Value("two"));
  ASSERT_EQ(obj.members().size(), 1u);
  EXPECT_EQ(obj.get("k")->text(), "two");
}

TEST(Json, RejectsNestingPastTheDepthBound) {
  // A million '[' once recursed the parser off the stack.
  EXPECT_FALSE(Value::parse(std::string(1'000'000, '[')).has_value());
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_TRUE(Value::parse(nested(Reader::kMaxDepth)).has_value());
  EXPECT_FALSE(Value::parse(nested(Reader::kMaxDepth + 1)).has_value());
  const std::string too_deep = nested(Reader::kMaxDepth + 1);
  Reader deep(too_deep);
  EXPECT_FALSE(deep.skip());
  EXPECT_FALSE(deep.ok());

  // The one-scan pair read declines a pair that would open one level
  // too many, and the token path then fails on it.
  const std::string pair_too_deep =
      std::string(Reader::kMaxDepth, '[') + R"(["a","b"])" +
      std::string(Reader::kMaxDepth, ']');
  Reader at_bound(pair_too_deep);
  for (std::size_t i = 0; i < Reader::kMaxDepth; ++i) {
    ASSERT_TRUE(at_bound.begin_array());
    ASSERT_TRUE(at_bound.next_item());
  }
  std::string_view first;
  std::string_view second;
  EXPECT_FALSE(at_bound.compact_string_pair(&first, &second));
  EXPECT_TRUE(at_bound.ok());
  EXPECT_FALSE(at_bound.begin_array());
}

TEST(JsonReader, WalksMembersAndItemsInOrder) {
  Reader in(R"( {"a": [1, "two", true, null], "b\u0041": {}, "c": []} )");
  std::string_view key;
  ASSERT_TRUE(in.begin_object());
  ASSERT_TRUE(in.next_member(&key));
  EXPECT_EQ(key, "a");
  ASSERT_TRUE(in.begin_array());
  ASSERT_TRUE(in.next_item());
  double number = 0.0;
  std::string_view text;
  ASSERT_TRUE(in.number(&number, &text));
  EXPECT_EQ(number, 1.0);
  EXPECT_EQ(text, "1");
  ASSERT_TRUE(in.next_item());
  EXPECT_EQ(in.peek(), Value::Kind::kString);
  ASSERT_TRUE(in.string(&text));
  EXPECT_EQ(text, "two");
  ASSERT_TRUE(in.next_item());
  bool flag = false;
  ASSERT_TRUE(in.boolean(&flag));
  EXPECT_TRUE(flag);
  ASSERT_TRUE(in.next_item());
  ASSERT_TRUE(in.null());
  EXPECT_FALSE(in.next_item());  // the array closes
  ASSERT_TRUE(in.ok());
  ASSERT_TRUE(in.next_member(&key));
  EXPECT_EQ(key, "bA");  // keys are unescaped
  ASSERT_TRUE(in.skip());
  ASSERT_TRUE(in.next_member(&key));
  EXPECT_EQ(key, "c");
  const auto c = in.value();
  ASSERT_TRUE(c.has_value());
  EXPECT_TRUE(c->is_array());
  EXPECT_FALSE(in.next_member(&key));
  EXPECT_TRUE(in.end());

  // A compact pair takes one scan and leaves the walk where the token
  // path would; any other spelling is declined with nothing consumed.
  Reader pairs(R"([["0x1","fde"],["a\"","b"],[ "c","d"]])");
  std::string_view first;
  std::string_view second;
  ASSERT_TRUE(pairs.begin_array());
  ASSERT_TRUE(pairs.next_item());
  ASSERT_TRUE(pairs.compact_string_pair(&first, &second));
  EXPECT_EQ(first, "0x1");
  EXPECT_EQ(second, "fde");
  for (const std::string_view want : {"a\"", "c"}) {
    ASSERT_TRUE(pairs.next_item());
    EXPECT_FALSE(pairs.compact_string_pair(&first, &second));
    ASSERT_TRUE(pairs.begin_array());
    ASSERT_TRUE(pairs.next_item());
    ASSERT_TRUE(pairs.string(&first));
    EXPECT_EQ(first, want);
    ASSERT_TRUE(pairs.next_item());
    ASSERT_TRUE(pairs.skip());
    EXPECT_FALSE(pairs.next_item());
  }
  EXPECT_FALSE(pairs.next_item());
  EXPECT_TRUE(pairs.end());
}

TEST(JsonReader, ErrorsAreSticky) {
  Reader in("[1 2]");
  ASSERT_TRUE(in.begin_array());
  ASSERT_TRUE(in.next_item());
  ASSERT_TRUE(in.skip());
  EXPECT_FALSE(in.next_item());  // a missing ',' is an error, not the end
  EXPECT_FALSE(in.ok());
  EXPECT_FALSE(in.skip());
  EXPECT_FALSE(in.peek().has_value());
  EXPECT_FALSE(in.end());

  // skip() validates what it does not keep.
  for (const char* bad : {"{\"a\": [1,]}", "[\"\\q\"]", "{\"a\" 1}", "tru",
                          "-", "1.e5", "[}", "{]"}) {
    Reader skipped(bad);
    EXPECT_FALSE(skipped.skip() && skipped.end()) << bad;
  }
}

TEST(JsonReader, RepeatedMembersKeepTheLastValue) {
  const auto v = Value::parse(R"({"k": 1, "j": 2, "k": 3})");
  ASSERT_TRUE(v.has_value());
  ASSERT_EQ(v->members().size(), 2u);
  EXPECT_EQ(v->members()[0].first, "k");
  EXPECT_EQ(v->get("k")->text(), "3");
}

TEST(JsonReader, LargeObjectsFoldRepeatsLikeSet) {
  // Short keys live inside the string object and long ones on the heap;
  // both must survive the fold's moves. Every third member repeats a key.
  Value expected = Value::object();
  std::string text = "{";
  for (std::size_t i = 0; i < 3000; ++i) {
    const std::size_t k = i % 3 == 2 ? i / 7 : i;
    const std::string key =
        (k % 2 == 0 ? "k" : "a-key-long-enough-to-leave-the-inline-buffer-") +
        std::to_string(k);
    expected.set(key, Value::number(static_cast<std::uint64_t>(i)));
    text += (i == 0 ? "\"" : ",\"") + key + "\":" + std::to_string(i);
  }
  text += "}";
  const auto parsed = Value::parse(text);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->members().size(), expected.members().size());
  for (std::size_t i = 0; i < expected.members().size(); ++i) {
    EXPECT_EQ(parsed->members()[i].first, expected.members()[i].first) << i;
  }
  EXPECT_TRUE(*parsed == expected);
}

}  // namespace
}  // namespace fetch::util::json
