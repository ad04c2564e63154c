#include "obs/json.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>

namespace g6::obs {
namespace {

TEST(JsonEscape, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string("a\x01z")), "a\\u0001z");
}

TEST(JsonValue, ParsesScalars) {
  EXPECT_TRUE(JsonValue::parse("null").is_null());
  EXPECT_TRUE(JsonValue::parse("true").as_bool());
  EXPECT_FALSE(JsonValue::parse("false").as_bool());
  EXPECT_DOUBLE_EQ(JsonValue::parse("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(JsonValue::parse("-1.5e3").as_number(), -1500.0);
  EXPECT_EQ(JsonValue::parse("\"hi\"").as_string(), "hi");
}

TEST(JsonValue, ParsesNestedStructure) {
  const JsonValue v = JsonValue::parse(
      R"({"a": [1, 2, {"b": "x"}], "c": {"d": null}})");
  ASSERT_TRUE(v.is_object());
  const auto& a = v.at("a").items();
  ASSERT_EQ(a.size(), 3u);
  EXPECT_DOUBLE_EQ(a[1].as_number(), 2.0);
  EXPECT_EQ(a[2].at("b").as_string(), "x");
  EXPECT_TRUE(v.at("c").at("d").is_null());
}

TEST(JsonValue, ParsesStringEscapes) {
  EXPECT_EQ(JsonValue::parse(R"("a\"b\\c\nd")").as_string(), "a\"b\\c\nd");
  EXPECT_EQ(JsonValue::parse(R"("A")").as_string(), "A");
}

TEST(JsonValue, FindReturnsNullptrForMissingKey) {
  const JsonValue v = JsonValue::parse(R"({"x": 1})");
  EXPECT_NE(v.find("x"), nullptr);
  EXPECT_EQ(v.find("y"), nullptr);
  EXPECT_THROW(v.at("y"), std::runtime_error);
}

TEST(JsonValue, RejectsMalformedInput) {
  EXPECT_THROW(JsonValue::parse("{"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("[1, 2"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("{\"a\" 1}"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("nul"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("1 trailing"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("\"unterminated"), std::runtime_error);
}

TEST(JsonValue, TypeMismatchThrows) {
  const JsonValue v = JsonValue::parse("[1]");
  EXPECT_THROW(v.as_number(), std::runtime_error);
  EXPECT_THROW(v.as_string(), std::runtime_error);
  EXPECT_THROW(v.at("k"), std::runtime_error);
}

TEST(JsonValue, WriterEscapeRoundTrip) {
  const std::string raw = "name with \"quotes\", \\slashes\\ and \n newlines";
  const JsonValue v = JsonValue::parse("\"" + json_escape(raw) + "\"");
  EXPECT_EQ(v.as_string(), raw);
}

TEST(JsonInteger, AcceptsExactlyTheValuesOfTheType) {
  EXPECT_EQ(json_integer<int>(-2147483648.0), -2147483647 - 1);
  EXPECT_EQ(json_integer<int>(2147483647.0), 2147483647);
  EXPECT_EQ(json_integer<int>(2147483648.0), std::nullopt);
  EXPECT_EQ(json_integer<int>(-2147483649.0), std::nullopt);
  EXPECT_EQ(json_integer<unsigned>(4294967295.0), 4294967295u);
  EXPECT_EQ(json_integer<unsigned>(4294967297.0), std::nullopt);
  EXPECT_EQ(json_integer<unsigned>(-1.0), std::nullopt);
  EXPECT_EQ(json_integer<unsigned>(-0.0), 0u);
  // The largest double below 2^64 fits a uint64; 2^64 itself does not.
  EXPECT_EQ(json_integer<std::uint64_t>(18446744073709549568.0),
            18446744073709549568u);
  EXPECT_EQ(json_integer<std::uint64_t>(18446744073709551616.0), std::nullopt);
  EXPECT_EQ(json_integer<std::int64_t>(-9223372036854775808.0),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(json_integer<std::int64_t>(9223372036854775808.0), std::nullopt);
  EXPECT_EQ(json_integer<std::size_t>(1e300), std::nullopt);
  EXPECT_EQ(json_integer<int>(2.5), std::nullopt);
  EXPECT_EQ(json_integer<int>(std::numeric_limits<double>::infinity()),
            std::nullopt);
  EXPECT_EQ(json_integer<int>(std::numeric_limits<double>::quiet_NaN()),
            std::nullopt);
}

}  // namespace
}  // namespace g6::obs
