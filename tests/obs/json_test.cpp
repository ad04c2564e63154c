#include "obs/json.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

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

TEST(JsonInteger, IntegerTokensKeepAllSixtyFourBits) {
  const auto u64 = [](const char* text) {
    return json_integer<std::uint64_t>(JsonValue::parse(text));
  };
  const auto i64 = [](const char* text) {
    return json_integer<std::int64_t>(JsonValue::parse(text));
  };
  EXPECT_EQ(u64("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(u64("9007199254740993"), 9007199254740993u);  // 2^53 + 1
  EXPECT_EQ(u64("18446744073709551616"), std::nullopt);
  EXPECT_EQ(u64("-1"), std::nullopt);
  EXPECT_EQ(u64("-0"), 0u);
  EXPECT_EQ(i64("-9223372036854775808"),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(i64("9223372036854775807"),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(i64("9223372036854775808"), std::nullopt);
  EXPECT_EQ(i64("-9223372036854775809"), std::nullopt);
  EXPECT_EQ(json_integer<int>(JsonValue::parse("-2147483649")), std::nullopt);
  // Other tokens still convert through the double.
  EXPECT_EQ(u64("1e3"), 1000u);
  EXPECT_EQ(u64("2.0"), 2u);
  EXPECT_EQ(u64("2.5"), std::nullopt);
  EXPECT_FALSE(JsonValue::parse("1e3").as_integer().has_value());
}

TEST(JsonNumber, SeventeenDigitsRoundTripBinary64) {
  EXPECT_EQ(json_number(0.1 + 0.2), "0.30000000000000004");
  EXPECT_EQ(json_number(0.25), "0.25");
  EXPECT_EQ(json_number(-0.0), "-0");
  EXPECT_EQ(json_number(1e300), "1.0000000000000001e+300");
  for (const double d : {1.0 / 3.0, -2.5e-308, 6.02214076e23, 4.9e-324}) {
    EXPECT_EQ(JsonValue::parse(json_number(d)).as_number(), d);
  }
}

/// The reader's error sink in these tests: a distinct type, so a test
/// sees that every failure went through it.
struct ReaderError : std::runtime_error {
  using std::runtime_error::runtime_error;
};
[[noreturn]] void reader_fail(const std::string& what) {
  throw ReaderError(what);
}

/// The message `read` fails with ("" when it does not fail).
template <typename Read>
std::string failure(Read read) {
  try {
    read();
  } catch (const ReaderError& e) {
    return e.what();
  }
  return "";
}

TEST(JsonObjectReader, ClosedObjectChecksAllowedAndRequiredKeys) {
  const JsonValue doc = JsonValue::parse(R"({"a": 1, "b": "x"})");
  EXPECT_EQ(failure([&] { JsonObjectReader(doc, "obj", reader_fail, {"a"}); }),
            "obj: unknown key 'b'");
  EXPECT_EQ(failure([&] {
              JsonObjectReader(doc, "obj", reader_fail, {"a", "b", "c"},
                               {"a", "c"});
            }),
            "obj: missing required key 'c'");
  EXPECT_EQ(failure([&] {
              JsonObjectReader(JsonValue::parse("[1]"), "obj", reader_fail);
            }),
            "obj must be a JSON object");
  // An open object takes any key.
  EXPECT_EQ(failure([&] { JsonObjectReader(doc, "obj", reader_fail); }), "");
}

TEST(JsonObjectReader, GettersCheckTypeAndNameTheKey) {
  const JsonValue doc = JsonValue::parse(
      R"({"n": 2, "s": "txt", "b": true, "arr": [1], "neg": -3, "frac": 1.5,
          "big": 1e30})");
  const JsonObjectReader r(doc, "obj", reader_fail);
  EXPECT_EQ(r.number("n"), 2.0);
  EXPECT_EQ(r.string("s"), "txt");
  EXPECT_TRUE(r.boolean("b"));
  EXPECT_EQ(r.array("arr").size(), 1u);
  EXPECT_EQ(r.integer<int>("neg"), -3);
  EXPECT_EQ(r.count<unsigned>("n"), 2u);

  EXPECT_EQ(failure([&] { r.number("s"); }), "obj: key 's' must be a number");
  EXPECT_EQ(failure([&] { r.string("n"); }), "obj: key 'n' must be a string");
  EXPECT_EQ(failure([&] { r.boolean("n"); }),
            "obj: key 'n' must be true or false");
  EXPECT_EQ(failure([&] { r.array("s"); }), "obj: key 's' must be an array");
  EXPECT_EQ(failure([&] { r.number("zz"); }),
            "obj: missing required key 'zz'");
  EXPECT_EQ(failure([&] { r.integer<int>("frac"); }),
            "obj: key 'frac' must be an integer in [-2147483648, 2147483647]");
  EXPECT_EQ(failure([&] { r.count<int>("neg"); }),
            "obj: key 'neg' must be a non-negative integer (at most "
            "2147483647)");
  EXPECT_NE(failure([&] { r.count<std::uint64_t>("big"); }), "");
  EXPECT_EQ(failure([&] { r.fail("custom"); }), "obj: custom");
}

TEST(JsonObjectReader, OutFormsAssignOnlyWhenPresent) {
  const JsonValue doc = JsonValue::parse(R"({"n": 7, "s": "v", "b": false})");
  const JsonObjectReader r(doc, "obj", reader_fail);
  double d = -1.0;
  std::string str = "keep";
  bool b = true;
  unsigned u = 9;
  int i = 4;
  EXPECT_TRUE(r.number("n", &d));
  EXPECT_TRUE(r.string("s", &str));
  EXPECT_TRUE(r.boolean("b", &b));
  EXPECT_TRUE(r.count("n", &u));
  EXPECT_FALSE(r.integer("absent", &i));
  EXPECT_FALSE(r.string("absent", &str));
  EXPECT_EQ(d, 7.0);
  EXPECT_EQ(str, "v");
  EXPECT_FALSE(b);
  EXPECT_EQ(u, 7u);
  EXPECT_EQ(i, 4);
  // A present key of the wrong type still fails.
  EXPECT_EQ(failure([&] { r.boolean("n", &b); }),
            "obj: key 'n' must be true or false");
}

}  // namespace
}  // namespace g6::obs
