#pragma once
// Minimal JSON support: escaping and 17-digit numbers for the writers, a
// small recursive-descent parser for the readers (g6report, telemetry
// tests), and the one strict object reader every schema parser (serve
// manifest and journal, wire envelopes, fault plans) is built on. Handles
// the full JSON grammar; numbers are doubles, and an integer token also
// keeps its exact 64-bit value.

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace g6::obs {

/// Escape `s` for use inside a JSON string literal (no surrounding
/// quotes added).
std::string json_escape(std::string_view s);

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Parse a complete JSON document; throws std::runtime_error with a
  /// byte offset on malformed input (trailing garbage included).
  static JsonValue parse(std::string_view text);

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }

  /// The exact value of a number written as an integer (no '.', 'e' or
  /// 'E') whose magnitude fits 64 bits. as_number() rounds such a value
  /// above 2^53; this does not.
  struct Integer {
    bool negative = false;
    std::uint64_t magnitude = 0;
  };

  bool as_bool() const;
  double as_number() const;
  /// nullopt for a number token that is not such an integer.
  const std::optional<Integer>& as_integer() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& items() const;  ///< array elements
  const std::vector<std::pair<std::string, JsonValue>>& members() const;

  /// Object lookup; nullptr when absent (or not an object).
  const JsonValue* find(std::string_view key) const;
  /// Object lookup; throws std::runtime_error when absent.
  const JsonValue& at(std::string_view key) const;

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::optional<Integer> integer_;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;

  friend class JsonParser;
};

/// The integer a JSON number holds, when it is one that `Int` represents
/// exactly; nullopt for fractions, NaN/inf and anything out of `Int`'s
/// range (a bare static_cast there is undefined behaviour). Every JSON
/// reader converts through this one check (JsonObjectReader below).
template <typename Int>
std::optional<Int> json_integer(double d) {
  static_assert(std::is_integral_v<Int> && !std::is_same_v<Int, bool>);
  // 2^digits is the first value past max(); -2^digits is min() for
  // signed types. Both are powers of two, so exact as doubles.
  const double past_max =
      2.0 * static_cast<double>(std::numeric_limits<Int>::max() / 2 + 1);
  const double min = std::is_signed_v<Int> ? -past_max : 0.0;
  if (!(d >= min && d < past_max) || d != std::floor(d)) return std::nullopt;
  return static_cast<Int>(d);
}

/// The integer a JSON number token holds, when `Int` represents it:
/// exactly from an integer token (all 64 bits), else through the double.
template <typename Int>
std::optional<Int> json_integer(const JsonValue& v) {
  const std::optional<JsonValue::Integer>& i = v.as_integer();
  if (!i) return json_integer<Int>(v.as_number());
  const auto max = static_cast<std::uint64_t>(std::numeric_limits<Int>::max());
  if (!i->negative || i->magnitude == 0) {
    if (i->magnitude > max) return std::nullopt;
    return static_cast<Int>(i->magnitude);
  }
  if constexpr (std::is_signed_v<Int>) {
    // |min| = max + 1.
    if (i->magnitude - 1 > max) return std::nullopt;
    return static_cast<Int>(-static_cast<Int>(i->magnitude - 1) - 1);
  }
  return std::nullopt;
}

/// `v` at 17 significant digits ("%.17g"), which parses back to the
/// identical binary64: the one double writer of every JSON codec that
/// must round-trip (journal, wire envelopes and snapshots).
std::string json_number(double v);

/// A schema parser's error sink. It throws the parser's own error type
/// (ManifestError, JournalError, WireError, FaultError) and never returns.
using JsonFail = void (*)(const std::string& what);

/// Strict reader over one JSON object, shared by every schema parser.
/// A closed object lists its allowed keys (any other key fails) and its
/// required ones; with `allowed` empty the object is open (envelopes,
/// responses). The getters check type and range. A one-key getter
/// requires its key; the form with an `out` pointer assigns only when
/// the key is present and returns whether it was. Every failure goes
/// through `on_error` with a message that starts with `where` and names
/// the key. The reader refers to `obj`, which must outlive it.
class JsonObjectReader {
 public:
  JsonObjectReader(const JsonValue& obj, std::string where, JsonFail on_error,
                   const std::vector<std::string_view>& allowed = {},
                   const std::vector<std::string_view>& required = {});

  bool has(std::string_view key) const { return obj_.find(key) != nullptr; }
  /// The value at `key`, of any type.
  const JsonValue& at(std::string_view key) const;

  double number(std::string_view key) const { return number(at(key), key); }
  const std::string& string(std::string_view key) const {
    return typed(key, JsonValue::Type::kString, "a string").as_string();
  }
  bool boolean(std::string_view key) const {
    return typed(key, JsonValue::Type::kBool, "true or false").as_bool();
  }
  const std::vector<JsonValue>& array(std::string_view key) const {
    return typed(key, JsonValue::Type::kArray, "an array").items();
  }
  bool number(std::string_view key, double* out) const {
    return assign(key, out, [this](std::string_view k) { return number(k); });
  }
  bool string(std::string_view key, std::string* out) const {
    return assign(key, out, [this](std::string_view k) { return string(k); });
  }
  bool boolean(std::string_view key, bool* out) const {
    return assign(key, out, [this](std::string_view k) { return boolean(k); });
  }

  /// Any value of `Int`, negative ones included for signed types.
  template <typename Int>
  Int integer(std::string_view key) const {
    return integer<Int>(at(key), key);
  }
  template <typename Int>
  bool integer(std::string_view key, Int* out) const {
    return assign(key, out,
                  [this](std::string_view k) { return integer<Int>(k); });
  }
  /// `integer` for a value that is not under a key (an array element);
  /// `label` stands in for the key in the message.
  template <typename Int>
  Int integer(const JsonValue& v, std::string_view label) const {
    number(v, label);  // fails unless a number
    if (const std::optional<Int> i = json_integer<Int>(v)) return *i;
    fail_key(label, "must be an integer in [" +
                        std::to_string(std::numeric_limits<Int>::min()) +
                        ", " +
                        std::to_string(std::numeric_limits<Int>::max()) + "]");
  }

  /// A non-negative value of `Int`.
  template <typename Int>
  Int count(std::string_view key) const {
    const JsonValue& v = at(key);
    number(v, key);  // fails unless a number
    std::optional<Int> i = json_integer<Int>(v);
    if constexpr (std::is_signed_v<Int>) {
      if (i && *i < 0) i.reset();
    }
    if (!i) {
      fail_key(key, "must be a non-negative integer (at most " +
                        std::to_string(std::numeric_limits<Int>::max()) + ")");
    }
    return *i;
  }
  template <typename Int>
  bool count(std::string_view key, Int* out) const {
    return assign(key, out,
                  [this](std::string_view k) { return count<Int>(k); });
  }

  /// Fail with "<where>: <what>".
  [[noreturn]] void fail(const std::string& what) const;

 private:
  template <typename T, typename Get>
  bool assign(std::string_view key, T* out, Get get) const {
    if (!has(key)) return false;
    *out = get(key);
    return true;
  }
  const JsonValue& typed(std::string_view key, JsonValue::Type type,
                         const char* what) const;
  double number(const JsonValue& v, std::string_view key) const;
  [[noreturn]] void fail_key(std::string_view key,
                             const std::string& what) const;

  const JsonValue& obj_;
  std::string where_;
  JsonFail fail_;
};

}  // namespace g6::obs
