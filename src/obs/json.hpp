#pragma once
// Minimal JSON support for the telemetry subsystem: escaping for the
// writers and a small recursive-descent parser for the readers (g6report,
// tests validating --metrics-out / --trace-out files). Handles the full
// JSON grammar; numbers are doubles.

#include <cmath>
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

  bool as_bool() const;
  double as_number() const;
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
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;

  friend class JsonParser;
};

/// The integer a JSON number holds, when it is one that `Int` represents
/// exactly; nullopt for fractions, NaN/inf and anything out of `Int`'s
/// range (a bare static_cast there is undefined behaviour). Every JSON
/// reader converts through this one check and maps nullopt onto its own
/// error type and message.
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

}  // namespace g6::obs
