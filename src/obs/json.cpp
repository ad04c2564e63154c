#include "obs/json.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "util/check.hpp"

namespace g6::obs {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
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
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

bool JsonValue::as_bool() const {
  if (type_ != Type::kBool) throw std::runtime_error("json: not a bool");
  return bool_;
}

double JsonValue::as_number() const {
  if (type_ != Type::kNumber) throw std::runtime_error("json: not a number");
  return number_;
}

const std::optional<JsonValue::Integer>& JsonValue::as_integer() const {
  if (type_ != Type::kNumber) throw std::runtime_error("json: not a number");
  return integer_;
}

const std::string& JsonValue::as_string() const {
  if (type_ != Type::kString) throw std::runtime_error("json: not a string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  if (type_ != Type::kArray) throw std::runtime_error("json: not an array");
  return items_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members() const {
  if (type_ != Type::kObject) throw std::runtime_error("json: not an object");
  return members_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* v = find(key);
  if (v == nullptr) {
    throw std::runtime_error("json: missing key '" + std::string(key) + "'");
  }
  return *v;
}

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error("json: " + std::string(what) + " at byte " +
                             std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"': {
        JsonValue v;
        v.type_ = JsonValue::Type::kString;
        v.string_ = parse_string();
        return v;
      }
      case 't': {
        if (!consume_literal("true")) fail("bad literal");
        JsonValue v;
        v.type_ = JsonValue::Type::kBool;
        v.bool_ = true;
        return v;
      }
      case 'f': {
        if (!consume_literal("false")) fail("bad literal");
        JsonValue v;
        v.type_ = JsonValue::Type::kBool;
        v.bool_ = false;
        return v;
      }
      case 'n': {
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue{};
      }
      default:
        return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.type_ = JsonValue::Type::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.members_.emplace_back(std::move(key), parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return v;
      }
      fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.type_ = JsonValue::Type::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.items_.push_back(parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return v;
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape");
            }
          }
          // UTF-8 encode (BMP only; surrogate pairs are not needed for
          // telemetry files, which are ASCII instrument names).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          fail("bad escape character");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    const std::string tok(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double d = std::strtod(tok.c_str(), &end);
    if (end != tok.c_str() + tok.size() || !std::isfinite(d)) {
      pos_ = start;
      fail("bad number");
    }
    JsonValue v;
    v.type_ = JsonValue::Type::kNumber;
    v.number_ = d;
    if (tok.find_first_of(".eE") == std::string::npos) {
      JsonValue::Integer i;
      i.negative = tok[0] == '-';
      const char* first = tok.data() + (i.negative ? 1 : 0);
      const char* last = tok.data() + tok.size();
      const auto [ptr, ec] = std::from_chars(first, last, i.magnitude);
      if (ec == std::errc() && ptr == last) v.integer_ = i;
    }
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

JsonValue JsonValue::parse(std::string_view text) {
  G6_REQUIRE(!text.empty());
  return JsonParser(text).parse_document();
}

std::string json_number(double v) {
  char buf[32];
  const int n = std::snprintf(buf, sizeof(buf), "%.17g", v);
  G6_ASSERT(n > 0 && static_cast<std::size_t>(n) < sizeof(buf));
  return std::string(buf, static_cast<std::size_t>(n));
}

JsonObjectReader::JsonObjectReader(
    const JsonValue& obj, std::string where, JsonFail on_error,
    const std::vector<std::string_view>& allowed,
    const std::vector<std::string_view>& required)
    : obj_(obj), where_(std::move(where)), fail_(on_error) {
  G6_REQUIRE(fail_ != nullptr);
  if (!obj_.is_object()) {
    fail_(where_ + " must be a JSON object");
    throw std::logic_error("JsonObjectReader: on_error returned");
  }
  for (const auto& [key, value] : obj_.members()) {
    (void)value;
    if (!allowed.empty() &&
        std::find(allowed.begin(), allowed.end(), key) == allowed.end()) {
      fail("unknown key '" + key + "'");
    }
  }
  for (const std::string_view key : required) at(key);
}

const JsonValue& JsonObjectReader::at(std::string_view key) const {
  const JsonValue* v = obj_.find(key);
  if (v == nullptr) fail("missing required key '" + std::string(key) + "'");
  return *v;
}

const JsonValue& JsonObjectReader::typed(std::string_view key,
                                         JsonValue::Type type,
                                         const char* what) const {
  const JsonValue& v = at(key);
  if (v.type() != type) fail_key(key, std::string("must be ") + what);
  return v;
}

double JsonObjectReader::number(const JsonValue& v,
                                std::string_view key) const {
  if (!v.is_number()) fail_key(key, "must be a number");
  return v.as_number();
}

void JsonObjectReader::fail(const std::string& what) const {
  fail_(where_ + ": " + what);
  // A JsonFail must throw; one that returns is a programming error.
  throw std::logic_error("JsonObjectReader: on_error returned");
}

void JsonObjectReader::fail_key(std::string_view key,
                                const std::string& what) const {
  fail("key '" + std::string(key) + "' " + what);
}

}  // namespace g6::obs
