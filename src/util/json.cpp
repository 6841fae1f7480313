#include "util/json.hpp"

#include "util/parse.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <system_error>

namespace radiocast::util {

// ----------------------------------------------------------------- access

bool Json::as_bool() const {
  if (type_ != Type::kBool) {
    throw std::invalid_argument("Json: expected a boolean");
  }
  return bool_;
}

double Json::as_number() const {
  if (type_ != Type::kNumber) {
    throw std::invalid_argument("Json: expected a number");
  }
  return number_;
}

const std::string& Json::as_string() const {
  if (type_ != Type::kString) {
    throw std::invalid_argument("Json: expected a string");
  }
  return string_;
}

std::size_t Json::size() const {
  switch (type_) {
    case Type::kArray:
      return items_.size();
    case Type::kObject:
      return members_.size();
    default:
      return 0;
  }
}

Json& Json::push_back(Json v) {
  if (type_ != Type::kArray) {
    throw std::invalid_argument("Json: push_back on a non-array");
  }
  items_.push_back(std::move(v));
  return *this;
}

const Json& Json::at(std::size_t i) const {
  if (type_ != Type::kArray || i >= items_.size()) {
    throw std::invalid_argument("Json: array index out of range");
  }
  return items_[i];
}

Json& Json::set(std::string key, Json value) {
  if (type_ != Type::kObject) {
    throw std::invalid_argument("Json: set on a non-object");
  }
  for (auto& [k, v] : members_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  members_.emplace_back(std::move(key), std::move(value));
  return *this;
}

Json& Json::prepend(std::string key, Json value) {
  if (type_ != Type::kObject) {
    throw std::invalid_argument("Json: prepend on a non-object");
  }
  for (auto& [k, v] : members_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  members_.emplace(members_.begin(), std::move(key), std::move(value));
  return *this;
}

const Json* Json::find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

// ------------------------------------------------------------------- dump

void json_append_escaped(std::string& out, std::string_view s) {
  out += '"';
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
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

Json json_uint(std::uint64_t v) {
  if (v < 9007199254740992ull /* 2^53 */) return Json(v);
  return Json(std::to_string(v));
}

std::uint64_t json_as_uint(const Json& value, const std::string& what) {
  if (value.is_string()) {
    return parse_uint(value.as_string(), what);
  }
  const double v = value.as_number();
  if (v < 0.0 || v != std::floor(v) || v >= 9007199254740992.0 /* 2^53 */) {
    throw std::invalid_argument(
        what + ": " + json_number(v) +
        " is not an exactly-representable non-negative integer (write it "
        "as a string for values beyond 2^53)");
  }
  return static_cast<std::uint64_t>(v);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";  // JSON has no NaN/Inf
  // Safe integers render without a decimal point so counts stay counts.
  if (v == std::floor(v) && std::abs(v) < 9007199254740992.0 /* 2^53 */) {
    return std::to_string(static_cast<long long>(v));
  }
  char buf[32];  // the shortest round-trip form of a double is <= 24 chars
  return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  const bool pretty = indent >= 0;
  const auto newline_pad = [&](int d) {
    if (!pretty) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent) * d, ' ');
  };
  switch (type_) {
    case Type::kNull:
      out += "null";
      return;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      return;
    case Type::kNumber:
      out += json_number(number_);
      return;
    case Type::kString:
      json_append_escaped(out, string_);
      return;
    case Type::kArray: {
      if (items_.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) out += ',';
        newline_pad(depth + 1);
        items_[i].dump_to(out, indent, depth + 1);
      }
      newline_pad(depth);
      out += ']';
      return;
    }
    case Type::kObject: {
      if (members_.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) out += ',';
        newline_pad(depth + 1);
        json_append_escaped(out, members_[i].first);
        out += pretty ? ": " : ":";
        members_[i].second.dump_to(out, indent, depth + 1);
      }
      newline_pad(depth);
      out += '}';
      return;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  if (indent >= 0) out += '\n';
  return out;
}

// ------------------------------------------------------------------ parse

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::invalid_argument("JSON parse error at offset " +
                                std::to_string(pos_) + ": " + why);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Json parse_value() {
    switch (peek()) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return Json(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return Json(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return Json(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Json();
      default:
        return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    Json obj = Json::object();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    for (;;) {
      if (peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      expect(':');
      obj.set(std::move(key), parse_value());
      const char c = peek();
      ++pos_;
      if (c == '}') return obj;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  Json parse_array() {
    expect('[');
    Json arr = Json::array();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    for (;;) {
      arr.push_back(parse_value());
      const char c = peek();
      ++pos_;
      if (c == ']') return arr;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'n':
          out += '\n';
          break;
        case 't':
          out += '\t';
          break;
        case 'r':
          out += '\r';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape digit");
            }
          }
          // Manifests are ASCII in practice; encode BMP code points as
          // UTF-8 without surrogate-pair handling.
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
    fail("unterminated string");
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    bool digits = false;
    auto eat_digits = [&] {
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        digits = true;
      }
    };
    eat_digits();
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      eat_digits();
    }
    if (digits && pos_ < text_.size() &&
        (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
        ++pos_;
      }
      bool exp_digits = false;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        exp_digits = true;
      }
      if (!exp_digits) fail("bad exponent");
    }
    if (!digits) fail("expected a value");
    // from_chars is exact for every finite double, subnormals included
    // (std::stod rejects those as out of range), and ignores the locale.
    const std::string_view token = text_.substr(start, pos_ - start);
    const std::size_t skip = token.front() == '+' ? 1 : 0;
    double v = 0.0;
    const auto [end, ec] =
        std::from_chars(token.data() + skip, token.data() + token.size(), v);
    if (ec != std::errc() || end != token.data() + token.size()) {
      fail("bad number '" + std::string(token) + "'");
    }
    return Json(v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Json Json::parse(std::string_view text) { return Parser(text).parse_document(); }

}  // namespace radiocast::util
