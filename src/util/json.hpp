// Minimal JSON value model with insertion-ordered objects.
//
// This is the single JSON implementation behind bench_out emission
// (exp::Report) and sweep manifests (exp::SweepSpec): objects remember the
// order keys were set in, so every emitted file has a stable, reviewable
// key order and byte-identical output is a property the harness can pin in
// tests. The parser is a strict recursive-descent JSON reader (no
// comments, no trailing commas) sized for manifest files — not a
// general-purpose streaming parser.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace radiocast::util {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;  // null
  Json(bool b) : type_(Type::kBool), bool_(b) {}
  Json(double v) : type_(Type::kNumber), number_(v) {}
  Json(int v) : Json(static_cast<double>(v)) {}
  Json(std::int64_t v) : Json(static_cast<double>(v)) {}
  Json(std::uint64_t v) : Json(static_cast<double>(v)) {}
  Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  Json(std::string_view s) : Json(std::string(s)) {}
  Json(const char* s) : Json(std::string(s)) {}

  static Json array() { return Json(Type::kArray); }
  static Json object() { return Json(Type::kObject); }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; throw std::invalid_argument on a type mismatch so
  /// manifest errors surface as readable messages, not UB.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;

  /// Array / object size (0 for scalars).
  std::size_t size() const;

  // ---- array building / access
  Json& push_back(Json v);
  const Json& at(std::size_t i) const;
  const std::vector<Json>& items() const { return items_; }

  // ---- object building / access (insertion-ordered)
  /// Sets `key`; replaces in place when the key already exists (order of
  /// first insertion is kept). Returns *this for chaining.
  Json& set(std::string key, Json value);
  /// Like set, but a NEW key lands first in the dump order (an existing
  /// key is replaced in place). For leading schema fields ("version").
  Json& prepend(std::string key, Json value);
  /// nullptr when absent or when this is not an object.
  const Json* find(std::string_view key) const;
  const std::vector<std::pair<std::string, Json>>& members() const {
    return members_;
  }

  /// Serialize. indent >= 0 pretty-prints with that many spaces per level;
  /// indent < 0 emits the compact one-line form. NaN/Inf numbers render as
  /// null (JSON has no such literals); integral doubles with |v| < 2^53
  /// render without a decimal point.
  std::string dump(int indent = 2) const;

  /// Strict parse of a complete JSON document; throws
  /// std::invalid_argument with a byte offset on malformed input.
  static Json parse(std::string_view text);

 private:
  explicit Json(Type t) : type_(t) {}
  void dump_to(std::string& out, int indent, int depth) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> items_;
  std::vector<std::pair<std::string, Json>> members_;
};

/// JSON-escape + quote a string (shared by Json::dump and ad-hoc writers).
void json_append_escaped(std::string& out, std::string_view s);

/// Render a double the way Json::dump does: the shortest decimal form that
/// parses back to the same double (std::to_chars, so 0.06 prints as
/// "0.06"), "null" for NaN/Inf, no decimal point for safe integers.
std::string json_number(double v);

/// Exact uint64 <-> Json round trip. JSON doubles only hold integers
/// exactly up to 2^53, but seeds, round budgets, and phase counters are
/// full uint64s: json_uint emits a number when that is exact and a
/// decimal string beyond 2^53; json_as_uint accepts either form and
/// throws std::invalid_argument (naming `what`) for anything lossy —
/// negatives, fractions, or numbers at/after 2^53.
Json json_uint(std::uint64_t v);
std::uint64_t json_as_uint(const Json& value, const std::string& what);

}  // namespace radiocast::util
