// Minimal JSON value tree, parser, and writer.
//
// Just enough JSON for the machine-readable exports: the telemetry report
// writer (smg-telemetry-v4), the benchmark harness (smg-bench-v1), and
// Chrome trace-event timelines all emit through here, and tests round-trip
// those files through this parser to validate the schemas without an
// external dependency.  Not a general-purpose library: numbers parse via
// strtod, objects keep at most one value per key (last wins).  \uXXXX
// escapes (including surrogate pairs) decode to UTF-8 on parse.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace smg::obs {

class JsonValue {
 public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  JsonValue() = default;
  explicit JsonValue(bool b) : type_(Type::Bool), bool_(b) {}
  explicit JsonValue(double d) : type_(Type::Number), num_(d) {}
  explicit JsonValue(std::string s) : type_(Type::String), str_(std::move(s)) {}

  static JsonValue array() {
    JsonValue v;
    v.type_ = Type::Array;
    return v;
  }
  static JsonValue object() {
    JsonValue v;
    v.type_ = Type::Object;
    return v;
  }

  Type type() const noexcept { return type_; }
  bool is_null() const noexcept { return type_ == Type::Null; }
  bool is_bool() const noexcept { return type_ == Type::Bool; }
  bool is_number() const noexcept { return type_ == Type::Number; }
  bool is_string() const noexcept { return type_ == Type::String; }
  bool is_array() const noexcept { return type_ == Type::Array; }
  bool is_object() const noexcept { return type_ == Type::Object; }

  bool as_bool() const noexcept { return bool_; }
  double as_number() const noexcept { return num_; }
  const std::string& as_string() const noexcept { return str_; }
  const std::vector<JsonValue>& items() const noexcept { return items_; }
  std::vector<JsonValue>& items() noexcept { return items_; }

  /// Object member by key; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const noexcept {
    const auto it = members_.find(std::string(key));
    return it == members_.end() ? nullptr : &it->second;
  }
  bool has(std::string_view key) const noexcept { return find(key) != nullptr; }

  void push_back(JsonValue v) { items_.push_back(std::move(v)); }
  void set(std::string key, JsonValue v) {
    members_.insert_or_assign(std::move(key), std::move(v));
  }
  const std::map<std::string, JsonValue>& members() const noexcept {
    return members_;
  }

 private:
  Type type_ = Type::Null;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<JsonValue> items_;
  std::map<std::string, JsonValue> members_;
};

/// Parse a complete JSON document; std::nullopt on any syntax error or
/// trailing garbage.
std::optional<JsonValue> json_parse(std::string_view text);

/// Serialize with JSON string escaping (round-trips through json_parse).
std::string json_escape(std::string_view s);

/// Serialize a value tree back to JSON text (round-trips through
/// json_parse).  `indent` < 0 emits a compact single-line document;
/// >= 0 pretty-prints with that many spaces per nesting level.  Numbers
/// that hold exact integers print without a fractional part.
std::string json_write(const JsonValue& v, int indent = -1);

/// Render a number as a JSON literal that every parser accepts: JSON has
/// no inf/nan tokens (headroom is inf on FP64 levels, where the value
/// range is unbounded for practical purposes), so NaN renders as "0" and
/// infinities clamp to the largest finite double.  Finite values print
/// with %.17g (round-trip exact).  Both the telemetry report writer and
/// the metrics exposition emit numbers through here.
std::string json_num(double v);
std::string json_num(std::uint64_t v);

}  // namespace smg::obs
