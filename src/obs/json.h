// Minimal JSON document model for the metrics exporter and its consumers:
// enough of RFC 8259 to write the versioned run schema, read it back, and
// round-trip it in tests - no external dependency. Objects preserve
// insertion order (stable, diffable output); numbers distinguish integers
// from doubles so counters survive a round-trip exactly.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace aalign::obs {

class Json {
 public:
  enum class Type { Null, Bool, Int, Double, String, Array, Object };

  Json() : type_(Type::Null) {}
  Json(std::nullptr_t) : type_(Type::Null) {}
  Json(bool b) : type_(Type::Bool), bool_(b) {}
  Json(int v) : type_(Type::Int), int_(v) {}
  Json(long v) : type_(Type::Int), int_(v) {}
  Json(long long v) : type_(Type::Int), int_(v) {}
  Json(unsigned v) : type_(Type::Int), int_(static_cast<std::int64_t>(v)) {}
  Json(unsigned long v)
      : type_(Type::Int), int_(static_cast<std::int64_t>(v)) {}
  Json(unsigned long long v)
      : type_(Type::Int), int_(static_cast<std::int64_t>(v)) {}
  Json(double v) : type_(Type::Double), double_(v) {}
  Json(const char* s) : type_(Type::String), string_(s) {}
  Json(std::string s) : type_(Type::String), string_(std::move(s)) {}
  Json(std::string_view s) : type_(Type::String), string_(s) {}

  static Json array() {
    Json j;
    j.type_ = Type::Array;
    return j;
  }
  static Json object() {
    Json j;
    j.type_ = Type::Object;
    return j;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::Null; }
  bool is_number() const {
    return type_ == Type::Int || type_ == Type::Double;
  }
  bool is_string() const { return type_ == Type::String; }
  bool is_array() const { return type_ == Type::Array; }
  bool is_object() const { return type_ == Type::Object; }

  bool as_bool() const { return type_ == Type::Bool && bool_; }
  // Doubles truncate toward zero and saturate at the int64 range (NaN
  // reads 0), so reading any parsed number is defined.
  std::int64_t as_int() const;
  double as_double() const {
    return type_ == Type::Double ? double_
           : type_ == Type::Int  ? static_cast<double>(int_)
                                 : 0.0;
  }
  const std::string& as_string() const { return string_; }

  // Array access.
  void push_back(Json v) { items_.push_back(std::move(v)); }
  std::size_t size() const {
    return type_ == Type::Array ? items_.size()
           : type_ == Type::Object ? keys_.size()
                                   : 0;
  }
  const Json& at(std::size_t i) const { return items_[i]; }

  // Object access: set() replaces an existing key in place (order kept).
  void set(std::string_view key, Json v);
  bool contains(std::string_view key) const { return find(key) != nullptr; }
  // nullptr when absent (or not an object).
  const Json* find(std::string_view key) const;
  Json* find(std::string_view key) {
    return const_cast<Json*>(std::as_const(*this).find(key));
  }
  // Null constant when absent - convenient for chained reads.
  const Json& operator[](std::string_view key) const;
  const std::vector<std::string>& keys() const { return keys_; }

  // Serialization. indent < 0 -> compact single line (JSONL-safe);
  // indent >= 0 -> pretty-printed with that step.
  std::string dump(int indent = -1) const;

  // Parses a complete document (surrounding whitespace allowed). On
  // failure returns Null and, when err != nullptr, a position-annotated
  // message. Arrays and objects nest at most kMaxDepth deep (the wire
  // documents nest 4): a deeper document is a parse error, not a stack
  // overflow.
  static constexpr int kMaxDepth = 64;
  static Json parse(std::string_view text, std::string* err = nullptr);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<Json> items_;           // array elements / object values
  std::vector<std::string> keys_;     // object keys, insertion order
};

}  // namespace aalign::obs
