#include "obs/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

namespace aalign::obs {

void Json::set(std::string_view key, Json v) {
  type_ = Type::Object;
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    if (keys_[i] == key) {
      items_[i] = std::move(v);
      return;
    }
  }
  keys_.emplace_back(key);
  items_.push_back(std::move(v));
}

const Json* Json::find(std::string_view key) const {
  if (type_ != Type::Object) return nullptr;
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    if (keys_[i] == key) return &items_[i];
  }
  return nullptr;
}

std::int64_t Json::as_int() const {
  if (type_ == Type::Int) return int_;
  if (type_ != Type::Double || std::isnan(double_)) return 0;
  constexpr double kTwo63 = 9223372036854775808.0;
  if (double_ >= kTwo63) return std::numeric_limits<std::int64_t>::max();
  if (double_ < -kTwo63) return std::numeric_limits<std::int64_t>::min();
  return static_cast<std::int64_t>(double_);
}

const Json& Json::operator[](std::string_view key) const {
  static const Json null_value;
  const Json* v = find(key);
  return v != nullptr ? *v : null_value;
}

namespace {

void escape_into(std::string& out, const std::string& s) {
  out += '"';
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  out += '"';
}

void number_into(std::string& out, double v) {
  if (!std::isfinite(v)) {  // JSON has no inf/nan; degrade to null
    out += "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // Trim to the shortest representation that round-trips.
  for (int prec = 1; prec < 17; ++prec) {
    char probe[32];
    std::snprintf(probe, sizeof(probe), "%.*g", prec, v);
    double back = 0.0;
    std::sscanf(probe, "%lf", &back);
    if (back == v) {
      out += probe;
      return;
    }
  }
  out += buf;
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  const bool pretty = indent >= 0;
  const auto newline_pad = [&](int d) {
    if (!pretty) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (type_) {
    case Type::Null: out += "null"; break;
    case Type::Bool: out += bool_ ? "true" : "false"; break;
    case Type::Int: {
      char buf[24];
      auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), int_);
      (void)ec;
      out.append(buf, p);
      break;
    }
    case Type::Double: number_into(out, double_); break;
    case Type::String: escape_into(out, string_); break;
    case Type::Array:
      out += '[';
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) out += ',';
        newline_pad(depth + 1);
        items_[i].dump_to(out, indent, depth + 1);
      }
      if (!items_.empty()) newline_pad(depth);
      out += ']';
      break;
    case Type::Object:
      out += '{';
      for (std::size_t i = 0; i < keys_.size(); ++i) {
        if (i > 0) out += ',';
        newline_pad(depth + 1);
        escape_into(out, keys_[i]);
        out += pretty ? ": " : ":";
        items_[i].dump_to(out, indent, depth + 1);
      }
      if (!keys_.empty()) newline_pad(depth);
      out += '}';
      break;
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

namespace {

struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  std::string error;
  int depth = 0;  // containers open around the current position

  bool fail(const std::string& msg) {
    if (error.empty()) {
      error = msg + " at offset " + std::to_string(pos);
    }
    return false;
  }
  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r')) {
      ++pos;
    }
  }
  bool consume(char c) {
    skip_ws();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }
  bool literal(std::string_view lit) {
    if (text.substr(pos, lit.size()) == lit) {
      pos += lit.size();
      return true;
    }
    return false;
  }

  bool parse_string(std::string& out) {
    if (pos >= text.size() || text[pos] != '"') return fail("expected '\"'");
    ++pos;
    out.clear();
    while (pos < text.size()) {
      const char c = text[pos];
      if (c == '"') {
        ++pos;
        return true;
      }
      if (c == '\\') {
        if (pos + 1 >= text.size()) return fail("truncated escape");
        const char e = text[pos + 1];
        pos += 2;
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos + 4 > text.size()) return fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text[pos + static_cast<std::size_t>(i)];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return fail("bad \\u escape");
            }
            pos += 4;
            // UTF-8 encode the BMP code point (surrogate pairs are not
            // needed by this schema; a lone surrogate encodes raw).
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
          default: return fail("unknown escape");
        }
        continue;
      }
      out += c;
      ++pos;
    }
    return fail("unterminated string");
  }

  bool parse_array(Json& out) {
    out = Json::array();
    skip_ws();
    if (consume(']')) return true;
    while (true) {
      Json item;
      if (!parse_value(item)) return false;
      out.push_back(std::move(item));
      if (consume(',')) continue;
      if (consume(']')) return true;
      return fail("expected ',' or ']'");
    }
  }

  bool parse_object(Json& out) {
    out = Json::object();
    skip_ws();
    if (consume('}')) return true;
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return false;
      if (!consume(':')) return fail("expected ':'");
      Json value;
      if (!parse_value(value)) return false;
      out.set(key, std::move(value));
      if (consume(',')) continue;
      if (consume('}')) return true;
      return fail("expected ',' or '}'");
    }
  }

  bool parse_value(Json& out) {
    skip_ws();
    if (pos >= text.size()) return fail("unexpected end of input");
    const char c = text[pos];
    if (c == 'n') {
      if (!literal("null")) return fail("bad literal");
      out = Json();
      return true;
    }
    if (c == 't') {
      if (!literal("true")) return fail("bad literal");
      out = Json(true);
      return true;
    }
    if (c == 'f') {
      if (!literal("false")) return fail("bad literal");
      out = Json(false);
      return true;
    }
    if (c == '"') {
      std::string s;
      if (!parse_string(s)) return false;
      out = Json(std::move(s));
      return true;
    }
    if (c == '[' || c == '{') {
      // Containers recurse; the cap bounds the stack one line can claim.
      if (depth == Json::kMaxDepth) {
        return fail("nesting deeper than " + std::to_string(Json::kMaxDepth));
      }
      ++pos;
      ++depth;
      const bool ok = c == '[' ? parse_array(out) : parse_object(out);
      --depth;
      return ok;
    }
    // Number.
    const std::size_t start = pos;
    if (pos < text.size() && (text[pos] == '-' || text[pos] == '+')) ++pos;
    bool is_double = false;
    while (pos < text.size()) {
      const char d = text[pos];
      if (std::isdigit(static_cast<unsigned char>(d))) {
        ++pos;
      } else if (d == '.' || d == 'e' || d == 'E' || d == '-' || d == '+') {
        is_double = d == '.' || d == 'e' || d == 'E' ? true : is_double;
        ++pos;
      } else {
        break;
      }
    }
    if (pos == start) return fail("unexpected character");
    const std::string_view tok = text.substr(start, pos - start);
    if (!is_double) {
      std::int64_t v = 0;
      const auto [p, ec] = std::from_chars(tok.begin(), tok.end(), v);
      if (ec == std::errc() && p == tok.end()) {
        out = Json(static_cast<long long>(v));
        return true;
      }
    }
    double v = 0.0;
    const std::string copy(tok);
    char* end = nullptr;
    v = std::strtod(copy.c_str(), &end);
    if (end != copy.c_str() + copy.size()) return fail("bad number");
    out = Json(v);
    return true;
  }
};

}  // namespace

Json Json::parse(std::string_view text, std::string* err) {
  Parser p{text, 0, {}};
  Json out;
  if (!p.parse_value(out)) {
    if (err != nullptr) *err = p.error;
    return Json();
  }
  p.skip_ws();
  if (p.pos != text.size()) {
    if (err != nullptr) {
      *err = "trailing content at offset " + std::to_string(p.pos);
    }
    return Json();
  }
  if (err != nullptr) err->clear();
  return out;
}

}  // namespace aalign::obs
