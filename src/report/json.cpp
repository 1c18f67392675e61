#include "report/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace bgpatoms::report::json {
namespace {

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char ch : s) {
    const unsigned char c = static_cast<unsigned char>(ch);
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
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  out += '"';
}

void append_number(std::string& out, double d) {
  if (!std::isfinite(d)) {
    out += "null";
    return;
  }
  // %.17g round-trips every double; prefer the shortest representation
  // that still parses back to the same value.
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.15g", d);
  double back = 0;
  std::sscanf(buf, "%lf", &back);
  if (back != d) std::snprintf(buf, sizeof buf, "%.17g", d);
  out += buf;
}

// Digit-exact integer rendering: counters can exceed 2^53, where the
// double path would silently round.
template <typename Int>
void append_integer(std::string& out, Int i) {
  char buf[24];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, i);
  (void)ec;  // 24 bytes always fit a 64-bit integer
  out.append(buf, ptr);
}

void serialize_to(const Value& v, std::string& out, int depth);

void append_indent(std::string& out, int depth) {
  out.append(static_cast<std::size_t>(depth) * 2, ' ');
}

void serialize_to(const Value& v, std::string& out, int depth) {
  if (v.is_null()) {
    out += "null";
  } else if (v.is_bool()) {
    out += v.as_bool() ? "true" : "false";
  } else if (v.is_number()) {
    if (v.is_integer()) {
      if (v.as_number() < 0) {
        append_integer(out, v.as_int64());
      } else {
        append_integer(out, v.as_uint64());
      }
    } else {
      append_number(out, v.as_number());
    }
  } else if (v.is_string()) {
    append_escaped(out, v.as_string());
  } else if (v.is_array()) {
    const Array& a = v.as_array();
    if (a.empty()) {
      out += "[]";
      return;
    }
    out += "[\n";
    for (std::size_t i = 0; i < a.size(); ++i) {
      append_indent(out, depth + 1);
      serialize_to(a[i], out, depth + 1);
      if (i + 1 < a.size()) out += ',';
      out += '\n';
    }
    append_indent(out, depth);
    out += ']';
  } else {
    const Object& o = v.as_object();
    if (o.empty()) {
      out += "{}";
      return;
    }
    out += "{\n";
    for (std::size_t i = 0; i < o.size(); ++i) {
      append_indent(out, depth + 1);
      append_escaped(out, o[i].first);
      out += ": ";
      serialize_to(o[i].second, out, depth + 1);
      if (i + 1 < o.size()) out += ',';
      out += '\n';
    }
    append_indent(out, depth);
    out += '}';
  }
}

class Parser {
 public:
  /// Deepest array/object nesting accepted. The parser recurses once per
  /// level, so the bound keeps hostile input (a serve frame of 100k '[')
  /// from exhausting the stack; reports nest a handful of levels.
  static constexpr int kMaxDepth = 256;

  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) {
    throw std::runtime_error("json parse error at byte " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
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

  Value parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_nested(&Parser::parse_object);
      case '[': return parse_nested(&Parser::parse_array);
      case '"': return Value(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return Value(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return Value(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Value(nullptr);
      default: return parse_number();
    }
  }

  Value parse_nested(Value (Parser::*parse)()) {
    if (depth_ == kMaxDepth) fail("nesting too deep");
    ++depth_;
    Value v = (this->*parse)();
    --depth_;
    return v;
  }

  Value parse_object() {
    expect('{');
    Object out;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(out));
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      out.emplace_back(std::move(key), parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return Value(std::move(out));
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  Value parse_array() {
    expect('[');
    Array out;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(out));
    }
    for (;;) {
      out.push_back(parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return Value(std::move(out));
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
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
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // UTF-8 encode the code point (no surrogate-pair handling:
          // the reports we emit never escape above U+00FF).
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
        default: fail("bad escape");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    bool fractional = false;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '.' || c == 'e' || c == 'E') fractional = true;
      if ((c >= '0' && c <= '9') || c == '+' || c == '-' || c == '.' ||
          c == 'e' || c == 'E') {
        ++pos_;
      } else {
        break;
      }
    }
    const char* begin = text_.data() + start;
    const char* end = text_.data() + pos_;
    if (!fractional) {
      // Integer fast path: digit-exact for the full 64-bit range, so
      // counter values >= 2^53 round-trip. Out-of-range literals fall
      // through to the double path below.
      if (*begin == '-') {
        std::int64_t value = 0;
        const auto [ptr, ec] = std::from_chars(begin, end, value);
        if (ec == std::errc() && ptr == end) return Value(value);
        if (ec != std::errc::result_out_of_range) fail("bad number");
      } else {
        std::uint64_t value = 0;
        const auto [ptr, ec] = std::from_chars(begin, end, value);
        if (ec == std::errc() && ptr == end) return Value(value);
        if (ec != std::errc::result_out_of_range) fail("bad number");
      }
    }
    double value = 0;
    const auto [ptr, ec] = std::from_chars(begin, end, value);
    if (ec != std::errc() || ptr != end) fail("bad number");
    return Value(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

double Value::as_number() const {
  if (const auto* i = std::get_if<std::int64_t>(&data_))
    return static_cast<double>(*i);
  if (const auto* u = std::get_if<std::uint64_t>(&data_))
    return static_cast<double>(*u);
  return std::get<double>(data_);
}

std::uint64_t Value::as_uint64() const {
  if (const auto* u = std::get_if<std::uint64_t>(&data_)) return *u;
  if (const auto* i = std::get_if<std::int64_t>(&data_))
    return static_cast<std::uint64_t>(*i);
  return static_cast<std::uint64_t>(std::get<double>(data_));
}

std::int64_t Value::as_int64() const {
  if (const auto* i = std::get_if<std::int64_t>(&data_)) return *i;
  if (const auto* u = std::get_if<std::uint64_t>(&data_))
    return static_cast<std::int64_t>(*u);
  return static_cast<std::int64_t>(std::get<double>(data_));
}

bool operator==(const Value& a, const Value& b) {
  if (a.data_.index() == b.data_.index()) return a.data_ == b.data_;
  // Different alternatives can only be equal as numbers.
  if (!a.is_number() || !b.is_number()) return false;
  if (a.is_integer() && b.is_integer()) {
    // One int64, one uint64: equal iff the signed side is non-negative
    // and the magnitudes match.
    const Value& s = std::holds_alternative<std::int64_t>(a.data_) ? a : b;
    const Value& u = (&s == &a) ? b : a;
    const std::int64_t sv = std::get<std::int64_t>(s.data_);
    if (sv < 0) return false;
    return static_cast<std::uint64_t>(sv) == std::get<std::uint64_t>(u.data_);
  }
  // Integer vs double: compare as long double, whose 64-bit mantissa on
  // x86-64 represents every 64-bit integer exactly — no false equality
  // for values a double cannot hold.
  const Value& i = a.is_integer() ? a : b;
  const Value& d = (&i == &a) ? b : a;
  const long double dv =
      static_cast<long double>(std::get<double>(d.data_));
  if (const auto* s = std::get_if<std::int64_t>(&i.data_))
    return static_cast<long double>(*s) == dv;
  return static_cast<long double>(std::get<std::uint64_t>(i.data_)) == dv;
}

const Value* Value::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : as_object()) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string Value::serialize() const {
  std::string out;
  serialize_to(*this, out, 0);
  return out;
}

Value Value::parse(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace bgpatoms::report::json
