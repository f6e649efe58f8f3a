#include "util/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>

#include "util/contracts.h"
#include "util/parse.h"

namespace cpsguard::util {

namespace {

// Nesting budget: hostile input like "[[[[…" must hit a typed error, not
// exhaust the parser's stack (found by fuzz target "json").
constexpr int kJsonMaxDepth = 256;

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Json parse() {
    Json v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    throw JsonParseError(msg + " (at offset " + std::to_string(pos_) + ")");
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

  bool eat_keyword(const char* kw) {
    const std::size_t len = std::char_traits<char>::length(kw);
    if (text_.compare(pos_, len, kw) != 0) return false;
    pos_ += len;
    return true;
  }

  Json value() {
    if (++depth_ > kJsonMaxDepth) fail("JSON nested deeper than 256 levels");
    Json v = value_inner();
    --depth_;
    return v;
  }

  Json value_inner() {
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return Json::str(string());
      case 't':
        if (eat_keyword("true")) return Json::boolean(true);
        fail("invalid literal");
      case 'f':
        if (eat_keyword("false")) return Json::boolean(false);
        fail("invalid literal");
      case 'n':
        if (eat_keyword("null")) return Json::null();
        fail("invalid literal");
      default: return number();
    }
  }

  Json object() {
    expect('{');
    Json obj = Json::object();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      if (peek() != '"') fail("expected a string key");
      std::string key = string();
      expect(':');
      obj.set(key, value());
      const char c = peek();
      ++pos_;
      if (c == '}') return obj;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  Json array() {
    expect('[');
    Json arr = Json::array();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push(value());
      const char c = peek();
      ++pos_;
      if (c == ']') return arr;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xc0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xe0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    } else {
      out += static_cast<char>(0xf0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3f));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    }
  }

  unsigned hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned cp = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      cp <<= 4;
      if (c >= '0' && c <= '9') {
        cp |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        cp |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        cp |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        --pos_;
        fail("bad hex digit in \\u escape");
      }
    }
    return cp;
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control byte in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("truncated escape");
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
          unsigned cp = hex4();
          if (cp >= 0xd800 && cp <= 0xdbff) {  // high surrogate
            if (pos_ + 1 < text_.size() && text_[pos_] == '\\' &&
                text_[pos_ + 1] == 'u') {
              pos_ += 2;
              const unsigned lo = hex4();
              if (lo < 0xdc00 || lo > 0xdfff) fail("unpaired surrogate");
              cp = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
            } else {
              fail("unpaired surrogate");
            }
          } else if (cp >= 0xdc00 && cp <= 0xdfff) {
            fail("unpaired surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  bool digit_at(std::size_t p) const {
    return p < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[p])) != 0;
  }

  // Exact JSON number grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
  // The laxer "any mix of digits . e + -" scan this replaces accepted
  // non-JSON spellings like "1.", "+1" and "1e" because try_parse_double
  // tolerates them (it serves CLI flags too, where "+1" is fine).
  Json number() {
    skip_ws();
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (!digit_at(pos_)) fail("expected a JSON value");
    if (text_[pos_] == '0') {
      ++pos_;  // a leading zero takes no more digits; "01" is two values
    } else {
      while (digit_at(pos_)) ++pos_;
    }
    bool is_integral = true;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      is_integral = false;
      ++pos_;
      if (!digit_at(pos_)) fail("expected digits after decimal point");
      while (digit_at(pos_)) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (!digit_at(pos_)) fail("expected digits in exponent");
      while (digit_at(pos_)) ++pos_;
    }
    const std::string token = text_.substr(start, pos_ - start);
    if (is_integral) {
      if (const auto v = try_parse_int(token)) {
        return Json::integer(static_cast<long>(*v));
      }
      // Integral but wider than long: fall through to double.
    }
    const auto v = try_parse_double(token);
    // The grammar above rules out "inf"/"nan" spellings; out-of-range
    // (e.g. "1e999") is the only failure left.
    if (!v) fail("out-of-range number");
    return Json::number(*v);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Json Json::object() {
  Json j;
  j.kind_ = Kind::kObject;
  return j;
}

Json Json::array() {
  Json j;
  j.kind_ = Kind::kArray;
  return j;
}

Json Json::str(std::string value) {
  Json j;
  j.kind_ = Kind::kString;
  j.str_ = std::move(value);
  return j;
}

Json Json::number(double value) {
  Json j;
  j.kind_ = Kind::kNumber;
  j.num_ = value;
  return j;
}

Json Json::integer(long value) {
  Json j;
  j.kind_ = Kind::kInteger;
  j.int_ = value;
  return j;
}

Json Json::boolean(bool value) {
  Json j;
  j.kind_ = Kind::kBool;
  j.bool_ = value;
  return j;
}

Json Json::null() { return Json(); }

Json& Json::set(const std::string& key, Json value) {
  expects(is_object(), "set() requires an object");
  for (auto& [k, v] : members_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  members_.emplace_back(key, std::move(value));
  return *this;
}

Json& Json::push(Json value) {
  expects(is_array(), "push() requires an array");
  items_.push_back(std::move(value));
  return *this;
}

const Json* Json::get(const std::string& key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const std::string& Json::as_str() const {
  expects(is_string(), "as_str() requires a string value");
  return str_;
}

long Json::as_int() const {
  expects(is_integer(), "as_int() requires an integer value");
  return int_;
}

bool Json::as_bool() const {
  expects(is_bool(), "as_bool() requires a boolean value");
  return bool_;
}

Json Json::parse(const std::string& text) { return JsonParser(text).parse(); }

std::string Json::escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
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
  return out;
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  std::string pad;
  std::string close_pad;
  if (indent > 0) {
    pad.assign(1, '\n').append(static_cast<std::size_t>(indent * (depth + 1)), ' ');
    close_pad.assign(1, '\n').append(static_cast<std::size_t>(indent * depth), ' ');
  }
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      break;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Kind::kInteger:
      out += std::to_string(int_);
      break;
    case Kind::kNumber: {
      if (std::isfinite(num_)) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.9g", num_);
        out += buf;
      } else {
        out += "null";  // JSON has no NaN/Inf
      }
      break;
    }
    case Kind::kString:
      out += '"';
      out += escape(str_);
      out += '"';
      break;
    case Kind::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [k, v] : members_) {
        if (!first) out += ',';
        first = false;
        out += pad;
        out += '"';
        out += escape(k);
        out += "\":";
        if (indent > 0) out += ' ';
        v.dump_to(out, indent, depth + 1);
      }
      if (!members_.empty()) out += close_pad;
      out += '}';
      break;
    }
    case Kind::kArray: {
      out += '[';
      bool first = true;
      for (const auto& v : items_) {
        if (!first) out += ',';
        first = false;
        out += pad;
        v.dump_to(out, indent, depth + 1);
      }
      if (!items_.empty()) out += close_pad;
      out += ']';
      break;
    }
  }
}

}  // namespace cpsguard::util
