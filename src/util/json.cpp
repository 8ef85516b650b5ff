#include "util/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "util/double_format.hpp"

namespace tegrec::util::json {

Value::Value(Array a)
    : kind_(Kind::kArray), array_(std::make_shared<Array>(std::move(a))) {}

Value::Value(Object o)
    : kind_(Kind::kObject), object_(std::make_shared<Object>(std::move(o))) {}

namespace {

[[noreturn]] void kind_error(const char* wanted) {
  throw std::runtime_error(std::string("json: value is not ") + wanted);
}

}  // namespace

bool Value::as_bool() const {
  if (kind_ != Kind::kBool) kind_error("a bool");
  return bool_;
}

double Value::as_number() const {
  if (kind_ != Kind::kNumber) kind_error("a number");
  return number_;
}

const std::string& Value::as_string() const {
  if (kind_ != Kind::kString) kind_error("a string");
  return string_;
}

const Array& Value::as_array() const {
  if (kind_ != Kind::kArray) kind_error("an array");
  return *array_;
}

const Object& Value::as_object() const {
  if (kind_ != Kind::kObject) kind_error("an object");
  return *object_;
}

const Value& Value::at(const std::string& key) const {
  for (const auto& [name, value] : as_object()) {
    if (name == key) return value;
  }
  throw std::out_of_range("json: no member '" + key + "'");
}

// ----------------------------------------------------------------- dump

namespace {

void dump_string(const std::string& s, std::string& out) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void dump_number(double n, std::string& out) {
  if (!std::isfinite(n)) {
    throw std::invalid_argument("json: NaN/Inf cannot be serialised");
  }
  append_double(out, n);
}

void dump_value(const Value& value, int indent, int depth, std::string& out) {
  const auto newline = [&](int level) {
    if (indent <= 0) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * level), ' ');
  };
  switch (value.kind()) {
    case Value::Kind::kNull: out += "null"; break;
    case Value::Kind::kBool: out += value.as_bool() ? "true" : "false"; break;
    case Value::Kind::kNumber: dump_number(value.as_number(), out); break;
    case Value::Kind::kString: dump_string(value.as_string(), out); break;
    case Value::Kind::kArray: {
      const Array& items = value.as_array();
      if (items.empty()) { out += "[]"; break; }
      out += '[';
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (i > 0) out += ',';
        newline(depth + 1);
        dump_value(items[i], indent, depth + 1, out);
      }
      newline(depth);
      out += ']';
      break;
    }
    case Value::Kind::kObject: {
      const Object& members = value.as_object();
      if (members.empty()) { out += "{}"; break; }
      out += '{';
      for (std::size_t i = 0; i < members.size(); ++i) {
        if (i > 0) out += ',';
        newline(depth + 1);
        dump_string(members[i].first, out);
        out += indent > 0 ? ": " : ":";
        dump_value(members[i].second, indent, depth + 1, out);
      }
      newline(depth);
      out += '}';
      break;
    }
  }
}

}  // namespace

std::string dump(const Value& value, int indent) {
  std::string out;
  dump_value(value, indent, 0, out);
  if (indent > 0) out += '\n';
  return out;
}

// ---------------------------------------------------------------- parse

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value document() {
    const Value value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json: " + what + " at byte " +
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
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* literal) {
    const std::size_t n = std::char_traits<char>::length(literal);
    if (text_.compare(pos_, n, literal) != 0) return false;
    pos_ += n;
    return true;
  }

  Value parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return Value(parse_string());
    if (consume_literal("null")) return Value();
    if (consume_literal("true")) return Value(true);
    if (consume_literal("false")) return Value(false);
    return parse_number();
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (token.empty() || end != token.c_str() + token.size()) {
      pos_ = start;
      fail("malformed number");
    }
    return Value(value);
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
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          const std::string hex = text_.substr(pos_, 4);
          char* end = nullptr;
          const long code = std::strtol(hex.c_str(), &end, 16);
          if (end != hex.c_str() + 4) fail("malformed \\u escape");
          if (code > 0x7f) fail("non-ASCII \\u escape unsupported");
          out += static_cast<char>(code);
          pos_ += 4;
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  Value parse_array() {
    expect('[');
    Array items;
    skip_ws();
    if (peek() == ']') { ++pos_; return Value(std::move(items)); }
    for (;;) {
      items.push_back(parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return Value(std::move(items));
      if (c != ',') { --pos_; fail("expected ',' or ']'"); }
    }
  }

  Value parse_object() {
    expect('{');
    Object members;
    skip_ws();
    if (peek() == '}') { ++pos_; return Value(std::move(members)); }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      members.emplace_back(std::move(key), parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return Value(std::move(members));
      if (c != ',') { --pos_; fail("expected ',' or '}'"); }
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

Value parse(const std::string& text) { return Parser(text).document(); }

}  // namespace tegrec::util::json
