#include "core/obs/json.hpp"

#include <cctype>
#include <cstdio>

#include "core/util/error.hpp"
#include "core/util/strings.hpp"

namespace rebench::obs::json {

bool Value::contains(std::string_view key) const {
  return kind == Kind::kObject && object.find(std::string(key)) != object.end();
}

const Value& Value::at(std::string_view key) const {
  if (kind != Kind::kObject) {
    throw ParseError("json: member access '" + std::string(key) +
                     "' on a non-object");
  }
  auto it = object.find(std::string(key));
  if (it == object.end()) {
    throw ParseError("json: missing member '" + std::string(key) + "'");
  }
  return it->second;
}

std::string Value::stringOr(std::string_view key,
                            std::string_view fallback) const {
  if (!contains(key)) return std::string(fallback);
  const Value& v = at(key);
  if (!v.isString()) {
    throw ParseError("json: member '" + std::string(key) + "' is not a string");
  }
  return v.text;
}

double Value::numberOr(std::string_view key, double fallback) const {
  if (!contains(key)) return fallback;
  const Value& v = at(key);
  if (!v.isNumber()) {
    throw ParseError("json: member '" + std::string(key) + "' is not a number");
  }
  return v.number;
}

double Value::numberIn(std::string_view key, double min, double end) const {
  if (!isNumber()) {
    throw ParseError("json: member '" + std::string(key) + "' is not a number");
  }
  if (!(number >= min && number < end)) {
    throw ParseError("json: member '" + std::string(key) +
                     "' is out of range");
  }
  return number;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value document() {
    Value v = value();
    skipWhitespace();
    if (pos_ != text_.size()) {
      throw ParseError("json: trailing characters at offset " +
                       std::to_string(pos_));
    }
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    throw ParseError("json: " + what + " at offset " + std::to_string(pos_));
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (take() != c) fail(std::string("expected '") + c + "'");
  }

  void skipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  Value value() {
    skipWhitespace();
    const char c = peek();
    if (c == '{' || c == '[') {
      if (++depth_ > kMaxDepth) {
        fail("nesting deeper than " + std::to_string(kMaxDepth));
      }
      Value v = c == '{' ? objectValue() : arrayValue();
      --depth_;
      return v;
    }
    if (c == '"') {
      Value v;
      v.kind = Value::Kind::kString;
      v.text = string();
      return v;
    }
    if (c == 't' || c == 'f') {
      Value v;
      v.kind = Value::Kind::kBool;
      if (consumeLiteral("true")) {
        v.boolean = true;
      } else if (consumeLiteral("false")) {
        v.boolean = false;
      } else {
        fail("bad literal");
      }
      return v;
    }
    if (c == 'n') {
      if (!consumeLiteral("null")) fail("bad literal");
      return Value{};
    }
    return numberValue();
  }

  Value objectValue() {
    expect('{');
    Value v;
    v.kind = Value::Kind::kObject;
    skipWhitespace();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skipWhitespace();
      std::string key = string();
      skipWhitespace();
      expect(':');
      v.object[std::move(key)] = value();
      skipWhitespace();
      const char next = take();
      if (next == '}') return v;
      if (next != ',') fail("expected ',' or '}' in object");
    }
  }

  Value arrayValue() {
    expect('[');
    Value v;
    v.kind = Value::Kind::kArray;
    skipWhitespace();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(value());
      skipWhitespace();
      const char next = take();
      if (next == ']') return v;
      if (next != ',') fail("expected ',' or ']' in array");
    }
  }

  int hexDigit() {
    const char c = take();
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    fail("bad \\u escape digit");
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = take();
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      const char esc = take();
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          int code = 0;
          for (int i = 0; i < 4; ++i) code = code * 16 + hexDigit();
          // The writer only emits \u00XX (control characters); decode the
          // basic-latin range and reject anything the writer cannot have
          // produced rather than implementing full UTF-16 surrogates.
          if (code > 0xff) fail("\\u escape outside the supported range");
          out += static_cast<char>(code);
          break;
        }
        default: fail("bad escape character");
      }
    }
  }

  Value numberValue() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    // The scan accepts any run of number characters; the token must parse
    // whole, so "1.2.3" or "12e" is rejected rather than read as a prefix.
    const std::string_view token = text_.substr(start, pos_ - start);
    Value v;
    v.kind = Value::Kind::kNumber;
    try {
      v.number = str::parseWhole<double>(token, "json");
    } catch (const ParseError&) {
      fail("bad number '" + std::string(token) + "'");
    }
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // arrays and objects open at pos_
};

}  // namespace

Value parse(std::string_view text) { return Parser(text).document(); }

std::string escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string quote(std::string_view raw) {
  return "\"" + escape(raw) + "\"";
}

}  // namespace rebench::obs::json
