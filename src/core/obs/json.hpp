// Minimal JSON support for the trace subsystem (rebench::obs).
//
// The trace writer emits one flat-ish JSON object per line; the reader
// needs just enough of a parser to load those lines back.  This is a
// strict subset implementation: UTF-8 pass-through, \uXXXX emitted for
// control characters only, objects keyed by std::map so serialization is
// deterministic.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace rebench::obs::json {

/// A parsed JSON value.  Tagged struct rather than std::variant so the
/// type can contain itself without indirection gymnastics.
struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<Value> array;
  std::map<std::string, Value> object;

  bool isNumber() const { return kind == Kind::kNumber; }
  bool isString() const { return kind == Kind::kString; }
  bool isArray() const { return kind == Kind::kArray; }
  bool isObject() const { return kind == Kind::kObject; }

  bool contains(std::string_view key) const;
  /// Member access; throws ParseError when absent or not an object.
  const Value& at(std::string_view key) const;
  /// String member with a fallback for absent keys.
  std::string stringOr(std::string_view key, std::string_view fallback) const;
  /// Numeric member with a fallback for absent keys.
  double numberOr(std::string_view key, double fallback) const;
  /// Integer member with a fallback for absent keys.  The number is
  /// range-checked for T before the cast (an out-of-range cast is
  /// undefined): outside T's range it throws ParseError naming the key.
  template <typename T>
  T integerOr(std::string_view key, T fallback) const {
    return contains(key) ? at(key).integer<T>(key) : fallback;
  }
  /// This number as a T, range-checked as integerOr's members are: throws
  /// ParseError naming `key` when it is not a number or outside T's range.
  template <typename T>
  T integer(std::string_view key) const {
    return static_cast<T>(
        numberIn(key, static_cast<double>(std::numeric_limits<T>::min()),
                 static_cast<double>(std::numeric_limits<T>::max()) + 1.0));
  }

 private:
  /// This number, checked to lie in [min, end).
  double numberIn(std::string_view key, double min, double end) const;
};

/// Deepest nesting of arrays and objects parse() accepts.  No rebench
/// writer nests deeper than 4; the limit bounds the parser's recursion
/// on hostile input.
inline constexpr int kMaxDepth = 64;

/// Parses one JSON document; throws rebench::ParseError on malformed
/// input, trailing garbage or nesting deeper than kMaxDepth.
Value parse(std::string_view text);

/// Escapes `raw` for embedding inside a double-quoted JSON string
/// (quotes not included).
std::string escape(std::string_view raw);

/// Renders a quoted JSON string.
std::string quote(std::string_view raw);

}  // namespace rebench::obs::json
