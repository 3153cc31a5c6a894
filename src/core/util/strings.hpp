// Small string utilities shared across the framework.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace rebench::str {

/// Splits `s` on `sep`; adjacent separators produce empty fields.
std::vector<std::string> split(std::string_view s, char sep);

/// Splits `s` on any whitespace run; no empty fields are produced.
std::vector<std::string> splitWhitespace(std::string_view s);

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// Joins `parts` with `sep` between consecutive elements.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Lower-cases ASCII characters.
std::string toLower(std::string_view s);

bool startsWith(std::string_view s, std::string_view prefix);
bool endsWith(std::string_view s, std::string_view suffix);
bool contains(std::string_view s, std::string_view needle);

/// Replaces every occurrence of `from` in `s` with `to`.
std::string replaceAll(std::string_view s, std::string_view from,
                       std::string_view to);

/// Formats a double with `digits` significant decimal places, trimming a
/// trailing ".0" is *not* done: benchmark tables want stable widths.
std::string fixed(double value, int digits);

/// Percent-encodes '|', '=', '%' and '\n' as %7c, %3d, %25 and %0a: the
/// characters that structure perflog lines and history segment rows, so
/// any text round-trips through either.
std::string percentEscape(std::string_view raw);

/// Decodes every %XX (two hex digits, either case) of `escaped`.  A '%'
/// without two hex digits after it throws ParseError.
std::string percentUnescape(std::string_view escaped);

/// Left/right pads `s` with spaces to at least `width` characters.
std::string padLeft(std::string_view s, std::size_t width);
std::string padRight(std::string_view s, std::size_t width);

/// Reads all of `token` as one T with std::from_chars.  An empty token, a
/// numeric prefix ("13x"), a leading '+' or space, a '-' on an unsigned
/// T, or a value T cannot hold throws ParseError "<what> expects an
/// integer|a number, got '<token>'".  A floating-point token may spell
/// inf or nan.  Defined for int, unsigned long, unsigned long long and
/// double, so std::size_t and std::uint64_t work on every platform.
template <typename T>
T parseWhole(std::string_view token, std::string_view what);

}  // namespace rebench::str
