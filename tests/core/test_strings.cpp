#include "core/util/strings.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "core/util/error.hpp"

namespace rebench::str {
namespace {

TEST(Split, BasicFields) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(Split, EmptyFieldsPreserved) {
  EXPECT_EQ(split("a||b", '|'), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(SplitWhitespace, CollapsesRuns) {
  EXPECT_EQ(splitWhitespace("  foo \t bar\nbaz "),
            (std::vector<std::string>{"foo", "bar", "baz"}));
  EXPECT_TRUE(splitWhitespace("   ").empty());
  EXPECT_TRUE(splitWhitespace("").empty());
}

TEST(Trim, StripsBothEnds) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("x"), "x");
  EXPECT_EQ(trim("\t\n"), "");
}

TEST(Join, RoundTripsSplit) {
  const std::vector<std::string> parts{"one", "two", "three"};
  EXPECT_EQ(join(parts, ","), "one,two,three");
  EXPECT_EQ(split(join(parts, ","), ','), parts);
  EXPECT_EQ(join({}, ","), "");
}

TEST(ToLower, AsciiOnly) {
  EXPECT_EQ(toLower("GCc@9.2.0"), "gcc@9.2.0");
}

TEST(StartsEndsContains, Basics) {
  EXPECT_TRUE(startsWith("archer2:compute", "archer2"));
  EXPECT_FALSE(startsWith("ar", "archer2"));
  EXPECT_TRUE(endsWith("perflog.log", ".log"));
  EXPECT_FALSE(endsWith("log", "perflog"));
  EXPECT_TRUE(contains("a|b|c", "|b|"));
  EXPECT_FALSE(contains("abc", "z"));
}

TEST(ReplaceAll, NonOverlapping) {
  EXPECT_EQ(replaceAll("a%b%c", "%", "%25"), "a%25b%25c");
  EXPECT_EQ(replaceAll("aaa", "aa", "b"), "ba");
  EXPECT_EQ(replaceAll("x", "", "y"), "x");
}

TEST(Fixed, StableWidth) {
  EXPECT_EQ(fixed(24.0, 1), "24.0");
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fixed(-1.5, 0), "-2");  // round-half-away for printf
}

TEST(Pad, LeftAndRight) {
  EXPECT_EQ(padLeft("7", 3), "  7");
  EXPECT_EQ(padRight("7", 3), "7  ");
  EXPECT_EQ(padLeft("1234", 3), "1234");  // never truncates
}

TEST(PercentEscape, RoundTripsStructuralCharacters) {
  const std::string raw = "a|b=c%d\ne";
  EXPECT_EQ(percentEscape(raw), "a%7cb%3dc%25d%0ae");
  EXPECT_EQ(percentUnescape(percentEscape(raw)), raw);
  EXPECT_EQ(percentUnescape("%7C%3D"), "|=");
  for (const char* bad : {"%", "%7", "x%7", "%zz", "%7g"}) {
    EXPECT_THROW(percentUnescape(bad), ParseError) << bad;
  }
}

TEST(ParseWhole, ReadsOnlyWholeTokens) {
  EXPECT_EQ(parseWhole<int>("8080", "port"), 8080);
  EXPECT_EQ(parseWhole<int>("-3", "n"), -3);
  EXPECT_EQ(parseWhole<std::uint64_t>("18446744073709551615", "seed"),
            18446744073709551615ull);
  EXPECT_DOUBLE_EQ(parseWhole<double>("0.3", "crash"), 0.3);
  EXPECT_DOUBLE_EQ(parseWhole<double>("1e-3", "x"), 1e-3);
  for (const char* bad : {"", "13x", "80x", " 13", "13 ", "+13", "0x10",
                          "abc", "1.5", "99999999999"}) {
    EXPECT_THROW(parseWhole<int>(bad, "n"), ParseError) << bad;
  }
  EXPECT_THROW(parseWhole<std::uint64_t>("-1", "seed"), ParseError);
  EXPECT_THROW(parseWhole<std::uint64_t>("18446744073709551616", "seed"),
               ParseError);
  for (const char* bad : {"", "0.3x", "abc", "1e999", ".", "--1"}) {
    EXPECT_THROW(parseWhole<double>(bad, "x"), ParseError) << bad;
  }
  try {
    parseWhole<std::uint64_t>("13x", "fault spec: 'seed'");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_STREQ(e.what(),
                 "fault spec: 'seed' expects an integer, got '13x'");
  }
}

}  // namespace
}  // namespace rebench::str
