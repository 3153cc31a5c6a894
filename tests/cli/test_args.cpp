#include "cli/args.hpp"

#include <gtest/gtest.h>

#include "core/util/error.hpp"

namespace rebench::cli {
namespace {

Args parse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "rebench");
  return Args::parse(static_cast<int>(argv.size()), argv.data());
}

TEST(CliArgs, SubcommandAndPositionals) {
  const Args args = parse({"spec", "hpgmg%gcc"});
  EXPECT_EQ(args.subcommand(), "spec");
  ASSERT_EQ(args.positionals().size(), 1u);
  EXPECT_EQ(args.positionals()[0], "hpgmg%gcc");
}

TEST(CliArgs, EmptyCommandLine) {
  const Args args = parse({});
  EXPECT_TRUE(args.subcommand().empty());
}

TEST(CliArgs, OptionWithSeparateValue) {
  const Args args = parse({"run", "--system", "archer2"});
  EXPECT_EQ(args.optionOr("system", "local"), "archer2");
}

TEST(CliArgs, OptionWithEqualsValue) {
  const Args args = parse({"run", "--system=noctua2"});
  EXPECT_EQ(args.optionOr("system", "local"), "noctua2");
}

TEST(CliArgs, MissingOptionFallsBack) {
  const Args args = parse({"run"});
  EXPECT_FALSE(args.option("system").has_value());
  EXPECT_EQ(args.optionOr("system", "local"), "local");
}

TEST(CliArgs, FlagWithoutValue) {
  const Args args = parse({"run", "--verbose", "--system", "csd3"});
  EXPECT_TRUE(args.hasFlag("verbose"));
  EXPECT_FALSE(args.hasFlag("quiet"));
  EXPECT_EQ(args.optionOr("system", ""), "csd3");
}

TEST(CliArgs, TrailingOptionIsFlag) {
  const Args args = parse({"history", "--detect"});
  EXPECT_TRUE(args.hasFlag("detect"));
}

TEST(CliArgs, SettingsCollectInOrder) {
  const Args args =
      parse({"run", "-S", "model=omp", "-S", "array_size=1024"});
  ASSERT_EQ(args.settings().size(), 2u);
  EXPECT_EQ(args.settings()[0].first, "model");
  EXPECT_EQ(args.settings()[0].second, "omp");
  EXPECT_EQ(args.settings()[1].first, "array_size");
  EXPECT_EQ(args.settings()[1].second, "1024");
}

TEST(CliArgs, NameFiltersTakeTheNextToken) {
  // ReFrame's -n/-x, stored where --n/--x land.
  const Args args =
      parse({"suite", "--system", "archer2", "-n", "babel", "-x", "Intel"});
  EXPECT_EQ(args.option("n"), "babel");
  EXPECT_EQ(args.option("x"), "Intel");
  EXPECT_TRUE(args.positionals().empty());
}

TEST(CliArgs, NameFilterWithoutPatternIsAnError) {
  EXPECT_THROW(parse({"suite", "-n"}), ParseError);
  EXPECT_THROW(parse({"suite", "--system", "archer2", "-x"}), ParseError);
}

TEST(CliArgs, PaperStyleInvocation) {
  // Mirrors the appendix: -S spack_spec='babelstream%gcc@9.2.0 +omp'
  const Args args = parse({"run", "--benchmark", "babelstream",
                           "--system=isambard-macs:cascadelake", "-S",
                           "model=omp", "--repeats", "3"});
  EXPECT_EQ(args.optionOr("benchmark", ""), "babelstream");
  EXPECT_EQ(args.optionOr("system", ""), "isambard-macs:cascadelake");
  EXPECT_EQ(args.intOptionOr("repeats", 1), 3);
}

TEST(CliArgs, IntOptionValidation) {
  const Args args = parse({"run", "--repeats", "banana"});
  EXPECT_THROW(args.intOptionOr("repeats", 1), ParseError);
  EXPECT_EQ(parse({"run"}).intOptionOr("repeats", 7), 7);
}

TEST(CliArgs, MalformedSettings) {
  EXPECT_THROW(parse({"run", "-S"}), ParseError);
  EXPECT_THROW(parse({"run", "-S", "noequals"}), ParseError);
  EXPECT_THROW(parse({"run", "--"}), ParseError);
}

TEST(CliArgs, NegativeNumbersAreNotOptionValues) {
  // '--key' followed by '-1' treats --key as a flag (values must not
  // start with '-'); this is documented CLI behaviour.
  const Args args = parse({"run", "--window", "-S", "a=b"});
  EXPECT_TRUE(args.hasFlag("window"));
  EXPECT_EQ(args.settings().size(), 1u);
}

}  // namespace
}  // namespace rebench::cli
