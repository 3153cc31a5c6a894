#include "cli/args.hpp"

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "core/util/error.hpp"
#include "core/util/rng.hpp"

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
  EXPECT_THROW(parse({}), UsageError);
  EXPECT_THROW(parse({"bogus"}), UsageError);
}

TEST(CliArgs, OptionWithSeparateValue) {
  const Args args = parse({"run", "--system", "archer2"});
  EXPECT_EQ(args.text("system"), "archer2");
}

TEST(CliArgs, OptionWithEqualsValue) {
  const Args args = parse({"run", "--system=noctua2"});
  EXPECT_EQ(args.text("system"), "noctua2");
}

TEST(CliArgs, MissingOptionFallsBack) {
  const Args args = parse({"run"});
  EXPECT_FALSE(args.text("system").has_value());
  EXPECT_EQ(args.text("system").value_or("local"), "local");
  EXPECT_EQ(args.integer("repeats").value_or(1), 1);
}

TEST(CliArgs, FlagWithoutValue) {
  const Args args = parse({"run", "--verbose", "--system", "csd3"});
  EXPECT_TRUE(args.flag("verbose"));
  EXPECT_FALSE(args.flag("no-cache"));
  EXPECT_EQ(args.text("system"), "csd3");
}

TEST(CliArgs, TrailingOptionIsFlag) {
  // Only a declared flag: a trailing value option is missing its value.
  EXPECT_TRUE(parse({"history", "--check"}).flag("check"));
  EXPECT_THROW(parse({"history", "--window"}), UsageError);
  EXPECT_THROW(parse({"report", "--frame-cache"}), UsageError);
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
  // ReFrame's -n/-x.
  const Args args =
      parse({"suite", "--system", "archer2", "-n", "babel", "-x", "Intel"});
  EXPECT_EQ(args.text("n"), "babel");
  EXPECT_EQ(args.text("x"), "Intel");
  EXPECT_TRUE(args.positionals().empty());
}

TEST(CliArgs, NameFilterWithoutPatternIsAnError) {
  EXPECT_THROW(parse({"suite", "-n"}), UsageError);
  EXPECT_THROW(parse({"suite", "--system", "archer2", "-x"}), UsageError);
}

TEST(CliArgs, PaperStyleInvocation) {
  // Mirrors the appendix: -S spack_spec='babelstream%gcc@9.2.0 +omp'
  const Args args = parse({"run", "--benchmark", "babelstream",
                           "--system=isambard-macs:cascadelake", "-S",
                           "model=omp", "--repeats", "3"});
  EXPECT_EQ(args.text("benchmark"), "babelstream");
  EXPECT_EQ(args.text("system"), "isambard-macs:cascadelake");
  EXPECT_EQ(args.integer("repeats"), 3);
}

TEST(CliArgs, IntOptionValidation) {
  // Checked while parsing, so a typed read cannot fail.
  EXPECT_THROW(parse({"run", "--repeats", "banana"}), UsageError);
  EXPECT_EQ(parse({"run"}).integer("repeats").value_or(7), 7);
  EXPECT_EQ(parse({"run", "--repeats=12"}).integer("repeats"), 12);
}

TEST(CliArgs, MalformedSettings) {
  EXPECT_THROW(parse({"run", "-S"}), UsageError);
  EXPECT_THROW(parse({"run", "-S", "noequals"}), UsageError);
  EXPECT_THROW(parse({"run", "--"}), UsageError);
}

TEST(CliArgs, NegativeNumbersAreOptionValues) {
  // A value option takes the next token even when it starts with '-'.
  EXPECT_EQ(parse({"history", "--threshold", "-0.5"}).number("threshold"),
            -0.5);
  EXPECT_EQ(parse({"suite", "-n", "-omp"}).text("n"), "-omp");
  EXPECT_THROW(parse({"history", "--window", "-5"}), UsageError);
  EXPECT_THROW(parse({"run", "--repeats", "-S", "a=b"}), UsageError);
}

TEST(CliArgs, UnknownOptionIsAnError) {
  EXPECT_THROW(parse({"suite", "--jbos", "8"}), UsageError);
  EXPECT_THROW(parse({"suite", "--stroe", "S"}), UsageError);
  EXPECT_THROW(parse({"spec", "hpgmg", "--jobs", "2"}), UsageError);
  EXPECT_THROW(parse({"history", "--detect"}), UsageError);
  EXPECT_THROW(parse({"history", "--sigmas", "3"}), UsageError);
  // One-letter names take one dash, longer names two.
  EXPECT_THROW(parse({"suite", "--n", "babel"}), UsageError);
  EXPECT_THROW(parse({"suite", "-system", "archer2"}), UsageError);
}

TEST(CliArgs, FlagIsFollowedByAPositional) {
  const Args args =
      parse({"history", "--store", "S", "--check", "--json", "nosuchtest"});
  EXPECT_TRUE(args.flag("check"));
  EXPECT_TRUE(args.flag("json"));
  ASSERT_EQ(args.positionals().size(), 1u);
  EXPECT_EQ(args.positionals()[0], "nosuchtest");
  const Args spec = parse({"spec", "--trace", "hpgmg%gcc"});
  EXPECT_TRUE(spec.flag("trace"));
  EXPECT_EQ(spec.positionals(), std::vector<std::string>{"hpgmg%gcc"});
}

TEST(CliArgs, FlagWithEqualsValueIsAnError) {
  EXPECT_THROW(parse({"history", "--check=yes"}), UsageError);
  EXPECT_THROW(parse({"run", "--no-cache=1"}), UsageError);
}

TEST(CliArgs, NumbersMustBeWholeAndFinite) {
  for (const char* bad : {"2x", "1.5", "", " 3", "0x10"}) {
    EXPECT_THROW(parse({"run", "--repeats", bad}), UsageError) << bad;
  }
  for (const char* bad : {"0.05abc", "abc", "nan", "inf", "-inf", "1e999"}) {
    EXPECT_THROW(parse({"history", "--threshold", bad}), UsageError) << bad;
  }
  EXPECT_EQ(parse({"history", "--threshold", "2.5e0"}).number("threshold"),
            2.5);
}

TEST(CliArgs, BoundsPerKind) {
  // >= 1 integers
  EXPECT_THROW(parse({"suite", "--jobs", "0"}), UsageError);
  EXPECT_EQ(parse({"suite", "--jobs", "1"}).integer("jobs"), 1);
  EXPECT_THROW(parse({"serve", "--quarantine-after", "0"}), UsageError);
  // >= 0 integers
  EXPECT_THROW(parse({"suite", "--retries=-1"}), UsageError);
  EXPECT_EQ(parse({"suite", "--retries", "0"}).integer("retries"), 0);
  EXPECT_EQ(parse({"suite", "--quarantine-after", "0"})
                .integer("quarantine-after"),
            0);
  // >= 0 numbers
  EXPECT_THROW(parse({"suite", "--backoff-base", "-0.1"}), UsageError);
  EXPECT_EQ(parse({"suite", "--backoff-base", "0"}).number("backoff-base"),
            0.0);
  // > 0 numbers
  EXPECT_THROW(parse({"suite", "--stage-timeout", "0"}), UsageError);
  EXPECT_EQ(parse({"suite", "--stage-timeout", "0.5"}).number("stage-timeout"),
            0.5);
  // choices
  EXPECT_THROW(parse({"run", "--probe", "bogus"}), UsageError);
  EXPECT_EQ(parse({"run", "--probe", "real"}).text("probe"), "real");
}

TEST(CliArgs, BoundErrorNamesTheFlag) {
  try {
    parse({"run", "--repeats", "0"});
    FAIL() << "--repeats 0 parsed";
  } catch (const UsageError& e) {
    EXPECT_STREQ(e.what(), "--repeats must be >= 1 (got 0)");
  }
}

TEST(CliArgs, OptionBeforeSubcommandIsAnError) {
  EXPECT_THROW(parse({"--system", "archer2", "run"}), UsageError);
  EXPECT_THROW(parse({"-S", "model=omp", "run"}), UsageError);
}

TEST(CliArgs, OperandCounts) {
  EXPECT_THROW(parse({"spec"}), UsageError);
  EXPECT_THROW(parse({"spec", "a", "b"}), UsageError);
  EXPECT_THROW(parse({"run", "extra"}), UsageError);
  EXPECT_EQ(parse({"history", "t", "tgt"}).positionals().size(), 2u);
  EXPECT_THROW(parse({"history", "t", "tgt", "more"}), UsageError);
}

TEST(CliArgs, UndeclaredReadIsAnInvariantFailure) {
  const Args args = parse({"run"});
  EXPECT_THROW(args.flag("quiet"), InternalError);
  EXPECT_THROW(args.text("repeats"), InternalError);
  EXPECT_THROW(parse({"spec", "x"}).settings(), InternalError);
}

TEST(CliArgs, SettingIntegersUseTheOptionCheck) {
  EXPECT_EQ(parseInteger<int>("-S num_tasks", "16"), 16);
  EXPECT_EQ(parseInteger<std::size_t>("-S array_size", "1024"), 1024u);
  EXPECT_THROW(parseInteger<std::size_t>("-S array_size", "-5"), UsageError);
  try {
    parseInteger<int>("-S num_tasks", "x");
    FAIL() << "'x' converted";
  } catch (const UsageError& e) {
    EXPECT_NE(std::string(e.what()).find("num_tasks"), std::string::npos);
  }
}

TEST(CliArgs, UsageIsGeneratedFromTheTables) {
  const std::string all = usage();
  for (const Command& command : commands()) {
    const std::string own = usage(command.name);
    EXPECT_NE(all.find(own.substr(1)), std::string::npos) << command.name;
    for (const Option& option : command.options) {
      const std::string spelled =
          (option.name.size() == 1 ? "-" : "--") + std::string(option.name);
      EXPECT_NE(own.find("  " + spelled + " "), std::string::npos)
          << command.name << " " << spelled;
    }
  }
  EXPECT_EQ(usage("run").find("--crash-after"), std::string::npos);
}

// Seeded mutation property: argvs assembled from the tables' own names,
// '-'-prefixed numbers and garbage either parse into values that respect
// their rows, or throw UsageError — never anything else.
TEST(CliArgs, ParseSucceedsOrThrowsUsageError) {
  std::vector<std::string> words = {
      "bogus", "",      "-",    "--",    "=",     "-1",  "-0.5",  "-1e3",
      "0",     "1",     "3",    "0.05",  "2x",    "nan", "inf",   "1e999",
      "sim",   "real",  "a=b",  "key=",  "=v",    "-nan", "\xff", "x y",
      "99999999999",    "0x10", "claim", "hpcg",  "--=", "-S=a=b"};
  std::vector<std::string> commandNames = {"bogus", "--system", ""};
  for (const Command& command : commands()) {
    commandNames.emplace_back(command.name);
    for (const Option& option : command.options) {
      const std::string spelled =
          (option.name.size() == 1 ? "-" : "--") + std::string(option.name);
      words.push_back(spelled);
      words.push_back(spelled + "=1");
      words.push_back(spelled + "=-2");
    }
  }
  Rng rng(20231112);
  int parsed = 0;
  for (int round = 0; round < 2000; ++round) {
    std::vector<std::string> tokens = {
        commandNames[rng.below(commandNames.size())]};
    const std::uint64_t extra = rng.below(7);
    for (std::uint64_t i = 0; i < extra; ++i) {
      tokens.push_back(words[rng.below(words.size())]);
    }
    std::vector<const char*> argv = {"rebench"};
    for (const std::string& token : tokens) argv.push_back(token.c_str());
    std::string line;
    for (const std::string& token : tokens) line += " '" + token + "'";
    try {
      const Args args = Args::parse(static_cast<int>(argv.size()), argv.data());
      ++parsed;
      for (const Option& option : findCommand(args.subcommand())->options) {
        switch (option.kind) {
          case Kind::kFlag:
            args.flag(option.name);
            break;
          case Kind::kText:
          case Kind::kChoice:
            args.text(option.name);
            break;
          case Kind::kSetting:
            args.settings();
            break;
          case Kind::kInt:
          case Kind::kNumber: {
            const std::optional<double> value =
                option.kind == Kind::kInt
                    ? std::optional<double>(args.integer(option.name))
                    : args.number(option.name);
            if (!value) break;
            const double bound = option.min == Min::kOne ? 1.0 : 0.0;
            if (option.min == Min::kAboveZero) {
              EXPECT_GT(*value, 0.0) << line;
            } else if (option.min != Min::kNone) {
              EXPECT_GE(*value, bound) << line;
            }
            break;
          }
        }
      }
    } catch (const UsageError&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << line << " threw a non-usage error: " << e.what();
    }
  }
  // The property is vacuous unless a fair share of argvs parse.
  EXPECT_GT(parsed, 100);
}

}  // namespace
}  // namespace rebench::cli
