// The rebench CLI's command line: one option table per subcommand
// (args.cpp) whose rows Args::parse checks against and usage() renders, so
// what the CLI accepts, checks and documents cannot drift.  Spelling
// follows the paper's ReFrame invocations: `--name`, `--name value`,
// `--name=value`, `-S key=value`, `-n PAT`.
#pragma once

#include <concepts>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/util/error.hpp"

namespace rebench::cli {

/// A command-line mistake (unknown name, bad value or operand count), which
/// `rebench` reports with the subcommand's usage and exit status 2.
class UsageError : public ParseError {
 public:
  using ParseError::ParseError;
};

enum class Kind {
  kFlag,     // takes no value
  kText,     // any text
  kChoice,   // one of the metavar's '|'-separated words
  kInt,      // a whole-token integer
  kNumber,   // a whole-token finite number
  kSetting,  // key=value, repeatable, kept in order (-S)
};

/// Lower bound of an integer or number option.  A value the program would
/// clamp, ignore or read as "unset" lies below its row's bound.
enum class Min { kNone, kZero, kOne, kAboveZero };

struct Option {
  std::string_view name;  // one letter is spelled -n, longer ones --name
  Kind kind = Kind::kFlag;
  std::string_view metavar;
  std::string_view help;
  Min min = Min::kNone;
};

struct Command {
  std::string_view name;
  std::string_view operands;  // usage synopsis of the positionals
  std::size_t minOperands = 0;
  std::size_t maxOperands = 0;
  std::string_view help;
  std::vector<Option> options;
};

/// Every subcommand's table, in usage order.
std::span<const Command> commands();
const Command* findCommand(std::string_view name);

/// The usage text generated from the tables: one subcommand's block, or
/// every block when `subcommand` names none.
std::string usage(std::string_view subcommand = {});

/// Checks other command-line text (-S values) as integer options are: a
/// whole-token T of at least `min`, or a UsageError naming `what`.
template <std::integral T>
T parseInteger(std::string_view what, std::string_view token,
               Min min = Min::kNone);

class Args {
 public:
  /// Parses argv[1] as the subcommand and the rest against its table;
  /// throws UsageError on anything the table does not accept.
  static Args parse(int argc, const char* const* argv);

  std::string_view subcommand() const { return command_->name; }
  const std::vector<std::string>& positionals() const {
    return positionals_;
  }

  /// Typed reads of a declared option (nullopt / false when absent).
  /// Reading a name the subcommand does not declare with that kind is an
  /// invariant failure, so a mistyped lookup cannot silently read nothing.
  bool flag(std::string_view name) const {
    return find(name, Kind::kFlag) != nullptr;
  }
  std::optional<std::string> text(std::string_view name) const {
    return get<std::string>(name, Kind::kText);
  }
  std::optional<int> integer(std::string_view name) const {
    return get<int>(name, Kind::kInt);
  }
  std::optional<double> number(std::string_view name) const {
    return get<double>(name, Kind::kNumber);
  }
  /// All -S key=value settings, in order (ReFrame's -S).
  const std::vector<std::pair<std::string, std::string>>& settings() const {
    find("S", Kind::kSetting);
    return settings_;
  }

 private:
  using Value = std::variant<std::monostate, std::string, int, double>;
  const Value* find(std::string_view name, Kind kind) const;
  template <typename T>
  std::optional<T> get(std::string_view name, Kind kind) const {
    const Value* value = find(name, kind);
    return value ? std::optional<T>(std::get<T>(*value)) : std::nullopt;
  }

  const Command* command_ = nullptr;
  std::vector<std::string> positionals_;
  std::map<std::string_view, Value, std::less<>> values_;
  std::vector<std::pair<std::string, std::string>> settings_;
};

}  // namespace rebench::cli
