// Minimal command-line argument parser for the rebench CLI: subcommand +
// --flag / --key value / --key=value / -S key=value / -n PAT / -x PAT
// options, mirroring the ReFrame invocation style the paper's appendix
// documents.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace rebench::cli {

class Args {
 public:
  /// Parses argv[1..]; the first non-option token is the subcommand and
  /// later non-option tokens are positionals.  Throws ParseError on
  /// malformed input (e.g. a valueless --key at end of line is a flag).
  static Args parse(int argc, const char* const* argv);

  const std::string& subcommand() const { return subcommand_; }
  const std::vector<std::string>& positionals() const {
    return positionals_;
  }

  bool hasFlag(std::string_view name) const;
  std::optional<std::string> option(std::string_view name) const;
  std::string optionOr(std::string_view name,
                       std::string_view fallback) const;
  int intOptionOr(std::string_view name, int fallback) const;
  double doubleOptionOr(std::string_view name, double fallback) const;

  /// All -S key=value settings, in order (ReFrame's -S).
  const std::vector<std::pair<std::string, std::string>>& settings() const {
    return settings_;
  }

 private:
  std::string subcommand_;
  std::vector<std::string> positionals_;
  std::map<std::string, std::string, std::less<>> options_;
  std::vector<std::string> flags_;
  std::vector<std::pair<std::string, std::string>> settings_;
};

}  // namespace rebench::cli
