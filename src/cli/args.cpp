#include "cli/args.hpp"

#include <algorithm>

#include "core/util/error.hpp"
#include "core/util/strings.hpp"

namespace rebench::cli {

Args Args::parse(int argc, const char* const* argv) {
  Args args;
  int i = 1;
  while (i < argc) {
    const std::string token = argv[i];
    if (token == "-S") {
      if (i + 1 >= argc) throw ParseError("-S requires key=value");
      const std::string setting = argv[++i];
      const std::size_t eq = setting.find('=');
      if (eq == std::string::npos) {
        throw ParseError("-S expects key=value, got '" + setting + "'");
      }
      args.settings_.emplace_back(setting.substr(0, eq),
                                  setting.substr(eq + 1));
    } else if (token == "-n" || token == "-x") {
      // ReFrame's name filters: -n PAT selects, -x PAT excludes.
      if (i + 1 >= argc) throw ParseError(token + " requires a pattern");
      args.options_[token.substr(1)] = argv[++i];
    } else if (str::startsWith(token, "--")) {
      std::string name = token.substr(2);
      if (name.empty()) throw ParseError("bare '--' is not an option");
      const std::size_t eq = name.find('=');
      if (eq != std::string::npos) {
        args.options_[name.substr(0, eq)] = name.substr(eq + 1);
      } else if (i + 1 < argc && argv[i + 1][0] != '-') {
        args.options_[name] = argv[++i];
      } else {
        args.flags_.push_back(name);
      }
    } else if (args.subcommand_.empty()) {
      args.subcommand_ = token;
    } else {
      args.positionals_.push_back(token);
    }
    ++i;
  }
  return args;
}

bool Args::hasFlag(std::string_view name) const {
  return std::find(flags_.begin(), flags_.end(), name) != flags_.end();
}

std::optional<std::string> Args::option(std::string_view name) const {
  auto it = options_.find(name);
  if (it == options_.end()) return std::nullopt;
  return it->second;
}

std::string Args::optionOr(std::string_view name,
                           std::string_view fallback) const {
  auto value = option(name);
  return value ? *value : std::string(fallback);
}

int Args::intOptionOr(std::string_view name, int fallback) const {
  auto value = option(name);
  if (!value) return fallback;
  try {
    return std::stoi(*value);
  } catch (const std::exception&) {
    throw ParseError("option --" + std::string(name) +
                     " expects an integer, got '" + *value + "'");
  }
}

double Args::doubleOptionOr(std::string_view name, double fallback) const {
  auto value = option(name);
  if (!value) return fallback;
  try {
    return std::stod(*value);
  } catch (const std::exception&) {
    throw ParseError("option --" + std::string(name) +
                     " expects a number, got '" + *value + "'");
  }
}

}  // namespace rebench::cli
