#include "cli/args.hpp"

#include <cmath>
#include <initializer_list>
#include <iterator>

#include "core/util/strings.hpp"

namespace rebench::cli {
namespace {

using enum Kind;
using enum Min;

constexpr Option kSystem{"system", kText, "S",
                         "target system[:partition] (default local)"};
constexpr Option kPerflog{"perflog", kText, "F", "append results to perflog F"};
constexpr Option kTrace{"trace", kText, "DIR", "trace into DIR/trace.jsonl"};
constexpr Option kMetricsOut{"metrics-out", kText, "FILE",
                             "export metrics and FOMs as OpenMetrics text"};
constexpr Option kJobs{"jobs", kInt, "N",
                       "campaign workers (same bytes at any N)", kOne};
constexpr Option kQueue{"queue", kText, "DIR", "serve queue directory"};
constexpr Option kJson{"json", kFlag, "", "machine-readable output"};
constexpr Option kChrome{"chrome", kText, "FILE",
                         "export a chrome://tracing file"};
constexpr Option kFrameCache{"frame-cache", kText, "DIR",
                             "reuse a verified columnar copy of each perflog"};

// The options that fill a store::CampaignInvocation, shared by run, suite
// and submit so all three record the same invocation bytes.
constexpr Option kCampaign[] = {
    kSystem,
    {"benchmark", kChoice, "babelstream|hpcg|hpgmg",
     "benchmark of a single-benchmark run"},
    {"S", kSetting, "key=value", "benchmark setting, repeatable (model=omp)"},
    {"ntimes", kInt, "N", "babelstream kernel iterations", kOne},
    {"repeats", kInt, "N", "fixed repeats per test (default 1)", kOne},
    {"tag", kText, "T", "select suite tests by tag"},
    {"n", kText, "PAT", "select suite tests whose name contains PAT"},
    {"x", kText, "PAT", "drop suite tests whose name contains PAT"},
    {"account", kText, "A", "scheduler account (default ec999)"},
    {"faults", kText, "FILE|SPEC",
     "seeded faults: seed,crash,node,preempt,build,corrupt,teldrop"},
    {"retries", kInt, "N", "retries per failing stage", kZero},
    {"backoff-base", kNumber, "S", "first backoff, simulated seconds", kZero},
    {"backoff-mult", kNumber, "X", "backoff growth per retry", kZero},
    {"backoff-max", kNumber, "S", "backoff cap, simulated seconds", kZero},
    {"quarantine-after", kInt, "N", "quarantine after N failures", kZero},
    {"stage-timeout", kNumber, "S",
     "per-stage watchdog deadline, simulated seconds", kAboveZero},
    {"lanes", kInt, "N", "virtual lanes in the trace (default 8)", kOne},
    {"ci-halfwidth", kNumber, "R",
     "adaptive: repeat until every 95% CI is within +/-R", kAboveZero},
    {"min-repeats", kInt, "N", "adaptive: fewest repeats (default 3)", kOne},
    {"max-repeats", kInt, "N", "adaptive: most repeats (default 64)", kOne},
    {"probe", kChoice, "sim|real", "per-stage rusage (sim: synthetic)"},
    {"store", kText, "DIR", "store for artifacts, manifest and history"},
    {"no-cache", kFlag, "", "rebuild instead of reusing cached builds"},
};

std::vector<Option> withCampaign(std::initializer_list<Option> own) {
  std::vector<Option> options(std::begin(kCampaign), std::end(kCampaign));
  options.insert(options.end(), own.begin(), own.end());
  return options;
}

const std::vector<Command>& table() {
  static const std::vector<Command> kCommands = {
      {"list-systems", "", 0, 0, "configured systems and partitions", {}},
      {"list-packages", "", 0, 0, "recipe repository contents", {}},
      {"spec", "<spec>", 1, 1, "concretize a spec on a system",
       {kSystem,
        {"env-file", kText, "F", "concretize against a hand-written env file"},
        {"trace", kFlag, "", "also print the concretizer's decisions"}}},
      {"env", "", 0, 0, "a system's captured environment", {kSystem}},
      {"run", "", 0, 0, "run one benchmark through the pipeline",
       withCampaign({kPerflog, kTrace, kMetricsOut,
                     {"verbose", kFlag, "",
                      "print each run's spec and launch command"}})},
      {"suite", "", 0, 0, "run the builtin suite, selected by --tag, -n, -x",
       withCampaign({kPerflog, kTrace, kMetricsOut, kJobs,
                     {"resume", kText, "DIR",
                      "journal finished runs in DIR; reruns skip them"}})},
      {"replay", "<manifest>|<hash>", 0, 1,
       "re-execute a manifest; exit 1 unless byte-exact",
       {{"store", kText, "DIR",
         "replay the manifest object <hash> of DIR (default: latest)"}}},
      {"trace-report", "<trace>", 1, 1,
       "per-stage timing and metrics of a trace",
       {{"tree", kFlag, "", "also print the span tree"}, kJson, kChrome}},
      {"profile", "<trace>", 1, 1, "lane schedule and critical path of a trace",
       {kJson, kChrome,
        {"diff", kText, "A", "diff A against <trace>; exit 1 on regression"},
        {"threshold", kNumber, "X", "regression threshold (default 0.05)",
         kZero}}},
      {"audit", "", 0, 0, "hygiene audit of a perflog; exit 1 on findings",
       {{"perflog", kText, "F", "perflog to audit"},
        {"manifest", kText, "M", "also flag results from stale artifacts"},
        {"strict", kFlag, "", "require reference values"}}},
      {"report", "", 0, 0, "tabulate and plot a perflog",
       {{"perflog", kText, "F", "perflog to report"},
        {"fom", kText, "NAME", "only this figure of merit"},
        {"stats", kFlag, "", "per-series statistics"},
        {"plot", kFlag, "", "bar chart of the values"}, kFrameCache}},
      {"history", "[<test> [<target>]]", 0, 2,
       "FOM history trends and regression gate",
       {{"store", kText, "DIR", "history of a campaign store"},
        {"perflog", kText, "F", "history of a perflog, one record a row"},
        kJson, {"window", kInt, "N", "rolling window (default 5)", kOne},
        {"threshold", kNumber, "X",
         "--check regression threshold (default 0.05)", kZero},
        {"check", kFlag, "", "gate the newest record; exit 1 on regression"},
        kFrameCache}},
      {"compare", "", 0, 0, "before/after perflogs; exit 1 on regression",
       {{"before", kText, "F", "baseline perflog"},
        {"after", kText, "F", "candidate perflog"},
        {"threshold", kNumber, "X", "regression threshold (default 0.05)",
         kZero},
        kFrameCache}},
      {"submit", "", 0, 0, "queue a run (--benchmark) or a suite for serve",
       withCampaign({kQueue})},
      {"serve", "", 0, 0, "crash-safe daemon that drains a queue",
       {kQueue, {"store", kText, "DIR", "the daemon's store"},
        {"once", kFlag, "", "drain the queue once and exit"}, kJobs,
        {"quarantine-after", kInt, "N",
         "refuse a submission after N crashes (default 3)", kOne},
        {"stage-timeout", kNumber, "S",
         "per-stage deadline for submissions without one", kAboveZero},
        {"submission-timeout", kNumber, "S",
         "whole-submission deadline, simulated seconds", kAboveZero},
        {"listen", kText, "HOST:PORT", "live status endpoint (port 0: any)"},
        kTrace, kMetricsOut,
        {"request-drain", kFlag, "", "ask the daemon on --queue to drain"},
        {"clear-drain", kFlag, "", "withdraw a drain request"},
        {"crash-after", kChoice, "claim|executed|verdict",
         "test hook: exit 3 after that checkpoint"}}},
      {"status", "", 0, 0, "live view of a serve queue",
       {kQueue, {"fetch", kText, "PATH", "print one endpoint response"},
        {"follow", kFlag, "", "stream verdicts as they are filed"}}},
  };
  return kCommands;
}

const Option* findOption(const Command& command, std::string_view name) {
  for (const Option& option : command.options) {
    if (option.name == name) return &option;
  }
  return nullptr;
}

std::string spelling(const Option& option) {
  return (option.name.size() == 1 ? "-" : "--") + std::string(option.name);
}

[[noreturn]] void throwMalformed(std::string_view what,
                                 std::string_view expected,
                                 std::string_view token) {
  throw UsageError(std::string(what) + " expects " + std::string(expected) +
                   ", got '" + std::string(token) + "'");
}

void requireMin(std::string_view what, double value, Min min,
                std::string_view token) {
  const char* bound = min == kZero && value < 0.0        ? ">= 0"
                      : min == kOne && value < 1.0       ? ">= 1"
                      : min == kAboveZero && value <= 0.0 ? "> 0"
                                                          : nullptr;
  if (bound != nullptr) {
    throw UsageError(std::string(what) + " must be " + bound + " (got " +
                     std::string(token) + ")");
  }
}

/// str::parseWhole, its ParseError reported as a command-line error.
template <typename T>
T parseToken(std::string_view what, std::string_view token) {
  try {
    return str::parseWhole<T>(token, what);
  } catch (const ParseError& e) {
    throw UsageError(e.what());
  }
}

double parseNumber(std::string_view what, std::string_view token, Min min) {
  const double value = parseToken<double>(what, token);
  if (!std::isfinite(value)) throwMalformed(what, "a finite number", token);
  requireMin(what, value, min, token);
  return value;
}

bool isChoice(std::string_view choices, std::string_view value) {
  while (true) {
    const std::size_t bar = choices.find('|');
    if (choices.substr(0, bar) == value) return true;
    if (bar == std::string_view::npos) return false;
    choices.remove_prefix(bar + 1);
  }
}

/// Appends one usage line: `left`, then `help` from column kHelpColumn.
void addUsageRow(std::string& out, std::string_view left,
                 std::string_view help) {
  constexpr std::size_t kHelpColumn = 34;
  out.append(left);
  if (left.size() >= kHelpColumn) out += '\n';
  out.append(left.size() < kHelpColumn ? kHelpColumn - left.size()
                                       : kHelpColumn,
             ' ');
  out.append(help).append("\n");
}

}  // namespace

std::span<const Command> commands() { return table(); }

const Command* findCommand(std::string_view name) {
  for (const Command& command : table()) {
    if (command.name == name) return &command;
  }
  return nullptr;
}

std::string usage(std::string_view subcommand) {
  const Command* only = findCommand(subcommand);
  std::string out;
  if (only == nullptr) {
    out = "rebench — automated and reproducible benchmarking\n";
  }
  for (const Command& command : table()) {
    if (only != nullptr && &command != only) continue;
    std::string synopsis = "rebench ";
    synopsis.append(command.name);
    if (!command.options.empty()) synopsis.append(" [options]");
    if (!command.operands.empty()) {
      synopsis.append(" ").append(command.operands);
    }
    out += '\n';
    addUsageRow(out, synopsis, command.help);
    for (const Option& option : command.options) {
      std::string left = "  " + spelling(option);
      if (!option.metavar.empty()) left.append(" ").append(option.metavar);
      addUsageRow(out, left, option.help);
    }
  }
  if (only == nullptr) {
    out += "\nexit status: 0 ok, 1 failure (run, regression, audit, replay, "
           "I/O),\n2 command-line error, 3 serve's --crash-after hook\n";
  }
  return out;
}

template <std::integral T>
T parseInteger(std::string_view what, std::string_view token, Min min) {
  const T value = parseToken<T>(what, token);
  requireMin(what, static_cast<double>(value), min, token);
  return value;
}
template int parseInteger<int>(std::string_view, std::string_view, Min);
template std::size_t parseInteger<std::size_t>(std::string_view,
                                               std::string_view, Min);

Args Args::parse(int argc, const char* const* argv) {
  if (argc < 2) throw UsageError("missing subcommand");
  const std::string name = argv[1];
  Args args;
  args.command_ = findCommand(name);
  if (args.command_ == nullptr) {
    throw UsageError(name.starts_with('-')
                         ? "options go after the subcommand, got " + name
                         : "unknown subcommand '" + name + "'");
  }
  for (int i = 2; i < argc; ++i) {
    const std::string_view token = argv[i];
    if (token.size() < 2 || token[0] != '-') {
      args.positionals_.emplace_back(token);
      continue;
    }
    const std::size_t eq = token.find('=');
    const std::string spelled(token.substr(0, eq));
    const Option* option = findOption(
        *args.command_, std::string_view(spelled).substr(
                            spelled.starts_with("--") ? 2 : 1));
    if (option == nullptr || spelling(*option) != spelled) {
      throw UsageError("unknown option " + spelled);
    }
    const bool inlined = eq != std::string_view::npos;
    if (option->kind == kFlag) {
      if (inlined) throw UsageError(spelled + " takes no value");
      args.values_[option->name] = std::monostate{};
      continue;
    }
    if (!inlined && i + 1 == argc) {
      throw UsageError("missing value for " + spelled + " (" +
                       std::string(option->metavar) + ")");
    }
    const std::string_view value = inlined ? token.substr(eq + 1) : argv[++i];
    if (option->kind == kSetting) {
      const std::size_t split = value.find('=');
      if (split == std::string_view::npos) {
        throwMalformed(spelled, "key=value", value);
      }
      args.settings_.emplace_back(value.substr(0, split),
                                  value.substr(split + 1));
    } else if (option->kind == kInt) {
      args.values_[option->name] =
          parseInteger<int>(spelled, value, option->min);
    } else if (option->kind == kNumber) {
      args.values_[option->name] = parseNumber(spelled, value, option->min);
    } else if (option->kind == kChoice && !isChoice(option->metavar, value)) {
      throwMalformed(spelled, option->metavar, value);
    } else {
      args.values_[option->name] = std::string(value);
    }
  }
  const Command& command = *args.command_;
  if (args.positionals_.size() < command.minOperands) {
    throw UsageError("missing " + std::string(command.operands));
  }
  if (args.positionals_.size() > command.maxOperands) {
    throw UsageError("unexpected argument '" +
                     args.positionals_[command.maxOperands] + "'");
  }
  return args;
}

const Args::Value* Args::find(std::string_view name, Kind kind) const {
  const Option* option = findOption(*command_, name);
  REBENCH_REQUIRE(option != nullptr &&
                  (option->kind == kind ||
                   (kind == kText && option->kind == kChoice)));
  const auto it = values_.find(name);
  return it == values_.end() ? nullptr : &it->second;
}

}  // namespace rebench::cli
