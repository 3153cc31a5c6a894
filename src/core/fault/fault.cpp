#include "core/fault/fault.hpp"

#include <filesystem>

#include "core/fault/journal.hpp"
#include "core/util/error.hpp"
#include "core/util/rng.hpp"
#include "core/util/strings.hpp"

namespace rebench {

namespace {

double parseProb(std::string_view key, const std::string& value) {
  const double prob =
      str::parseWhole<double>(value, "fault spec: '" + std::string(key) + "'");
  if (!(prob >= 0.0 && prob <= 1.0)) {
    throw ParseError("fault spec: '" + std::string(key) +
                     "' must be in [0,1], got '" + value + "'");
  }
  return prob;
}

}  // namespace

FaultConfig FaultConfig::parse(std::string_view spec) {
  FaultConfig config;
  for (const std::string& field : str::split(std::string(spec), ',')) {
    const std::string trimmed{str::trim(field)};
    if (trimmed.empty()) continue;
    const std::size_t eq = trimmed.find('=');
    if (eq == std::string::npos) {
      throw ParseError("fault spec: expected key=value, got '" + trimmed +
                       "'");
    }
    const std::string key{str::trim(trimmed.substr(0, eq))};
    const std::string value{str::trim(trimmed.substr(eq + 1))};
    if (key == "seed") {
      config.seed = str::parseWhole<std::uint64_t>(value, "fault spec: 'seed'");
    } else if (key == "crash") {
      config.jobCrashProb = parseProb(key, value);
    } else if (key == "node") {
      config.nodeFailProb = parseProb(key, value);
    } else if (key == "preempt") {
      config.preemptProb = parseProb(key, value);
    } else if (key == "build") {
      config.buildFlakeProb = parseProb(key, value);
    } else if (key == "corrupt") {
      config.stdoutCorruptProb = parseProb(key, value);
    } else if (key == "teldrop") {
      config.telemetryDropProb = parseProb(key, value);
    } else {
      throw ParseError("fault spec: unknown key '" + key +
                       "' (expected seed, crash, node, preempt, build, "
                       "corrupt or teldrop)");
    }
  }
  if (config.nodeFailProb + config.preemptProb + config.jobCrashProb > 1.0) {
    throw ParseError(
        "fault spec: node + preempt + crash probabilities exceed 1");
  }
  return config;
}

FaultConfig loadFaultConfig(const std::string& arg) {
  std::error_code ec;
  if (!std::filesystem::is_regular_file(arg, ec)) {
    return FaultConfig::parse(arg);
  }
  std::string joined;
  for (std::string line : str::split(readNamedFile(arg), '\n')) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    if (str::trim(line).empty()) continue;
    if (!joined.empty()) joined += ',';
    joined += str::trim(line);
  }
  return FaultConfig::parse(joined);
}

double FaultInjector::draw(std::string_view site,
                           std::string_view key) const {
  Rng rng = Rng::fromKey("fault:" + std::to_string(config_.seed) + ":" +
                         std::string(site) + ":" + std::string(key));
  return rng.uniform();
}

bool FaultInjector::buildFlake(std::string_view key) const {
  return config_.buildFlakeProb > 0.0 &&
         draw("build", key) < config_.buildFlakeProb;
}

JobFaultDecision FaultInjector::jobFault(std::string_view key) const {
  JobFaultDecision decision;
  const double u = draw("job", key);
  double acc = config_.nodeFailProb;
  if (u < acc) {
    decision.kind = JobFaultDecision::Kind::kNodeFailure;
  } else if (u < (acc += config_.preemptProb)) {
    decision.kind = JobFaultDecision::Kind::kPreemption;
  } else if (u < (acc += config_.jobCrashProb)) {
    decision.kind = JobFaultDecision::Kind::kCrash;
  } else {
    return decision;
  }
  // Independent stream for the strike point, clamped away from the job
  // boundaries so the fault always lands mid-run.
  decision.atFraction = 0.05 + 0.9 * draw("job-at", key);
  return decision;
}

bool FaultInjector::corruptStdout(std::string_view key) const {
  return config_.stdoutCorruptProb > 0.0 &&
         draw("stdout", key) < config_.stdoutCorruptProb;
}

bool FaultInjector::dropTelemetry(std::string_view key) const {
  return config_.telemetryDropProb > 0.0 &&
         draw("telemetry", key) < config_.telemetryDropProb;
}

std::string FaultInjector::corruptText(const std::string& text,
                                       std::string_view key) const {
  if (text.empty()) return text;
  Rng rng = Rng::fromKey("fault:" + std::to_string(config_.seed) +
                         ":stdout-cut:" + std::string(key));
  const std::size_t cut =
      static_cast<std::size_t>(rng.below(text.size()));
  return text.substr(0, cut) + "\n#### CORRUPTED OUTPUT ####\n";
}

}  // namespace rebench
