// Deterministic fault injection (rebench::fault).
//
// A FaultInjector turns a seeded FaultConfig into per-site, per-key fault
// decisions.  Every decision is drawn from an Rng derived from
// (seed, site, key) alone — never from shared mutable state — so the
// decisions are independent of evaluation order and identical seed +
// config yields byte-identical traces and perflogs, which is what makes
// resilience behaviour testable at all.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace rebench {

/// Probabilities of each modelled failure mode, all in [0, 1].
/// All-zero (the default) disables injection entirely.
struct FaultConfig {
  std::uint64_t seed = 0;
  /// Transient job crash: the payload dies mid-run (job state FAILED).
  double jobCrashProb = 0.0;
  /// Node failure: kills the running job and drains the node.
  double nodeFailProb = 0.0;
  /// Scheduler preemption: the job is requeued once and rerun.
  double preemptProb = 0.0;
  /// Transient build failure (flaky compiler / filesystem).
  double buildFlakeProb = 0.0;
  /// Corrupts the job's stdout at a random offset (sanity/FOM loss).
  double stdoutCorruptProb = 0.0;
  /// Drops the telemetry capture for the run.
  double telemetryDropProb = 0.0;

  bool enabled() const {
    return jobCrashProb > 0.0 || nodeFailProb > 0.0 || preemptProb > 0.0 ||
           buildFlakeProb > 0.0 || stdoutCorruptProb > 0.0 ||
           telemetryDropProb > 0.0;
  }

  /// Parses "seed=42,crash=0.2,node=0.1,preempt=0.1,build=0.2,
  /// corrupt=0.1,teldrop=0.1" (any subset; unknown keys throw ParseError,
  /// probabilities outside [0,1] throw ParseError).
  static FaultConfig parse(std::string_view spec);
};

/// Resolves --faults arguments: if `arg` names a readable file its
/// contents are parsed (one or more key=value lines, '#' comments),
/// otherwise `arg` itself is parsed as an inline spec.
FaultConfig loadFaultConfig(const std::string& arg);

/// What (if anything) happens to a submitted job.  At most one job-level
/// fault fires per attempt; the probabilities partition one uniform draw.
struct JobFaultDecision {
  enum class Kind { kNone, kNodeFailure, kPreemption, kCrash };
  Kind kind = Kind::kNone;
  /// Fraction of the job's runtime at which the fault strikes.
  double atFraction = 0.5;
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultConfig config) : config_(config) {}

  const FaultConfig& config() const { return config_; }

  /// `key` identifies the attempt: "test|target|repeat|attempt".  Each
  /// site draws from its own stream, so adding a new site never perturbs
  /// existing decisions.
  bool buildFlake(std::string_view key) const;
  JobFaultDecision jobFault(std::string_view key) const;
  bool corruptStdout(std::string_view key) const;
  bool dropTelemetry(std::string_view key) const;

  /// Deterministically corrupts `text`: truncates at a key-derived offset
  /// and appends a corruption marker, modelling a half-written log.
  std::string corruptText(const std::string& text,
                          std::string_view key) const;

 private:
  double draw(std::string_view site, std::string_view key) const;

  FaultConfig config_;
};

}  // namespace rebench
