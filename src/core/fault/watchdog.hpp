// Deadline watchdogs (rebench::fault).
//
// A permanently hung stage — a job the scheduler never finishes, a build
// that spins forever — must not block an executor lane (or the serve
// daemon) indefinitely, and it must not be *retried*: retrying a hang
// just hangs again.  The watchdog therefore turns a stage that exceeds
// its (simulated) wall-clock deadline — one --stage-timeout covers every
// stage — into a classified FailureClass::kInfrastructure failure, which
// the retry ladder refuses to retry and the circuit breaker counts
// toward quarantine.  The same policy caps the retry ladder itself: when
// the cumulative backoff for a stage would blow its deadline, the
// transient failure is promoted to infrastructure instead of backing off
// forever.
//
// Deadlines are expressed in simulated seconds (the only clock modelled
// runs have), so watchdog decisions are byte-deterministic like every
// other pipeline outcome.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "core/fault/failure.hpp"

namespace rebench {

struct WatchdogPolicy {
  /// Simulated-seconds deadline of every pipeline stage; <= 0 means no
  /// deadline.  (--stage-timeout)
  double stageTimeoutSeconds = -1.0;
};

/// One deadline violation.
struct WatchdogFire {
  std::string stage;
  double limitSeconds = 0.0;
  double elapsedSeconds = 0.0;

  /// The classified failure a fired watchdog becomes: infrastructure —
  /// the platform hung, not the test — so it is never retried in place
  /// and feeds the quarantine circuit breaker.
  FailureInfo failure() const;
};

/// Checks one stage's elapsed simulated seconds against the policy;
/// nullopt when the stage finished within its deadline (or has none).
std::optional<WatchdogFire> checkStageDeadline(const WatchdogPolicy& policy,
                                               std::string_view stage,
                                               double elapsedSeconds);

}  // namespace rebench
