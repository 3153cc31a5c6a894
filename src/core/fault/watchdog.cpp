#include "core/fault/watchdog.hpp"

#include "core/util/strings.hpp"

namespace rebench {

FailureInfo WatchdogFire::failure() const {
  FailureInfo info;
  info.stage = stage;
  info.klass = FailureClass::kInfrastructure;
  info.detail = "watchdog: stage '" + stage + "' exceeded its " +
                str::fixed(limitSeconds, 1) + "s deadline (ran " +
                str::fixed(elapsedSeconds, 1) + "s)";
  return info;
}

std::optional<WatchdogFire> checkStageDeadline(const WatchdogPolicy& policy,
                                               std::string_view stage,
                                               double elapsedSeconds) {
  const double limit = policy.stageTimeoutSeconds;
  if (limit <= 0.0 || elapsedSeconds <= limit) return std::nullopt;
  WatchdogFire fire;
  fire.stage = std::string(stage);
  fire.limitSeconds = limit;
  fire.elapsedSeconds = elapsedSeconds;
  return fire;
}

}  // namespace rebench
