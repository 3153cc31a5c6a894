// The serve daemon's live telemetry plane (rebench::telemetry).
//
// One TelemetryPlane per daemon run aggregates everything the HTTP
// status endpoint and `rebench status` can ask about:
//
//   * the event bus (bounded ring, crash flight recorder),
//   * a mirror of the daemon's report counters (processed, cached, ...)
//     published after every verdict, and the queue depth as of the last
//     health.json snapshot — the endpoint thread never reads the
//     daemon's live MetricsRegistry, which is mutated without locks,
//   * the in-flight submission + stage,
//   * a sequence-numbered verdict log (GET /verdicts?since=seq — the
//     "real transport" the ROADMAP left open),
//   * per-submission stage timelines (GET /submissions/<hash>).
//
// All HTTP rendering happens under the plane's mutex against copies of
// this state; /metrics builds a throwaway MetricsRegistry and reuses
// obs::renderOpenMetrics, so the exposition format has exactly one
// implementation in the codebase.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/telemetry/bus.hpp"
#include "core/telemetry/http.hpp"

namespace rebench::telemetry {

/// One filed verdict in the live stream.
struct VerdictNote {
  std::uint64_t seq = 0;  // bus sequence number of the verdict event
  std::string submission;
  std::string verdict;
  bool degraded = false;
  std::string detail;
};

class TelemetryPlane {
 public:
  explicit TelemetryPlane(std::size_t busCapacity = 256);

  EventBus& bus() { return bus_; }
  const EventBus& bus() const { return bus_; }

  // ---- producer side (the daemon, at safe points) ----------------------
  /// Publishes a stage event and updates the submission's timeline and
  /// the in-flight marker.  Returns the event's sequence number.
  std::uint64_t noteStage(const std::string& submission,
                          const std::string& kind, const std::string& stage,
                          obs::AttrMap attrs = {});
  /// Publishes the verdict event and appends to the verdict stream.
  std::uint64_t noteVerdict(const std::string& submission,
                            const std::string& verdict, bool degraded,
                            const std::string& detail);
  void noteRunCache(bool hit);
  void noteWatchdogFire();
  /// Mirror of one daemon report counter ("processed", "cached", ...).
  /// Ordered by first set, so /health renders fields in daemon order.
  void setStat(const std::string& key, long value);
  /// The queue depth of the daemon's last health.json snapshot, which is
  /// published less often than the counters above are set.
  void setQueueDepth(int depth);
  void setQuarantinedKeys(std::vector<std::string> keys);
  /// Armed watchdogs (stage + submission deadlines configured), for the
  /// rebench_service_watchdog_arms gauge.
  void setWatchdogArms(int arms);
  void clearInflight();

  // ---- consumer side (endpoint thread, rebench status) -----------------
  /// {"schema":"rebench.serve_health_live/1",...} — a superset of
  /// QUEUE/health.json plus seq/uptime/in-flight/runcache state.
  std::string healthJson() const;
  /// OpenMetrics text: rebench_service_* families via renderOpenMetrics.
  std::string metricsText() const;
  /// JSONL verdict stream, seq > `since`, oldest first.
  std::string verdictsJsonl(std::uint64_t since) const;
  /// Stage timeline for one submission; false when unknown.
  bool submissionJson(const std::string& submission, std::string* out) const;

  /// Routes a status-endpoint request (/health, /metrics,
  /// /verdicts[?since=N], /submissions/<hash>).
  HttpResponse handle(const HttpRequest& request) const;

 private:
  struct TimelineEntry {
    std::uint64_t seq = 0;
    double wallSeconds = 0.0;
    std::string kind;
    std::string stage;
  };

  EventBus bus_;
  mutable std::mutex mutex_;
  std::vector<std::pair<std::string, long>> stats_;  // insertion-ordered
  std::vector<VerdictNote> verdicts_;
  std::map<std::string, std::vector<TimelineEntry>> timelines_;
  std::vector<std::string> quarantinedKeys_;
  std::string inflightSubmission_;
  std::string inflightStage_;
  long runCacheHits_ = 0;
  long runCacheMisses_ = 0;
  long watchdogFires_ = 0;
  int watchdogArms_ = 0;
  int queueDepth_ = 0;
};

}  // namespace rebench::telemetry
