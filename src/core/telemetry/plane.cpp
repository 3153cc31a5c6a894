#include "core/telemetry/plane.hpp"

#include <sstream>

#include "core/obs/json.hpp"
#include "core/obs/openmetrics.hpp"
#include "core/util/error.hpp"
#include "core/util/strings.hpp"

namespace rebench::telemetry {

TelemetryPlane::TelemetryPlane(std::size_t busCapacity) : bus_(busCapacity) {}

std::uint64_t TelemetryPlane::noteStage(const std::string& submission,
                                        const std::string& kind,
                                        const std::string& stage,
                                        obs::AttrMap attrs) {
  double wallSeconds = 0.0;
  const std::uint64_t seq =
      bus_.publish(kind, submission, stage, attrs, &wallSeconds);
  std::lock_guard<std::mutex> lock(mutex_);
  if (!submission.empty()) {
    TimelineEntry entry;
    entry.seq = seq;
    entry.kind = kind;
    entry.stage = stage;
    entry.wallSeconds = wallSeconds;
    timelines_[submission].push_back(std::move(entry));
    inflightSubmission_ = submission;
    inflightStage_ = stage;
  }
  return seq;
}

std::uint64_t TelemetryPlane::noteVerdict(const std::string& submission,
                                          const std::string& verdict,
                                          bool degraded,
                                          const std::string& detail) {
  const std::uint64_t seq =
      noteStage(submission, "verdict", verdict,
                {{"degraded", degraded ? "true" : "false"}});
  std::lock_guard<std::mutex> lock(mutex_);
  VerdictNote note;
  note.seq = seq;
  note.submission = submission;
  note.verdict = verdict;
  note.degraded = degraded;
  note.detail = detail;
  verdicts_.push_back(std::move(note));
  return seq;
}

void TelemetryPlane::noteRunCache(bool hit) {
  bus_.publish("runcache", "", hit ? "hit" : "miss");
  std::lock_guard<std::mutex> lock(mutex_);
  (hit ? runCacheHits_ : runCacheMisses_)++;
}

void TelemetryPlane::noteWatchdogFire() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++watchdogFires_;
}

void TelemetryPlane::setStat(const std::string& key, long value) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, stored] : stats_) {
    if (name == key) {
      stored = value;
      return;
    }
  }
  stats_.emplace_back(key, value);
}

void TelemetryPlane::setQueueDepth(int depth) {
  std::lock_guard<std::mutex> lock(mutex_);
  queueDepth_ = depth;
}

void TelemetryPlane::setQuarantinedKeys(std::vector<std::string> keys) {
  std::lock_guard<std::mutex> lock(mutex_);
  quarantinedKeys_ = std::move(keys);
}

void TelemetryPlane::setWatchdogArms(int arms) {
  std::lock_guard<std::mutex> lock(mutex_);
  watchdogArms_ = arms;
}

void TelemetryPlane::clearInflight() {
  std::lock_guard<std::mutex> lock(mutex_);
  inflightSubmission_.clear();
  inflightStage_.clear();
}

std::string TelemetryPlane::healthJson() const {
  const std::uint64_t seq = bus_.lastSeq();
  const std::vector<TelemetryEvent> recent = bus_.snapshot();
  const double uptime = recent.empty() ? 0.0 : recent.back().wallSeconds;
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  out << "{\"schema\":\"rebench.serve_health_live/1\""
      << ",\"seq\":" << seq << ",\"uptime_seconds\":" << str::fixed(uptime, 3);
  for (const auto& [key, value] : stats_) {
    out << "," << obs::json::quote(key) << ":" << value;
  }
  out << ",\"queue_depth\":" << queueDepth_
      << ",\"runcache_hits\":" << runCacheHits_
      << ",\"runcache_misses\":" << runCacheMisses_
      << ",\"watchdog_arms\":" << watchdogArms_
      << ",\"inflight_submission\":" << obs::json::quote(inflightSubmission_)
      << ",\"inflight_stage\":" << obs::json::quote(inflightStage_)
      << ",\"verdicts\":" << verdicts_.size() << ",\"quarantined_keys\":[";
  for (std::size_t i = 0; i < quarantinedKeys_.size(); ++i) {
    if (i > 0) out << ",";
    out << obs::json::quote(quarantinedKeys_[i]);
  }
  out << "]}\n";
  return out.str();
}

std::string TelemetryPlane::metricsText() const {
  const std::uint64_t seq = bus_.lastSeq();
  const std::vector<TelemetryEvent> recent = bus_.snapshot();
  const double uptime = recent.empty() ? 0.0 : recent.back().wallSeconds;
  // A throwaway registry rendered through the one OpenMetrics
  // implementation — the endpoint never exposes the daemon's live
  // registry, which its thread may be mutating.
  obs::MetricsRegistry registry;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [key, value] : stats_) {
    registry.counter("service.report/" + key)
        .inc(static_cast<std::uint64_t>(value < 0 ? 0 : value));
  }
  registry.counter("service.bus_events").inc(seq);
  registry.counter("service.runcache/hit")
      .inc(static_cast<std::uint64_t>(runCacheHits_));
  registry.counter("service.runcache/miss")
      .inc(static_cast<std::uint64_t>(runCacheMisses_));
  registry.counter("service.watchdog_fires")
      .inc(static_cast<std::uint64_t>(watchdogFires_));
  registry.gauge("service.queue_depth")
      .set(static_cast<double>(queueDepth_));
  registry.gauge("service.inflight").set(inflightSubmission_.empty() ? 0 : 1);
  const long lookups = runCacheHits_ + runCacheMisses_;
  registry.gauge("service.runcache_hit_ratio")
      .set(lookups == 0 ? 0.0
                        : static_cast<double>(runCacheHits_) /
                              static_cast<double>(lookups));
  registry.gauge("service.watchdog_arms")
      .set(static_cast<double>(watchdogArms_));
  registry.gauge("service.uptime_seconds").set(uptime);
  return obs::renderOpenMetrics(registry);
}

std::string TelemetryPlane::verdictsJsonl(std::uint64_t since) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  for (const VerdictNote& note : verdicts_) {
    if (note.seq <= since) continue;
    out << "{\"seq\":" << note.seq
        << ",\"submission\":" << obs::json::quote(note.submission)
        << ",\"verdict\":" << obs::json::quote(note.verdict)
        << ",\"degraded\":" << (note.degraded ? "true" : "false")
        << ",\"detail\":" << obs::json::quote(note.detail) << "}\n";
  }
  return out.str();
}

bool TelemetryPlane::submissionJson(const std::string& submission,
                                    std::string* out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = timelines_.find(submission);
  if (it == timelines_.end()) return false;
  std::ostringstream body;
  body << "{\"submission\":" << obs::json::quote(submission)
       << ",\"timeline\":[";
  for (std::size_t i = 0; i < it->second.size(); ++i) {
    const TimelineEntry& entry = it->second[i];
    if (i > 0) body << ",";
    body << "{\"seq\":" << entry.seq
         << ",\"t\":" << str::fixed(entry.wallSeconds, 6)
         << ",\"kind\":" << obs::json::quote(entry.kind)
         << ",\"stage\":" << obs::json::quote(entry.stage) << "}";
  }
  body << "]}\n";
  *out = body.str();
  return true;
}

HttpResponse TelemetryPlane::handle(const HttpRequest& request) const {
  if (request.path == "/health") {
    return {200, "application/json", healthJson()};
  }
  if (request.path == "/metrics") {
    return {200, "application/openmetrics-text; version=1.0.0",
            metricsText()};
  }
  if (request.path == "/verdicts") {
    std::uint64_t since = 0;
    if (request.query.rfind("since=", 0) == 0) {
      try {
        since = str::parseWhole<std::uint64_t>(
            std::string_view(request.query).substr(6), "since=");
      } catch (const ParseError&) {
        return {400, "text/plain", "bad since= value\n"};
      }
    }
    return {200, "application/jsonl", verdictsJsonl(since)};
  }
  if (request.path.rfind("/submissions/", 0) == 0) {
    const std::string id = request.path.substr(13);
    std::string body;
    if (!submissionJson(id, &body)) {
      return {404, "text/plain", "unknown submission '" + id + "'\n"};
    }
    return {200, "application/json", body};
  }
  return {404, "text/plain",
          "routes: /health /metrics /verdicts[?since=N] "
          "/submissions/<hash>\n"};
}

}  // namespace rebench::telemetry
