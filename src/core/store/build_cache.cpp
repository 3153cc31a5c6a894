#include "core/store/build_cache.hpp"

#include "core/obs/json.hpp"
#include "core/obs/metrics.hpp"
#include "core/obs/trace.hpp"
#include "core/util/error.hpp"
#include "core/util/hash.hpp"
#include "core/util/strings.hpp"

namespace rebench::store {

void SingleFlight::publish(const std::string& key) {
  {
    std::lock_guard lock(mutex_);
    states_[key].built = true;
  }
  cv_.notify_all();
}

void SingleFlight::abandon(const std::string& key) {
  {
    std::lock_guard lock(mutex_);
    State& state = states_[key];
    if (state.built) return;
    ++state.epoch;
  }
  cv_.notify_all();
}

std::uint64_t SingleFlight::epoch(const std::string& key) const {
  std::lock_guard lock(mutex_);
  const auto it = states_.find(key);
  return it == states_.end() ? 0 : it->second.epoch;
}

bool SingleFlight::awaitBuilt(const std::string& key,
                              std::uint64_t epoch) const {
  std::unique_lock lock(mutex_);
  cv_.wait(lock, [this, &key, epoch] {
    const auto it = states_.find(key);
    return it != states_.end() &&
           (it->second.built || it->second.epoch != epoch);
  });
  return states_.at(key).built;
}

std::string BuildCache::cacheKey(const std::string& dagHash,
                                 const std::string& envFingerprint,
                                 const std::string& planHash) {
  return Hasher{}
      .update(dagHash)
      .update(envFingerprint)
      .update(planHash)
      .hex();
}

std::string BuildCache::environmentFingerprint(const SystemEnvironment& env) {
  return Hasher{}.update(env.renderConfig()).hex();
}

std::string BuildCache::serializeRecord(const BuildRecord& record) {
  return "{\"kind\":\"build_record\",\"rootHash\":" +
         obs::json::quote(record.rootHash) +
         ",\"planHash\":" + obs::json::quote(record.planHash) +
         ",\"binaryId\":" + obs::json::quote(record.binaryId) +
         ",\"buildSeconds\":" + str::fixed(record.buildSeconds, 6) +
         ",\"stepsExecuted\":" + std::to_string(record.stepsExecuted) +
         "}\n";
}

std::optional<BuildRecord> BuildCache::parseRecord(const std::string& bytes) {
  obs::json::Value value;
  try {
    value = obs::json::parse(str::trim(bytes));
  } catch (const ParseError&) {
    return std::nullopt;
  }
  if (!value.isObject() || value.stringOr("kind", "") != "build_record") {
    return std::nullopt;
  }
  BuildRecord record;
  record.rootHash = value.stringOr("rootHash", "");
  record.planHash = value.stringOr("planHash", "");
  record.binaryId = value.stringOr("binaryId", "");
  record.buildSeconds = value.numberOr("buildSeconds", 0.0);
  record.stepsExecuted = value.integerOr("stepsExecuted", 0);
  return record;
}

std::optional<BuildRecord> BuildCache::reusable(
    const std::optional<std::string>& bytes, const BuildPlan& plan) {
  std::optional<BuildRecord> record =
      bytes ? parseRecord(*bytes) : std::nullopt;
  // Verified reuse: the record must describe exactly the plan we are
  // about to (not) execute; any inconsistency is drift and means rebuild.
  if (!record || record->planHash != plan.planHash() ||
      record->rootHash != plan.rootHash) {
    return std::nullopt;
  }
  record->stepsExecuted = 0;
  record->stepsReusedFromCache = static_cast<int>(plan.steps.size());
  record->buildSeconds = 0.0;  // reuse costs no (simulated) build time
  return record;
}

std::optional<BuildRecord> BuildCache::lookup(const std::string& key,
                                              const BuildPlan& plan,
                                              obs::Tracer* tracer,
                                              obs::MetricsRegistry* metrics) {
  obs::ScopedSpan span(tracer, "store.lookup");
  span.attr("key", key);
  const std::optional<std::string> hash = store_.ref("build/" + key);
  if (!hash) return noteLookup(span, "miss", std::nullopt, metrics);
  const std::optional<std::string> bytes = verifiedBytes(*hash, true);
  if (!bytes) return noteLookup(span, "corrupt", std::nullopt, metrics);
  std::optional<BuildRecord> record = reusable(bytes, plan);
  return noteLookup(span, record ? "hit" : "drift", std::move(record),
                    metrics);
}

void BuildCache::recordMiss(const std::string& key, obs::Tracer* tracer,
                            obs::MetricsRegistry* metrics) {
  obs::ScopedSpan span(tracer, "store.lookup");
  span.attr("key", key);
  noteLookup(span, "miss", std::nullopt, metrics);
}

std::optional<BuildRecord> BuildCache::noteLookup(
    obs::ScopedSpan& span, const char* outcome,
    std::optional<BuildRecord> record, obs::MetricsRegistry* metrics) {
  span.attr("outcome", outcome);
  if (metrics != nullptr) {
    metrics->counter(record ? "store.hit" : "store.miss").inc();
  }
  std::lock_guard lock(statsMutex_);
  (record ? stats_.hits : stats_.misses) += 1;
  return record;
}

std::optional<BuildRecord> BuildCache::peek(const std::string& key,
                                            const BuildPlan& plan) const {
  const std::optional<std::string> hash = store_.ref("build/" + key);
  if (!hash) return std::nullopt;
  return reusable(verifiedBytes(*hash, false), plan);
}

std::optional<std::string> BuildCache::verifiedBytes(const std::string& hash,
                                                     bool repair) const {
  std::lock_guard lock(verifiedMutex_);
  const auto it = verified_.find(hash);
  if (it != verified_.end() && store_.unchanged(it->second.stamp)) {
    return it->second.bytes;
  }
  ObjectStamp stamp;
  std::optional<std::string> bytes;
  try {
    bytes = repair ? store_.get(hash, &stamp) : store_.peek(hash, &stamp);
  } catch (const Error&) {  // unreadable: it stays, and the build reruns
  }
  if (!bytes) {
    if (it != verified_.end()) verified_.erase(it);
    return std::nullopt;
  }
  verified_.insert_or_assign(hash, Verified{std::move(stamp), *bytes});
  return bytes;
}

void BuildCache::noteSingleFlightDeduped(std::uint64_t n) {
  std::lock_guard lock(statsMutex_);
  stats_.singleFlightDeduped += n;
}

void BuildCache::insert(const std::string& key, const BuildRecord& record,
                        obs::Tracer* tracer) {
  const std::string bytes = serializeRecord(record);
  const std::string hash = store_.put(bytes);
  store_.setRef("build/" + key, hash);
  if (tracer != nullptr) {
    tracer->event("store.put", {{"hash", hash},
                                {"bytes", std::to_string(bytes.size())},
                                {"key", key}});
  }
}

}  // namespace rebench::store
