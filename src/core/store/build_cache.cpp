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

BuildCache::BuildCache(ObjectStore& store, obs::Tracer* tracer,
                       obs::MetricsRegistry* metrics)
    : store_(store), tracer_(tracer), metrics_(metrics) {}

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

std::optional<BuildRecord> BuildCache::lookup(const std::string& key,
                                              const BuildPlan& plan) {
  return lookup(key, plan, tracer_, metrics_);
}

std::optional<BuildRecord> BuildCache::lookup(const std::string& key,
                                              const BuildPlan& plan,
                                              obs::Tracer* tracer,
                                              obs::MetricsRegistry* metrics) {
  obs::ScopedSpan span(tracer, "store.lookup");
  span.attr("key", key);

  auto finish = [&](const char* outcome,
                    std::optional<BuildRecord> record) {
    span.attr("outcome", outcome);
    if (metrics != nullptr) {
      metrics->counter(record ? "store.hit" : "store.miss").inc();
    }
    {
      std::lock_guard lock(statsMutex_);
      (record ? stats_.hits : stats_.misses) += 1;
    }
    return record;
  };

  const std::optional<std::string> hash = store_.ref("build/" + key);
  if (!hash) return finish("miss", std::nullopt);
  const std::optional<std::string> bytes = store_.get(*hash);
  if (!bytes) return finish("corrupt", std::nullopt);
  std::optional<BuildRecord> record = parseRecord(*bytes);
  // Verified reuse: the record must describe exactly the plan we are
  // about to (not) execute; any inconsistency is drift and means rebuild.
  if (!record || record->planHash != plan.planHash() ||
      record->rootHash != plan.rootHash) {
    return finish("drift", std::nullopt);
  }
  record->stepsExecuted = 0;
  record->stepsReusedFromCache = static_cast<int>(plan.steps.size());
  record->buildSeconds = 0.0;  // reuse costs no (simulated) build time
  return finish("hit", std::move(record));
}

void BuildCache::recordMiss(const std::string& key, obs::Tracer* tracer,
                            obs::MetricsRegistry* metrics) {
  obs::ScopedSpan span(tracer, "store.lookup");
  span.attr("key", key);
  span.attr("outcome", "miss");
  if (metrics != nullptr) metrics->counter("store.miss").inc();
  std::lock_guard lock(statsMutex_);
  ++stats_.misses;
}

std::optional<BuildRecord> BuildCache::peek(const std::string& key,
                                            const BuildPlan& plan) const {
  const std::optional<std::string> hash = store_.ref("build/" + key);
  if (!hash) return std::nullopt;
  const std::optional<std::string> bytes = store_.peek(*hash);
  if (!bytes) return std::nullopt;
  std::optional<BuildRecord> record = parseRecord(*bytes);
  if (!record || record->planHash != plan.planHash() ||
      record->rootHash != plan.rootHash) {
    return std::nullopt;
  }
  record->stepsExecuted = 0;
  record->stepsReusedFromCache = static_cast<int>(plan.steps.size());
  record->buildSeconds = 0.0;
  return record;
}

void BuildCache::noteSingleFlightDeduped(std::uint64_t n) {
  std::lock_guard lock(statsMutex_);
  stats_.singleFlightDeduped += n;
}

void BuildCache::insert(const std::string& key, const BuildRecord& record) {
  insert(key, record, tracer_);
}

void BuildCache::insert(const std::string& key, const BuildRecord& record,
                        obs::Tracer* tracer) {
  const std::string hash = store_.put(serializeRecord(record));
  store_.setRef("build/" + key, hash);
  if (tracer != nullptr) {
    tracer->event("store.put",
                  {{"hash", hash},
                   {"bytes", std::to_string(
                                 serializeRecord(record).size())},
                   {"key", key}});
  }
}

}  // namespace rebench::store
