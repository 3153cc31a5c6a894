#include "core/store/run_cache.hpp"

#include <sstream>

#include "core/obs/json.hpp"
#include "core/obs/metrics.hpp"
#include "core/obs/trace.hpp"
#include "core/store/object_store.hpp"
#include "core/util/error.hpp"

namespace rebench::store {

std::string RunRecord::serialize() const {
  using obs::json::quote;
  std::ostringstream out;
  out << "{\"schema\":" << quote(kRunCacheSchema) << ",\"key\":" << quote(key)
      << ",\"verdict\":" << quote(verdict)
      << ",\"manifest\":" << quote(manifestHash)
      << ",\"perflog\":" << quote(perflogHash) << ",\"runs\":" << runs
      << ",\"regressions\":" << regressions << "}";
  return out.str();
}

RunRecord RunRecord::parse(const std::string& text) {
  const obs::json::Value value = obs::json::parse(text);
  if (!value.isObject()) throw Error("run-cache record is not an object");
  const std::string schema = value.stringOr("schema", "");
  if (schema != kRunCacheSchema) {
    throw Error("unsupported run-cache schema '" + schema + "'");
  }
  RunRecord record;
  record.key = value.stringOr("key", "");
  record.verdict = value.stringOr("verdict", "");
  record.manifestHash = value.stringOr("manifest", "");
  record.perflogHash = value.stringOr("perflog", "");
  record.runs = value.integerOr("runs", 0);
  record.regressions = value.integerOr("regressions", 0);
  return record;
}

std::string RunCache::refName(std::string_view key) {
  return "runcache/" + std::string(key);
}

std::string_view RunCache::outcomeName(Outcome outcome) {
  switch (outcome) {
    case Outcome::kHit:
      return "hit";
    case Outcome::kMiss:
      return "miss";
    case Outcome::kCorrupt:
      return "corrupt";
    case Outcome::kStale:
      return "stale";
  }
  return "miss";
}

RunCache::Lookup RunCache::lookup(const std::string& key) {
  Lookup result;
  obs::ScopedSpan span(tracer_, "store.runcache");
  span.attr("key", key);

  // A record that fails verification was deleted by the store; a ref or
  // record that cannot be read stays in place.  Each is corrupt here.
  bool unset = false;
  std::optional<RunRecord> record;
  try {
    const std::optional<std::string> hash = store_.ref(refName(key));
    unset = !hash;
    if (hash) {
      if (const std::optional<std::string> bytes = store_.get(*hash)) {
        record = RunRecord::parse(*bytes);
      }
    }
  } catch (const Error&) {
  }
  if (unset) {
    result.outcome = Outcome::kMiss;
  } else if (!record || record->key != key) {
    result.outcome = Outcome::kCorrupt;
  } else if (!store_.contains(record->manifestHash)) {
    // The record survived but its evidence did not; re-execute.  A
    // stat, not a verified read: readers that consume the manifest
    // verify it, and delete it when corrupt, which makes this stale.
    result.outcome = Outcome::kStale;
  } else {
    result.outcome = Outcome::kHit;
    result.record = std::move(record);
  }

  switch (result.outcome) {
    case Outcome::kHit:
      ++stats_.hits;
      break;
    case Outcome::kMiss:
      ++stats_.misses;
      break;
    case Outcome::kCorrupt:
      ++stats_.corrupt;
      break;
    case Outcome::kStale:
      ++stats_.stale;
      break;
  }
  const std::string name(outcomeName(result.outcome));
  span.attr("outcome", name);
  if (metrics_ != nullptr) {
    metrics_->counter("store.runcache_" + name).inc();
  }
  return result;
}

void RunCache::insert(const RunRecord& record) {
  store_.setRef(refName(record.key), store_.put(record.serialize()));
}

}  // namespace rebench::store
