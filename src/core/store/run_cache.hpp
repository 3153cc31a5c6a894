// Run-level memoization (rebench::store layer 2).
//
// The BuildCache memoizes *builds*; the RunCache memoizes whole campaign
// executions for the serve daemon.  Key = hash(invocation bytes + system
// environment fingerprint + system configuration + concretized spec DAG
// hashes + repeat policy) — computed by service::runKeyFor — and the
// value is a small record citing the recorded campaign manifest and
// perflog blobs in the object store.  A submission whose key is warm is
// answered from the record without re-executing anything; any drift in
// the key (new compiler, changed repeats, edited spec) misses and forces
// a fresh run.
//
// Lookups are *verified* like every other store read: a record blob that
// fails hash verification is reported kCorrupt (the store already
// deleted it), and a record whose cited manifest no longer exists on
// disk is kStale — both degrade to a re-execution, never a wrong
// verdict.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace rebench::obs {
class Tracer;
class MetricsRegistry;
}  // namespace rebench::obs

namespace rebench::store {

class ObjectStore;

inline constexpr std::string_view kRunCacheSchema = "rebench.runcache/1";

/// The memoized outcome of one executed campaign.
struct RunRecord {
  std::string key;           // run-memoization key (runKeyFor)
  std::string verdict;       // "ran:clean" | "ran:regressed"
  std::string manifestHash;  // campaign manifest content hash
  std::string perflogHash;   // perflog artifact hash in the store
  int runs = 0;              // executed (test, target, repeat) tuples
  int regressions = 0;       // gate-flagged series count at record time

  /// One-line JSON, deterministic key order.
  std::string serialize() const;
  /// Parses serialize() output; throws rebench::ParseError / Error.
  static RunRecord parse(const std::string& text);
};

/// Store-backed run memo table.  Records live as blobs addressed via
/// "runcache/<key>" named refs, so they reopen with the store.
class RunCache {
 public:
  explicit RunCache(ObjectStore& store) : store_(store) {}

  /// Both nullable, not owned.  Lookups emit `store.runcache` spans
  /// (attrs: key, outcome) and tick store.runcache_{hit,miss,corrupt,
  /// stale} counters.
  void setObservability(obs::Tracer* tracer, obs::MetricsRegistry* metrics) {
    tracer_ = tracer;
    metrics_ = metrics;
  }

  enum class Outcome { kHit, kMiss, kCorrupt, kStale };

  struct Lookup {
    Outcome outcome = Outcome::kMiss;
    std::optional<RunRecord> record;  // set iff outcome == kHit
    bool hit() const { return outcome == Outcome::kHit; }
  };

  /// Verified lookup of `key`.  kCorrupt when the record blob failed
  /// verification; kStale when the record parses but its cited manifest
  /// file is gone (treated as a miss by callers, but distinguishable for
  /// degraded-mode accounting).
  Lookup lookup(const std::string& key);

  /// Memoizes `record` under its key: blob put + named ref.
  void insert(const RunRecord& record);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t corrupt = 0;
    std::uint64_t stale = 0;
  };
  const Stats& stats() const { return stats_; }

  static std::string refName(std::string_view key);
  static std::string_view outcomeName(Outcome outcome);

 private:
  ObjectStore& store_;
  obs::Tracer* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  Stats stats_;
};

}  // namespace rebench::store
