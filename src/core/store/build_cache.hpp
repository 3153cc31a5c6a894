// Provenance-keyed build cache (rebench::store layer 3, build side).
//
// Principle 3 ("rebuild every run") exists so the measured binary can
// never drift from the documented build steps.  The build cache keeps
// that invariant while dropping the cost: a build result may be reused
// *only* on an exact provenance-hash match —
//
//   key = hash(concretized spec DAG ∥ system-environment fingerprint
//              ∥ build-plan/recipe hash)
//
// — so any drift in the spec, the system's modules/compilers, or the
// recipe changes the key and forces a rebuild.  Reuse is verified: the
// stored record is read through ObjectStore::get (which re-hashes the
// blob) and its planHash/binaryId are checked against the requesting
// plan; anything inconsistent is treated as a miss.  A cache lives for
// one campaign and keeps the verified bytes of each record object it
// reads: `peek` and every `lookup` still read the key's ref, but re-read
// the record only when its file's stat stamp moved or was racy
// (ObjectStore::unchanged), so a rewritten record is re-read, reported
// corrupt and deleted.
//
// Lookups emit a `store.lookup` span (`key`, `outcome` attrs) and bump
// the `store.hit`/`store.miss` counters; inserts emit `store.put` events.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "core/concretizer/environment.hpp"
#include "core/pkg/build_plan.hpp"
#include "core/store/object_store.hpp"

namespace rebench::obs {
class Tracer;
class MetricsRegistry;
class ScopedSpan;
}  // namespace rebench::obs

namespace rebench::store {

/// Single-flight coordination for concurrent builders sharing one cache:
/// the first campaign to need a key becomes its *leader* and builds; the
/// others block in awaitBuilt() until the leader publishes.  A leader that
/// gives up (skipped or crashed) abandons the key instead, which bumps the
/// key's epoch and wakes the waiters with `built == false` so they can
/// re-elect a leader rather than hang.
class SingleFlight {
 public:
  /// Leader succeeded: the key's record is now in the cache.
  void publish(const std::string& key);
  /// Leader gave up without building.  No-op once published.
  void abandon(const std::string& key);

  /// Current abandonment epoch for the key (0 until first abandon).
  std::uint64_t epoch(const std::string& key) const;

  /// Blocks until the key is published (returns true) or its epoch moves
  /// past `epoch` (returns false: the observed leader abandoned;
  /// re-resolve roles and try again).
  bool awaitBuilt(const std::string& key, std::uint64_t epoch) const;

 private:
  struct State {
    bool built = false;
    std::uint64_t epoch = 0;
  };
  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  std::map<std::string, State> states_;
};

class BuildCache {
 public:
  /// `store` must outlive the cache.
  explicit BuildCache(ObjectStore& store) : store_(store) {}

  /// The provenance key gating reuse (see file comment).
  static std::string cacheKey(const std::string& dagHash,
                              const std::string& envFingerprint,
                              const std::string& planHash);

  /// Stable fingerprint of a system environment (hash of its rendered
  /// configuration document, so *any* environment edit changes it).
  static std::string environmentFingerprint(const SystemEnvironment& env);

  /// Verified lookup: nullopt on no entry, corrupt blob, or a record
  /// whose provenance does not match `plan`.  Reports through the
  /// caller's hooks (both nullable).
  std::optional<BuildRecord> lookup(const std::string& key,
                                    const BuildPlan& plan,
                                    obs::Tracer* tracer,
                                    obs::MetricsRegistry* metrics);

  void insert(const std::string& key, const BuildRecord& record,
              obs::Tracer* tracer);

  /// Emits the observability of a forced miss (span outcome "miss",
  /// `store.miss` counter, stats) without probing the store.  The
  /// executor's single-flight leader uses this: it *knows* the key is
  /// cold and must build, and probing would perturb store state.
  void recordMiss(const std::string& key, obs::Tracer* tracer,
                  obs::MetricsRegistry* metrics);

  /// Silent verified lookup: no spans, no counters, no stats, and no
  /// corruption handling.  Used by the executor's pre-pass to classify
  /// keys as warm/cold without observable side effects; the verified
  /// bytes it reads are kept for the lookups that follow.
  std::optional<BuildRecord> peek(const std::string& key,
                                  const BuildPlan& plan) const;

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t singleFlightDeduped = 0;  // builds avoided by waiting
  };
  Stats stats() const {
    std::lock_guard lock(statsMutex_);
    return stats_;
  }

  /// Credits builds that were avoided because a follower waited on a
  /// single-flight leader instead of rebuilding.
  void noteSingleFlightDeduped(std::uint64_t n);

  ObjectStore& objectStore() { return store_; }

  /// (De)serialization of build records as store blobs; public for tests.
  static std::string serializeRecord(const BuildRecord& record);
  static std::optional<BuildRecord> parseRecord(const std::string& bytes);

 private:
  /// The record `bytes` hold, shaped as a reuse, when it describes
  /// exactly `plan`; nullopt otherwise (unparseable, or drift).
  static std::optional<BuildRecord> reusable(
      const std::optional<std::string>& bytes, const BuildPlan& plan);
  /// The verified bytes of record object `hash`: the kept ones while its
  /// file is unchanged, else a verified read (through get when `repair`,
  /// which deletes a corrupt file, else peek) that replaces them.
  std::optional<std::string> verifiedBytes(const std::string& hash,
                                           bool repair) const;
  /// Ends a `store.lookup` span: its outcome, counter and stat.
  std::optional<BuildRecord> noteLookup(obs::ScopedSpan& span,
                                        const char* outcome,
                                        std::optional<BuildRecord> record,
                                        obs::MetricsRegistry* metrics);

  ObjectStore& store_;
  mutable std::mutex statsMutex_;
  Stats stats_;
  struct Verified {
    ObjectStamp stamp;
    std::string bytes;
  };
  // Held across the read, so concurrent workers share one verified read.
  mutable std::mutex verifiedMutex_;
  mutable std::map<std::string, Verified> verified_;  // by object hash
};

}  // namespace rebench::store
