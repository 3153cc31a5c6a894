// Content-addressed artifact store (rebench::store layer 1).
//
// A directory of immutable blobs named by their content hash, plus an
// append-only JSONL index that records puts, touches, refs and evictions.
// The store backs the build cache, manifest artifacts (perflogs, traces)
// and anything else worth keeping between campaigns:
//
//   DIR/objects/<hash>   one file per blob, written via tmp + atomic rename
//   DIR/index.jsonl      {"kind":"meta","schema":"rebench.store/1"}
//                        {"kind":"put","hash":H,"bytes":N,"tick":T}
//                        {"kind":"touch","hash":H,"tick":T}
//                        {"kind":"ref","name":K,"hash":H}
//                        {"kind":"evict","hash":H}
//                        {"kind":"pin","hash":H}   /  {"kind":"unpin","hash":H}
//
// Reads are *verified*: `get` re-hashes the blob and a mismatch (a
// truncated or tampered file) deletes the object and reports a miss, so a
// corrupt cache degrades to a rebuild instead of a wrong result.  A
// size cap (`maxBytes`) evicts least-recently-used objects; named refs
// (the build cache's provenance keys) are unpinned automatically when
// their target is evicted.  Pinned objects (history segments, anything
// the caller cannot afford to lose to cache pressure) are exempt from
// LRU eviction until unpinned.  The append-only index grows one line per
// touch of an evictable object; a pinned object's recency lives only in
// memory, so reading it writes nothing.  `compactIndex` rewrites the
// index down to the live state, in-memory recency included.  Blob and
// index writes are checked: a short write throws rebench::Error and
// publishes nothing.  The index is a JsonlLog (fault/journal.hpp): a torn
// tail is cut off on open, so the next append starts a fresh line.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>

#include "core/fault/journal.hpp"

namespace rebench::obs {
class Tracer;
class MetricsRegistry;
}  // namespace rebench::obs

namespace rebench::store {

inline constexpr std::string_view kStoreSchema = "rebench.store/1";

struct StoreOptions {
  /// Total blob bytes before LRU eviction kicks in; 0 = uncapped.
  std::uint64_t maxBytes = 0;
};

class ObjectStore {
 public:
  /// Opens (creating when absent) the store at `dir` and replays its
  /// index.  Index entries whose object file vanished are dropped.
  /// Throws rebench::Error when the directory or index is unusable.
  explicit ObjectStore(std::string dir, StoreOptions options = {});

  /// Content hash used for addressing (FNV-1a hex, 16 chars).
  static std::string hashBytes(std::string_view bytes);

  /// Stores `bytes`, returning their hash.  Idempotent: a blob already
  /// present is not rewritten (the put is counted as deduplicated and the
  /// object's LRU position refreshed).  May evict other objects to honour
  /// the size cap; the just-put object is never evicted by its own put.
  /// Throws rebench::Error when the blob or its index line cannot be
  /// written in full.
  std::string put(std::string_view bytes);

  /// Verified read: returns the bytes iff the blob exists and re-hashes
  /// to `hash`.  A corrupt blob is deleted and counted.  Refreshes the
  /// object's LRU position; only an unpinned object's is journaled.
  std::optional<std::string> get(const std::string& hash);

  /// Verified read with no side effects: no touch, no stats, no index
  /// writes, no corruption handling.  Used by the parallel executor's
  /// pre-pass to classify keys without perturbing LRU state.
  std::optional<std::string> peek(const std::string& hash) const;

  bool contains(const std::string& hash) const;

  /// Optional hooks (both nullable, not owned): evictions become
  /// `store.evict` events (`hash`, `bytes` attrs) and `store.evict`
  /// counter increments; corrupt blobs bump `store.corrupt`.
  void setObservability(obs::Tracer* tracer, obs::MetricsRegistry* metrics);

  /// Named mutable pointers into the store (e.g. build-cache keys,
  /// "latest manifest").  A ref to an evicted/absent object reads as
  /// unset.
  void setRef(std::string_view name, const std::string& hash);
  std::optional<std::string> ref(std::string_view name) const;

  /// Exempts an object from LRU eviction until `unpin`.  Pinning an
  /// absent hash is a no-op (nothing to protect); pins persist in the
  /// index across reopen.
  void pin(const std::string& hash);
  void unpin(const std::string& hash);
  bool pinned(const std::string& hash) const;

  /// Rewrites the append-only index down to the live state (meta + one
  /// put per surviving object + refs + pins), discarding the touch /
  /// evict / superseded-ref churn.  Tick order — and therefore LRU
  /// order — is preserved.  Returns the number of index lines written.
  std::size_t compactIndex();

  struct Stats {
    std::uint64_t puts = 0;           // total put() calls
    std::uint64_t dedupedPuts = 0;    // puts that found the blob present
    std::uint64_t evictions = 0;      // objects removed by the size cap
    std::uint64_t corrupt = 0;        // verification failures on get()
  };
  Stats stats() const {
    std::lock_guard lock(mutex_);
    return stats_;
  }

  std::size_t objectCount() const {
    std::lock_guard lock(mutex_);
    return entries_.size();
  }
  std::uint64_t totalBytes() const {
    std::lock_guard lock(mutex_);
    return totalBytes_;
  }
  const std::string& dir() const { return dir_; }
  std::string objectPath(const std::string& hash) const;

 private:
  struct Entry {
    std::uint64_t bytes = 0;
    std::uint64_t lastUse = 0;  // logical tick, higher = more recent
  };

  /// Applies one replayed index record.
  void replay(const obs::json::Value& record);
  // Private helpers assume mutex_ is held by the caller.
  void touch(const std::string& hash);
  void removeObject(const std::string& hash);
  /// Evicts LRU objects until `incoming` more bytes fit; never evicts
  /// `protect`.
  void evictToFit(std::uint64_t incoming, const std::string& protect);

  // Serializes all public operations: the store is shared by concurrent
  // campaign workers in the parallel executor.
  mutable std::mutex mutex_;
  std::string dir_;
  StoreOptions options_;
  obs::Tracer* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  std::map<std::string, Entry> entries_;
  std::map<std::string, std::string, std::less<>> refs_;  // name -> hash
  std::set<std::string, std::less<>> pinned_;             // eviction-exempt
  std::uint64_t totalBytes_ = 0;
  std::uint64_t tick_ = 0;
  Stats stats_;
  JsonlLog index_;  // last: replaying it fills the members above
};

}  // namespace rebench::store
