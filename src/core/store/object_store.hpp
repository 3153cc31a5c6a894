// Content-addressed artifact store (rebench::store layer 1), in git's
// layout.  It backs the build cache, the run cache, the history chain
// and campaign artifacts (manifests, perflogs, traces):
//
//   DIR/objects/<hash>   one immutable blob per content hash
//   DIR/refs/<name>      the hash a named ref points at, and a '\n'
//
// Blobs and refs are published whole with writeFileAtomic, so a crash or
// a short write leaves the old file.  Reads are *verified*: `get`
// re-hashes the blob and deletes a mismatch (a truncated or tampered
// file), so a corrupt cache degrades to a rebuild instead of a wrong
// result; that delete is the only write a read makes.  A blob or ref
// that cannot be read throws and stays (DESIGN.md §10).  A long-lived
// reader may stamp a verified read with the file's stat (ObjectStamp)
// and skip re-reading the object while `unchanged` holds.  Nothing is
// evicted, so disk use is unbounded (DESIGN.md §10).  Two older layouts
// are converted on first open.  A rebench.store/1 index.jsonl (puts,
// touches, refs, pins and evictions): its live refs become ref files and
// the index is kept as index.jsonl.v1.  A manifests/ directory of
// campaign-<hash>.json files and a latest.json copy: each file whose
// bytes hash to its name becomes an object, latest.json's hash becomes
// the manifests/latest ref, and the directory is kept as manifests.v1.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

namespace rebench::obs {
class MetricsRegistry;
}  // namespace rebench::obs

namespace rebench::store {

/// The stat fingerprint an object file was verified under.  Objects are
/// immutable, so while the fingerprint holds the verified bytes do too.
struct ObjectStamp {
  std::string hash;
  std::uint64_t size = 0;
  std::uint64_t inode = 0;
  std::int64_t mtimeNs = 0;
  std::int64_t ctimeNs = 0;
  /// The ctime was not at least one CLOCK_REALTIME_COARSE tick older than
  /// the clock read before the stat: a rewrite in that same tick could
  /// leave every field above unchanged, so the object must be re-read.
  bool racy = true;
};

class ObjectStore {
 public:
  /// Opens (creating when absent) the store at `dir`, converting the
  /// older layouts on first open.  Throws rebench::Error when the
  /// directory is unusable.
  explicit ObjectStore(std::string dir);

  /// Content hash used for addressing (FNV-1a hex, 16 chars).
  static std::string hashBytes(std::string_view bytes);
  /// Whether `text` has the shape hashBytes returns.
  static bool isHash(std::string_view text);

  /// Stores `bytes`, returning their hash.  Idempotent: a blob already
  /// present is not rewritten (the put is counted as deduplicated).
  /// `wrote`, when given, is set to whether this call published the blob.
  /// Throws rebench::Error when the blob cannot be written in full.
  std::string put(std::string_view bytes, bool* wrote = nullptr);

  /// Verified read: returns the bytes iff the blob exists and re-hashes
  /// to `hash`.  A corrupt blob is deleted and counted; one that cannot
  /// be read throws rebench::Error and stays.  `stamp`, when given, is
  /// filled from an fstat of the descriptor the bytes were read from.
  std::optional<std::string> get(const std::string& hash,
                                 ObjectStamp* stamp = nullptr);

  /// Verified read without corruption handling (a mismatch is left in
  /// place), throwing and stamped as get is.  Used by the parallel
  /// executor's pre-pass to classify keys.
  std::optional<std::string> peek(const std::string& hash,
                                  ObjectStamp* stamp = nullptr) const;

  /// Whether the object file is still the one `stamp` was verified
  /// under: the stamp is not racy and a stat matches its size, inode,
  /// mtime and ctime.  Only then may its verified bytes be reused unread.
  bool unchanged(const ObjectStamp& stamp) const;

  /// Whether a blob is stored under `hash`: one stat, no verification.
  bool contains(const std::string& hash) const;

  /// Optional hook (nullable, not owned): corrupt blobs bump
  /// `store.corrupt`.
  void setObservability(obs::MetricsRegistry* metrics);

  /// Named mutable pointers into the store (e.g. build-cache keys, the
  /// history head).  setRef publishes DIR/refs/<name> atomically,
  /// creating its directory on first use.  ref() reads the file: an
  /// absent or malformed file, or one naming a missing object, reads as
  /// unset; one that exists but cannot be read throws rebench::Error.
  void setRef(std::string_view name, const std::string& hash);
  std::optional<std::string> ref(std::string_view name) const;

  /// Publishes `hash` under `name` only if the ref still names `expected`
  /// ("" = unset, read as ref() does), holding an flock on
  /// DIR/refs/<name>.lock across the re-read and the publish.  False when
  /// another writer moved the ref first.
  bool compareAndSetRef(std::string_view name, std::string_view expected,
                        const std::string& hash);

  struct Stats {
    std::uint64_t puts = 0;         // total put() calls
    std::uint64_t dedupedPuts = 0;  // puts that found the blob present
    std::uint64_t reads = 0;        // verified reads (get() and peek())
    std::uint64_t corrupt = 0;      // verification failures on get()
  };
  Stats stats() const {
    std::lock_guard lock(mutex_);
    return stats_;
  }

  /// Blobs and their total size, from a listing of DIR/objects/.
  std::size_t objectCount() const;
  std::uint64_t totalBytes() const;

  const std::string& dir() const { return dir_; }
  std::string objectPath(const std::string& hash) const;

 private:
  std::string refPath(std::string_view name) const;
  /// Turn a rebench.store/1 index into ref files and a manifests/
  /// directory into objects and a ref (see the file comment).
  void convertIndex();
  void convertManifests();

  std::string dir_;
  // Guards metrics_ and stats_: the store is shared by concurrent
  // campaign workers in the parallel executor.  Everything else lives in
  // the filesystem, whose renames make each publication atomic.
  mutable std::mutex mutex_;
  obs::MetricsRegistry* metrics_ = nullptr;
  mutable Stats stats_;
};

}  // namespace rebench::store
