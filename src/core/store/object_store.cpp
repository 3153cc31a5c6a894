#include "core/store/object_store.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <ctime>
#include <filesystem>
#include <iterator>
#include <map>
#include <optional>
#include <vector>

#include "core/fault/journal.hpp"
#include "core/obs/json.hpp"
#include "core/obs/metrics.hpp"
#include "core/store/manifest.hpp"
#include "core/util/error.hpp"
#include "core/util/hash.hpp"

namespace rebench::store {

namespace fs = std::filesystem;

namespace {

constexpr std::size_t kHashLength = 16;

/// Creates the directory of the ref file at `path`; a failure surfaces
/// as the publish's own error.
void makeRefDir(const std::string& path) {
  std::error_code ec;
  createDirectories(fs::path(path).parent_path(), ec);
}

std::int64_t nanoseconds(const timespec& time) {
  return static_cast<std::int64_t>(time.tv_sec) * 1'000'000'000 +
         time.tv_nsec;
}

/// CLOCK_REALTIME_COARSE's tick: the clock file timestamps are taken from.
std::int64_t coarseTickNs() {
  static const std::int64_t tick = [] {
    timespec resolution{};
    ::clock_getres(CLOCK_REALTIME_COARSE, &resolution);
    return std::max<std::int64_t>(nanoseconds(resolution), 1);
  }();
  return tick;
}

/// The stamp of the object `hash` whose file `info` describes.
ObjectStamp stampOf(const std::string& hash, const struct stat& info) {
  return {hash, static_cast<std::uint64_t>(info.st_size),
          static_cast<std::uint64_t>(info.st_ino), nanoseconds(info.st_mtim),
          nanoseconds(info.st_ctim)};
}

bool sameFile(const ObjectStamp& a, const ObjectStamp& b) {
  return a.size == b.size && a.inode == b.inode && a.mtimeNs == b.mtimeNs &&
         a.ctimeNs == b.ctimeNs;
}

}  // namespace

std::string ObjectStore::hashBytes(std::string_view bytes) {
  return Hasher{}.update(bytes).hex();
}

bool ObjectStore::isHash(std::string_view text) {
  return text.size() == kHashLength &&
         text.find_first_not_of("0123456789abcdef") == text.npos;
}

std::string ObjectStore::objectPath(const std::string& hash) const {
  return (fs::path(dir_) / "objects" / hash).string();
}

std::string ObjectStore::refPath(std::string_view name) const {
  return (fs::path(dir_) / "refs" / name).string();
}

ObjectStore::ObjectStore(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  createDirectories(fs::path(dir_) / "objects", ec);
  if (ec) {
    throw Error("cannot create object store at '" + dir_ +
                "': " + ec.message());
  }
  convertIndex();
  convertManifests();
}

void ObjectStore::convertIndex() {
  const std::string index = (fs::path(dir_) / "index.jsonl").string();
  if (!fs::exists(index)) return;
  // Converters take turns on the file the index becomes: the rename that
  // ends a conversion replaces the lock file, and a converter that waited
  // finds the index gone.
  const FileLock lock(index + ".v1");
  if (!fs::exists(index)) return;
  std::map<std::string, std::string> refs;  // the last line for a name wins
  JsonlLog(index, "rebench.store/1", Durability::kBuffered,
           [&refs](const obs::json::Value& record, std::string_view) {
             if (record.stringOr("kind", "") == "ref") {
               refs[record.stringOr("name", "")] = record.stringOr("hash", "");
             }
           });
  for (const auto& [name, hash] : refs) {
    if (!name.empty() && isHash(hash) && contains(hash)) setRef(name, hash);
  }
  std::error_code ec;
  renameFile(index, index + ".v1", ec);
  if (ec) {
    throw Error("cannot retire the store index '" + index +
                "': " + ec.message());
  }
}

void ObjectStore::convertManifests() {
  const fs::path manifests = fs::path(dir_) / "manifests";
  if (!fs::exists(manifests)) return;
  // Converters take turns; one that waited finds the directory gone.
  const FileLock lock((fs::path(dir_) / "manifests.lock").string());
  if (!fs::exists(manifests)) return;
  std::vector<fs::path> files;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(manifests, ec)) {
    files.push_back(entry.path());
  }
  std::optional<std::string> latest;
  for (const fs::path& file : files) {
    const std::string name = file.filename().string();
    const std::optional<std::string> bytes = readFileIfPresent(file);
    if (!bytes) continue;
    if (name == "latest.json") {
      latest = hashBytes(*bytes);
    } else if (const std::string named = hashNamedBy(name);
               !named.empty() && hashBytes(*bytes) == named) {
      put(*bytes);
    }
  }
  if (latest && contains(*latest)) setRef(kLatestManifestRef, *latest);
  // File by file, so a directory left by an interrupted conversion (or
  // an older rebench writing here again) merges into manifests.v1.
  const fs::path retired = fs::path(dir_) / "manifests.v1";
  createDirectories(retired, ec);
  for (const fs::path& file : files) {
    renameFile(file, retired / file.filename(), ec);
    if (ec) {
      throw Error("cannot retire '" + file.string() + "' to '" +
                  retired.string() + "': " + ec.message());
    }
  }
  fs::remove(manifests, ec);
}

void ObjectStore::setObservability(obs::MetricsRegistry* metrics) {
  std::lock_guard lock(mutex_);
  metrics_ = metrics;
}

std::string ObjectStore::put(std::string_view bytes, bool* wrote) {
  const std::string hash = hashBytes(bytes);
  const bool present = contains(hash);
  {
    std::lock_guard lock(mutex_);
    ++stats_.puts;
    if (present) ++stats_.dedupedPuts;
  }
  if (wrote != nullptr) *wrote = !present;
  if (present) return hash;
  // Atomic publication: a concurrent writer of the same content races to
  // an identical file, and the rename makes whichever lands last win
  // whole.
  writeFileAtomic(objectPath(hash), bytes, Durability::kBuffered,
                  (fs::path(dir_) / ("tmp-" + hash)).string());
  return hash;
}

std::optional<std::string> ObjectStore::get(const std::string& hash,
                                            ObjectStamp* stamp) {
  std::optional<std::string> content = peek(hash, stamp);
  // Truncated or tampered blob: its bytes were read and do not match
  // their address, so drop it and the caller rebuilds.
  std::error_code ec;
  if (content || !isHash(hash) || !fs::remove(objectPath(hash), ec)) {
    return content;
  }
  std::lock_guard lock(mutex_);
  ++stats_.corrupt;
  if (metrics_ != nullptr) metrics_->counter("store.corrupt").inc();
  return std::nullopt;
}

std::optional<std::string> ObjectStore::peek(const std::string& hash,
                                             ObjectStamp* stamp) const {
  // The clock is read before the fstat of the descriptor read: a
  // rewrite after it lands in a later tick, so it moves the ctime of any
  // file older than a tick.  The path is built for each call, not held
  // across the read: holding it raised history_check's peak RSS by ~0.3
  // MB (bench/e2e, 1000 segments).
  timespec now{};
  struct stat info {};
  if (stamp != nullptr) ::clock_gettime(CLOCK_REALTIME_COARSE, &now);
  std::optional<std::string> content =
      readFileIfPresent(objectPath(hash), std::string::npos, &info);
  {
    std::lock_guard lock(mutex_);
    ++stats_.reads;
  }
  if (stamp != nullptr) {
    *stamp = stampOf(hash, info);
    stamp->racy =
        !content || stamp->ctimeNs > nanoseconds(now) - coarseTickNs();
  }
  if (!content || hashBytes(*content) != hash) return std::nullopt;
  return content;
}

bool ObjectStore::unchanged(const ObjectStamp& stamp) const {
  struct stat info {};
  return !stamp.racy &&
         ::stat(objectPath(stamp.hash).c_str(), &info) == 0 &&
         sameFile(stampOf(stamp.hash, info), stamp);
}

bool ObjectStore::contains(const std::string& hash) const {
  return isHash(hash) && fs::exists(objectPath(hash));
}

std::size_t ObjectStore::objectCount() const {
  std::error_code ec;
  return static_cast<std::size_t>(std::distance(
      fs::directory_iterator(fs::path(dir_) / "objects", ec), {}));
}

std::uint64_t ObjectStore::totalBytes() const {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       fs::directory_iterator(fs::path(dir_) / "objects", ec)) {
    const std::uintmax_t size = entry.file_size(ec);
    if (!ec) total += size;
  }
  return total;
}

void ObjectStore::setRef(std::string_view name, const std::string& hash) {
  REBENCH_REQUIRE(isHash(hash));
  const std::string path = refPath(name);
  makeRefDir(path);
  writeFileAtomic(path, hash + "\n", Durability::kBuffered);
}

std::optional<std::string> ObjectStore::ref(std::string_view name) const {
  std::optional<std::string> hash =
      readFileIfPresent(refPath(name), kHashLength + 2);
  // Exactly one hash and a '\n'; anything else is a foreign file.
  if (!hash || hash->size() != kHashLength + 1 || hash->back() != '\n') {
    return std::nullopt;
  }
  hash->pop_back();
  // A ref whose target was deleted reads as unset.
  if (!isHash(*hash) || !contains(*hash)) return std::nullopt;
  return hash;
}

bool ObjectStore::compareAndSetRef(std::string_view name,
                                   std::string_view expected,
                                   const std::string& hash) {
  makeRefDir(refPath(name));
  const FileLock lock(refPath(name) + ".lock");
  if (ref(name).value_or("") != expected) return false;
  setRef(name, hash);
  return true;
}

}  // namespace rebench::store
