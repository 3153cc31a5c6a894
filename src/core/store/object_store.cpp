#include "core/store/object_store.hpp"

#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>

#include "core/fault/journal.hpp"
#include "core/obs/json.hpp"
#include "core/obs/metrics.hpp"
#include "core/util/error.hpp"
#include "core/util/hash.hpp"

namespace rebench::store {

namespace fs = std::filesystem;

namespace {

constexpr std::size_t kHashLength = 16;

bool isHash(std::string_view text) {
  return text.size() == kHashLength &&
         text.find_first_not_of("0123456789abcdef") == text.npos;
}

/// Creates the directory of the ref file at `path`; a failure surfaces
/// as the publish's own error.
void makeRefDir(const std::string& path) {
  std::error_code ec;
  fs::create_directories(fs::path(path).parent_path(), ec);
}

}  // namespace

std::string ObjectStore::hashBytes(std::string_view bytes) {
  return Hasher{}.update(bytes).hex();
}

std::string ObjectStore::objectPath(const std::string& hash) const {
  return (fs::path(dir_) / "objects" / hash).string();
}

std::string ObjectStore::refPath(std::string_view name) const {
  return (fs::path(dir_) / "refs" / name).string();
}

ObjectStore::ObjectStore(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(fs::path(dir_) / "objects", ec);
  if (ec) {
    throw Error("cannot create object store at '" + dir_ +
                "': " + ec.message());
  }
  convertIndex();
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
  fs::rename(index, index + ".v1", ec);
  if (ec) {
    throw Error("cannot retire the store index '" + index +
                "': " + ec.message());
  }
}

void ObjectStore::setObservability(obs::MetricsRegistry* metrics) {
  std::lock_guard lock(mutex_);
  metrics_ = metrics;
}

std::string ObjectStore::put(std::string_view bytes) {
  const std::string hash = hashBytes(bytes);
  const bool present = contains(hash);
  {
    std::lock_guard lock(mutex_);
    ++stats_.puts;
    if (present) ++stats_.dedupedPuts;
  }
  if (present) return hash;
  // Atomic publication: a concurrent writer of the same content races to
  // an identical file, and the rename makes whichever lands last win
  // whole.
  writeFileAtomic(objectPath(hash), bytes, Durability::kBuffered,
                  (fs::path(dir_) / ("tmp-" + hash)).string());
  return hash;
}

std::optional<std::string> ObjectStore::get(const std::string& hash) {
  std::optional<std::string> content = peek(hash);
  // Truncated or tampered blob: drop it so the caller rebuilds rather
  // than trusting bytes that no longer match their address.
  std::error_code ec;
  if (content || !fs::remove(objectPath(hash), ec)) return content;
  std::lock_guard lock(mutex_);
  ++stats_.corrupt;
  if (metrics_ != nullptr) metrics_->counter("store.corrupt").inc();
  return std::nullopt;
}

std::optional<std::string> ObjectStore::peek(const std::string& hash) const {
  std::ifstream in(objectPath(hash), std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  std::string content = bytes.str();
  if (!in || hashBytes(content) != hash) return std::nullopt;
  return content;
}

bool ObjectStore::contains(const std::string& hash) const {
  return fs::exists(objectPath(hash));
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
  std::ifstream in(refPath(name), std::ios::binary);
  std::string hash(kHashLength + 2, '\0');
  in.read(hash.data(), static_cast<std::streamsize>(hash.size()));
  // Exactly one hash and a '\n'; anything else is a foreign file.
  if (in.gcount() != static_cast<std::streamsize>(kHashLength + 1) ||
      hash[kHashLength] != '\n') {
    return std::nullopt;
  }
  hash.resize(kHashLength);
  // A ref whose target was deleted reads as unset.
  if (!isHash(hash) || !contains(hash)) return std::nullopt;
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
