#include "core/store/object_store.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "core/obs/json.hpp"
#include "core/obs/metrics.hpp"
#include "core/obs/trace.hpp"
#include "core/util/error.hpp"
#include "core/util/hash.hpp"

namespace rebench::store {

namespace fs = std::filesystem;

std::string ObjectStore::hashBytes(std::string_view bytes) {
  return Hasher{}.update(bytes).hex();
}

std::string ObjectStore::objectPath(const std::string& hash) const {
  return (fs::path(dir_) / "objects" / hash).string();
}

ObjectStore::ObjectStore(std::string dir, StoreOptions options)
    : dir_(std::move(dir)),
      options_(options),
      index_((fs::path(dir_) / "index.jsonl").string(), kStoreSchema,
             Durability::kBuffered,
             [this](const obs::json::Value& record) { replay(record); }) {
  std::error_code ec;
  fs::create_directories(fs::path(dir_) / "objects", ec);
  if (ec) {
    throw Error("cannot create object store at '" + dir_ +
                "': " + ec.message());
  }
  // Drop entries whose blob vanished behind our back (manual deletion);
  // the store never trusts the index over the filesystem.
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (!fs::exists(objectPath(it->first))) {
      it = entries_.erase(it);
    } else {
      totalBytes_ += it->second.bytes;
      ++it;
    }
  }
  // A pin on a vanished object protects nothing.
  for (auto it = pinned_.begin(); it != pinned_.end();) {
    if (!entries_.contains(*it)) {
      it = pinned_.erase(it);
    } else {
      ++it;
    }
  }
}

void ObjectStore::replay(const obs::json::Value& record) {
  const std::string kind = record.stringOr("kind", "");
  if (kind == "put") {
    const std::string hash = record.stringOr("hash", "");
    Entry entry;
    entry.bytes = static_cast<std::uint64_t>(record.numberOr("bytes", 0));
    entry.lastUse = static_cast<std::uint64_t>(record.numberOr("tick", 0));
    entries_[hash] = entry;
    tick_ = std::max(tick_, entry.lastUse + 1);
  } else if (kind == "touch") {
    auto it = entries_.find(record.stringOr("hash", ""));
    if (it != entries_.end()) {
      it->second.lastUse =
          static_cast<std::uint64_t>(record.numberOr("tick", 0));
      tick_ = std::max(tick_, it->second.lastUse + 1);
    }
  } else if (kind == "ref") {
    refs_[record.stringOr("name", "")] = record.stringOr("hash", "");
  } else if (kind == "evict") {
    entries_.erase(record.stringOr("hash", ""));
  } else if (kind == "pin") {
    pinned_.insert(record.stringOr("hash", ""));
  } else if (kind == "unpin") {
    pinned_.erase(record.stringOr("hash", ""));
  }
}

void ObjectStore::touch(const std::string& hash) {
  auto it = entries_.find(hash);
  if (it == entries_.end()) return;
  it->second.lastUse = tick_++;
  // Recency only steers eviction, and pinned objects are never evicted:
  // their touches stay in memory (and in compactIndex), so verified
  // reads of history segments and run-cache records write nothing.
  if (pinned_.contains(hash)) return;
  index_.append("{\"kind\":\"touch\",\"hash\":" + obs::json::quote(hash) +
                ",\"tick\":" + std::to_string(it->second.lastUse) + "}");
}

void ObjectStore::removeObject(const std::string& hash) {
  auto it = entries_.find(hash);
  if (it != entries_.end()) {
    totalBytes_ -= it->second.bytes;
    entries_.erase(it);
  }
  std::error_code ec;
  fs::remove(objectPath(hash), ec);
  index_.append("{\"kind\":\"evict\",\"hash\":" + obs::json::quote(hash) +
                "}");
}

void ObjectStore::evictToFit(std::uint64_t incoming,
                             const std::string& protect) {
  if (options_.maxBytes == 0) return;
  while (totalBytes_ + incoming > options_.maxBytes && !entries_.empty()) {
    // Least-recently-used victim, skipping the object being protected
    // and anything pinned.
    const Entry* oldest = nullptr;
    std::string victim;
    for (const auto& [hash, entry] : entries_) {
      if (hash == protect || pinned_.contains(hash)) continue;
      if (oldest == nullptr || entry.lastUse < oldest->lastUse) {
        oldest = &entry;
        victim = hash;
      }
    }
    if (oldest == nullptr) return;  // only protected/pinned objects remain
    const std::uint64_t victimBytes = oldest->bytes;
    removeObject(victim);
    ++stats_.evictions;
    if (tracer_ != nullptr) {
      tracer_->event("store.evict",
                     {{"hash", victim},
                      {"bytes", std::to_string(victimBytes)}});
    }
    if (metrics_ != nullptr) metrics_->counter("store.evict").inc();
  }
}

void ObjectStore::setObservability(obs::Tracer* tracer,
                                   obs::MetricsRegistry* metrics) {
  std::lock_guard lock(mutex_);
  tracer_ = tracer;
  metrics_ = metrics;
}

std::string ObjectStore::put(std::string_view bytes) {
  std::lock_guard lock(mutex_);
  const std::string hash = hashBytes(bytes);
  ++stats_.puts;
  if (auto it = entries_.find(hash);
      it != entries_.end() && fs::exists(objectPath(hash))) {
    ++stats_.dedupedPuts;
    touch(hash);
    return hash;
  }
  evictToFit(bytes.size(), hash);
  // Atomic publication: a concurrent writer of the same content races to
  // an identical file, and the rename makes whichever lands last win
  // whole.
  writeFileAtomic(objectPath(hash), bytes, Durability::kBuffered,
                  (fs::path(dir_) / ("tmp-" + hash)).string());
  Entry entry;
  entry.bytes = bytes.size();
  entry.lastUse = tick_++;
  // Indexed before it is live in memory: a failed append leaves an
  // unindexed blob that the next put of these bytes overwrites.
  index_.append("{\"kind\":\"put\",\"hash\":" + obs::json::quote(hash) +
                ",\"bytes\":" + std::to_string(entry.bytes) +
                ",\"tick\":" + std::to_string(entry.lastUse) + "}");
  totalBytes_ += entry.bytes;
  entries_[hash] = entry;
  return hash;
}

std::optional<std::string> ObjectStore::get(const std::string& hash) {
  std::lock_guard lock(mutex_);
  const std::string path = objectPath(hash);
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream bytes;
  bytes << in.rdbuf();
  std::string content = bytes.str();
  if (hashBytes(content) != hash) {
    // Truncated or tampered blob: drop it so the caller rebuilds rather
    // than trusting bytes that no longer match their address.
    ++stats_.corrupt;
    removeObject(hash);
    if (metrics_ != nullptr) metrics_->counter("store.corrupt").inc();
    return std::nullopt;
  }
  touch(hash);
  return content;
}

std::optional<std::string> ObjectStore::peek(const std::string& hash) const {
  std::lock_guard lock(mutex_);
  if (!entries_.contains(hash)) return std::nullopt;
  std::ifstream in(objectPath(hash), std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream bytes;
  bytes << in.rdbuf();
  std::string content = bytes.str();
  if (hashBytes(content) != hash) return std::nullopt;
  return content;
}

bool ObjectStore::contains(const std::string& hash) const {
  std::lock_guard lock(mutex_);
  return entries_.contains(hash) && fs::exists(objectPath(hash));
}

void ObjectStore::setRef(std::string_view name, const std::string& hash) {
  std::lock_guard lock(mutex_);
  index_.append("{\"kind\":\"ref\",\"name\":" + obs::json::quote(name) +
                ",\"hash\":" + obs::json::quote(hash) + "}");
  refs_[std::string(name)] = hash;
}

std::optional<std::string> ObjectStore::ref(std::string_view name) const {
  std::lock_guard lock(mutex_);
  auto it = refs_.find(name);
  if (it == refs_.end()) return std::nullopt;
  // A ref whose target was evicted or deleted reads as unset.
  if (!entries_.contains(it->second)) return std::nullopt;
  return it->second;
}

void ObjectStore::pin(const std::string& hash) {
  std::lock_guard lock(mutex_);
  if (!entries_.contains(hash)) return;  // nothing to protect
  if (pinned_.contains(hash)) return;
  index_.append("{\"kind\":\"pin\",\"hash\":" + obs::json::quote(hash) +
                "}");
  pinned_.insert(hash);
}

void ObjectStore::unpin(const std::string& hash) {
  std::lock_guard lock(mutex_);
  if (!pinned_.contains(hash)) return;
  index_.append("{\"kind\":\"unpin\",\"hash\":" + obs::json::quote(hash) +
                "}");
  pinned_.erase(hash);
}

bool ObjectStore::pinned(const std::string& hash) const {
  std::lock_guard lock(mutex_);
  return pinned_.contains(hash);
}

std::size_t ObjectStore::compactIndex() {
  std::lock_guard lock(mutex_);
  // Puts must be replayed in tick order so a future reopen reconstructs
  // the same LRU ordering the live store has now.
  std::vector<std::pair<std::uint64_t, const std::string*>> byTick;
  byTick.reserve(entries_.size());
  for (const auto& [hash, entry] : entries_) {
    byTick.emplace_back(entry.lastUse, &hash);
  }
  std::sort(byTick.begin(), byTick.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first < b.first
                                        : *a.second < *b.second;
            });
  std::ostringstream out;
  std::size_t lines = 0;
  out << "{\"kind\":\"meta\",\"schema\":" << obs::json::quote(kStoreSchema)
      << "}\n";
  ++lines;
  for (const auto& [tick, hash] : byTick) {
    out << "{\"kind\":\"put\",\"hash\":" << obs::json::quote(*hash)
        << ",\"bytes\":" << entries_.at(*hash).bytes
        << ",\"tick\":" << tick << "}\n";
    ++lines;
  }
  for (const auto& [name, hash] : refs_) {
    out << "{\"kind\":\"ref\",\"name\":" << obs::json::quote(name)
        << ",\"hash\":" << obs::json::quote(hash) << "}\n";
    ++lines;
  }
  for (const std::string& hash : pinned_) {
    out << "{\"kind\":\"pin\",\"hash\":" << obs::json::quote(hash) << "}\n";
    ++lines;
  }
  // A crash mid-compaction leaves either the old index or the new one,
  // never a torn file.
  writeFileAtomic(index_.path(), out.str(), Durability::kBuffered,
                  index_.path() + ".compact");
  return lines;
}

}  // namespace rebench::store
