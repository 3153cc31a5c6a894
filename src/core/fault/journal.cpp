#include "core/fault/journal.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <filesystem>
#include <fstream>

#include "core/util/error.hpp"
#include "core/util/strings.hpp"

namespace rebench {

namespace {

namespace fs = std::filesystem;

/// Writes all of `bytes` to `fd`, retrying short writes and EINTR, then
/// fsyncs when `durability` asks for it.  False on any failure.
bool writeAll(int fd, std::string_view bytes, Durability durability) {
  while (!bytes.empty()) {
    const ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return durability == Durability::kBuffered || ::fsync(fd) == 0;
}

}  // namespace

void writeFileAtomic(const std::string& path, std::string_view bytes,
                     Durability durability, std::string_view tmp) {
  // Unique per writer, so concurrent publishers of one path never write
  // or rename each other's temp file.
  static std::atomic<std::uint64_t> published{0};
  const std::string tmpPath =
      (tmp.empty() ? path + ".tmp" : std::string(tmp)) + "." +
      std::to_string(::getpid()) + "." +
      std::to_string(published.fetch_add(1, std::memory_order_relaxed));
  const int fd =
      ::open(tmpPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) throw Error("cannot create '" + tmpPath + "'");
  const bool written = writeAll(fd, bytes, durability);
  std::error_code ec;
  if (::close(fd) != 0 || !written) {
    fs::remove(tmpPath, ec);
    throw Error("cannot write '" + tmpPath + "'");
  }
  fs::rename(tmpPath, path, ec);
  if (ec) {
    std::error_code ignored;
    fs::remove(tmpPath, ignored);
    throw Error("cannot rename '" + tmpPath + "' to '" + path +
                "': " + ec.message());
  }
}

void durableWriteFile(const std::string& path, std::string_view bytes) {
  writeFileAtomic(path, bytes, Durability::kFsync);
}

FileLock::FileLock(const std::string& path, Mode mode)
    : fd_(::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644)) {
  if (fd_ < 0) throw Error("cannot open lock file '" + path + "'");
  const int operation = LOCK_EX | (mode == Mode::kTry ? LOCK_NB : 0);
  while (::flock(fd_, operation) != 0) {
    if (errno == EINTR) continue;
    const bool busy = errno == EWOULDBLOCK;
    ::close(fd_);
    fd_ = -1;
    if (busy) return;
    throw Error("cannot lock '" + path + "'");
  }
}

FileLock::~FileLock() {
  if (fd_ >= 0) ::close(fd_);
}

JsonlLog::JsonlLog(std::string path, std::string_view schema,
                   Durability durability, const Replay& replay)
    : path_(std::move(path)),
      meta_("{\"kind\":\"meta\",\"schema\":" + obs::json::quote(schema) +
            "}"),
      durability_(durability) {
  std::error_code ec;
  fs::create_directories(fs::path(path_).parent_path(), ec);
  if (ec) {
    throw Error("cannot create the directory of '" + path_ +
                "': " + ec.message());
  }
  if (!fs::exists(path_)) {
    append(meta_);
    return;
  }
  std::ifstream in(path_, std::ios::binary);
  if (!in) throw Error("cannot read '" + path_ + "'");
  std::string line;
  std::string records;  // what a repair keeps: the replayed lines
  bool unterminated = false;
  while (std::getline(in, line)) {
    unterminated = in.eof();
    if (str::trim(line).empty()) continue;
    obs::json::Value record;
    try {
      record = obs::json::parse(line);
    } catch (const ParseError&) {
      // The torn tail a crash mid-append leaves behind: the record it
      // belonged to was never acknowledged.
      ++corruptLines_;
      continue;
    }
    if (!record.isObject()) continue;
    if (record.stringOr("kind", "") != "meta") {
      replay(record, line);
      records += line;
      records += '\n';
    } else if (const std::string found = record.stringOr("schema", "");
               found != schema) {
      throw Error("'" + path_ + "' has schema '" + found + "' (expected '" +
                  std::string(schema) + "')");
    }
  }
  // An append after a torn tail would glue onto the fragment and be lost
  // on the next replay.
  if (corruptLines_ > 0 || unterminated) rewrite(records);
}

void JsonlLog::append(std::string_view line) const {
  std::string bytes(line);
  bytes += '\n';
  const int fd =
      ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) throw Error("cannot open '" + path_ + "' for append");
  const off_t before = ::lseek(fd, 0, SEEK_END);
  const bool written = before >= 0 && writeAll(fd, bytes, durability_);
  if (::close(fd) == 0 && written) return;
  // Cut a torn line back off so the file stays byte-identical and the
  // next append starts a fresh line.
  std::error_code ec;
  if (before >= 0) fs::resize_file(path_, before, ec);
  throw Error("cannot append to '" + path_ + "'");
}

void JsonlLog::rewrite(std::string_view records) const {
  std::string bytes = meta_;
  bytes += '\n';
  bytes += records;
  writeFileAtomic(path_, bytes, durability_);
}

std::string RunJournal::pathFor(const std::string& dir) {
  return (fs::path(dir) / "journal.jsonl").string();
}

std::string RunJournal::key(std::string_view test, std::string_view target,
                            int repeat) {
  return std::string(test) + "\x1f" + std::string(target) + "\x1f" +
         std::to_string(repeat);
}

RunJournal::RunJournal(const std::string& dir)
    : log_(pathFor(dir), kJournalSchema, Durability::kFsync,
           [this](const obs::json::Value& record, std::string_view) {
             if (record.stringOr("kind", "") != "run") return;
             keys_.insert(key(record.stringOr("test", ""),
                              record.stringOr("target", ""),
                              record.integerOr("repeat", 0)));
           }) {}

bool RunJournal::contains(std::string_view test, std::string_view target,
                          int repeat) const {
  return keys_.count(key(test, target, repeat)) > 0;
}

void RunJournal::record(std::string_view test, std::string_view target,
                        int repeat, std::string_view outcome,
                        std::string_view stage, int attempts) {
  log_.append("{\"kind\":\"run\",\"test\":" + obs::json::quote(test) +
              ",\"target\":" + obs::json::quote(target) +
              ",\"repeat\":" + std::to_string(repeat) +
              ",\"outcome\":" + obs::json::quote(outcome) +
              ",\"stage\":" + obs::json::quote(stage) +
              ",\"attempts\":" + std::to_string(attempts) + "}");
  keys_.insert(key(test, target, repeat));
}

}  // namespace rebench
