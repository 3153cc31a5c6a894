#include "core/fault/journal.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <filesystem>
#include <system_error>

#include "core/util/error.hpp"
#include "core/util/strings.hpp"

namespace rebench {

namespace {

namespace fs = std::filesystem;

std::atomic<std::uint64_t> g_writes{0};
std::atomic<std::uint64_t> g_bytes{0};
std::atomic<std::uint64_t> g_fsyncs{0};
std::atomic<std::uint64_t> g_renames{0};
std::atomic<std::uint64_t> g_directories{0};
std::atomic<std::uint64_t> g_reads{0};
std::atomic<std::uint64_t> g_readBytes{0};

void count(std::atomic<std::uint64_t>& counter, std::uint64_t n = 1) {
  counter.fetch_add(n, std::memory_order_relaxed);
}

[[noreturn]] void failRead(const std::string& path, int error) {
  throw Error("cannot read '" + path +
              "': " + std::generic_category().message(error));
}

/// A descriptor read-only on `path`; -1 when the file is absent.
int openForRead(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0 && errno != ENOENT) failRead(path, errno);
  return fd;
}

/// One read(2) of at most `n` bytes, retried on EINTR; 0 at the end.
std::size_t readSome(int fd, const std::string& path, char* out,
                     std::size_t n) {
  ssize_t got = 0;
  do {
    got = ::read(fd, out, n);
    count(g_reads);
  } while (got < 0 && errno == EINTR);
  if (got < 0) failRead(path, errno);
  count(g_readBytes, static_cast<std::uint64_t>(got));
  return static_cast<std::size_t>(got);
}

/// Writes all of `bytes` to `fd`, retrying short writes and EINTR, then
/// fsyncs when `durability` asks for it.  False on any failure.
bool writeAll(int fd, std::string_view bytes, Durability durability) {
  while (!bytes.empty()) {
    const ssize_t n = ::write(fd, bytes.data(), bytes.size());
    count(g_writes);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    count(g_bytes, static_cast<std::uint64_t>(n));
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  if (durability == Durability::kBuffered) return true;
  count(g_fsyncs);
  return ::fsync(fd) == 0;
}

}  // namespace

SeamCounts seamCounts() {
  return {g_writes.load(std::memory_order_relaxed),
          g_bytes.load(std::memory_order_relaxed),
          g_fsyncs.load(std::memory_order_relaxed),
          g_renames.load(std::memory_order_relaxed),
          g_directories.load(std::memory_order_relaxed),
          g_reads.load(std::memory_order_relaxed),
          g_readBytes.load(std::memory_order_relaxed)};
}

std::optional<std::string> readFileIfPresent(const std::string& path,
                                             std::size_t limit,
                                             struct ::stat* info) {
  const int fd = openForRead(path);
  if (fd < 0) return std::nullopt;
  struct Closer {
    int fd;
    ~Closer() { ::close(fd); }
  } closer{fd};
  struct ::stat local {};
  if (info == nullptr) info = &local;
  if (::fstat(fd, info) != 0) failRead(path, errno);
  // Room for the file and a byte more, so the read that finds its end
  // needs no larger buffer: a file that fits takes two read(2) calls.
  std::string bytes(std::min<std::size_t>(limit, info->st_size + 1), '\0');
  std::size_t got = 0;
  for (std::size_t n = 1; n > 0 && got < limit; got += n) {
    if (got == bytes.size()) bytes.resize(std::min(limit, 2 * got));
    n = readSome(fd, path, bytes.data() + got, bytes.size() - got);
  }
  bytes.resize(got);
  return bytes;
}

std::string readNamedFile(const std::string& path, std::size_t limit) {
  std::optional<std::string> bytes = readFileIfPresent(path, limit);
  if (!bytes) failRead(path, ENOENT);
  return std::move(*bytes);
}

FileLines::FileLines(const std::string& path)
    : path_(path), fd_(openForRead(path)) {
  if (fd_ < 0) failRead(path, ENOENT);
}

FileLines::~FileLines() { ::close(fd_); }

bool FileLines::next(std::string& line) {
  line.clear();
  while (true) {
    const std::size_t end = block_.find('\n', pos_);
    line.append(block_, pos_, end - pos_);
    if (end != std::string::npos) {
      pos_ = end + 1;
      return true;
    }
    pos_ = 0;
    block_.resize(64 * 1024);
    block_.resize(readSome(fd_, path_, block_.data(), block_.size()));
    if (block_.empty()) return !line.empty();
  }
}

void renameFile(const fs::path& from, const fs::path& to,
                std::error_code& ec) {
  count(g_renames);
  fs::rename(from, to, ec);
}

bool createDirectories(const fs::path& dir) {
  const bool created = fs::create_directories(dir);
  if (created) count(g_directories);
  return created;
}

bool createDirectories(const fs::path& dir, std::error_code& ec) {
  const bool created = fs::create_directories(dir, ec);
  if (created) count(g_directories);
  return created;
}

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
  renameFile(tmpPath, path, ec);
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

void appendToFile(const std::string& path, std::string_view bytes,
                  Durability durability) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) throw Error("cannot open '" + path + "' for append");
  const off_t before = ::lseek(fd, 0, SEEK_END);
  const bool written = before >= 0 && writeAll(fd, bytes, durability);
  if (::close(fd) == 0 && written) return;
  // Cut a torn line back off so the file stays byte-identical and the
  // next append starts a fresh line.
  std::error_code ec;
  if (before >= 0) fs::resize_file(path, before, ec);
  throw Error("cannot append to '" + path + "'");
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
  createDirectories(fs::path(path_).parent_path(), ec);
  if (ec) {
    throw Error("cannot create the directory of '" + path_ +
                "': " + ec.message());
  }
  const std::optional<std::string> bytes = readFileIfPresent(path_);
  if (!bytes) {
    append(meta_);
    return;
  }
  std::string records;  // what a repair keeps: the replayed lines
  for (const std::string& line : str::split(*bytes, '\n')) {
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
  if (corruptLines_ > 0 || (!bytes->empty() && bytes->back() != '\n')) {
    rewrite(records);
  }
}

void JsonlLog::append(std::string_view line) const {
  std::string bytes(line);
  bytes += '\n';
  appendToFile(path_, bytes, durability_);
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
             outcomes_[key(record.stringOr("test", ""),
                           record.stringOr("target", ""),
                           record.integerOr("repeat", 0))] =
                 record.stringOr("outcome", "");
           }) {}

const std::string* RunJournal::outcome(std::string_view test,
                                       std::string_view target,
                                       int repeat) const {
  const auto it = outcomes_.find(key(test, target, repeat));
  return it == outcomes_.end() ? nullptr : &it->second;
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
  outcomes_[key(test, target, repeat)] = outcome;
}

}  // namespace rebench
