// Durable JSONL logs, atomic file publication and the run journal
// (rebench::fault).
//
// JsonlLog is the one open/replay/repair/append/rewrite implementation
// behind the append-only JSONL files: the --resume run journal (below),
// serve's write-ahead journal (service/journal.hpp), which it also
// compacts, and the old store index that store/object_store.hpp
// converts.  writeFileAtomic is the one way a whole file is published:
// readers see the old file or the complete new one.  appendToFile is the
// one way bytes are appended (JsonlLog and the perflog): whole or not at
// all.  renameFile and createDirectories move files and make
// directories.  FileLock is the one inter-process lock.  Every file is
// read through readFileIfPresent, readNamedFile or FileLines.
//
// These functions are the I/O seam: seamCounts() counts, process-wide,
// the reads, writes, bytes, fsyncs, renames and directory creations they
// make, so a test or a benchmark can price a step in calls.
//
// Run journal: a suite run appends one record per completed (test,
// target, repeat) tuple to DIR/journal.jsonl; --resume DIR executes only
// the tuples not yet recorded, and the campaign summary counts the
// recorded ones by their outcome.  Each line is fsynced before record()
// returns, so a crash loses at most the line being written, never an
// acknowledged one (which would double-execute it on resume).
//
// Schema (one JSON object per line):
//   {"kind":"meta","schema":"rebench.journal/1"}
//   {"kind":"run","test":T,"target":"sys:part","repeat":N,
//    "outcome":"pass"|"fail"|"quarantined","stage":S,"attempts":A}
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>

#include "core/obs/json.hpp"

struct stat;

namespace rebench {

inline constexpr std::string_view kJournalSchema = "rebench.journal/1";

/// Whether a write reaches stable storage before it returns.  The
/// journals need it: an acknowledged checkpoint must survive a crash.
/// Store, manifest and flight-record writes are published without it.
enum class Durability { kBuffered, kFsync };

/// What the seam has done in this process, across all threads.
/// Each count only grows; subtract two snapshots to price a step.
struct SeamCounts {
  std::uint64_t writes = 0;       // write(2) calls
  std::uint64_t bytes = 0;        // bytes those calls wrote
  std::uint64_t fsyncs = 0;       // fsync(2) calls
  std::uint64_t renames = 0;      // renames, publications' included
  std::uint64_t directories = 0;  // createDirectories calls that made one
  std::uint64_t reads = 0;        // read(2) calls, end-of-file ones too
  std::uint64_t readBytes = 0;    // bytes those calls returned
};

SeamCounts seamCounts();

/// The bytes of the file at `path`, at most its first `limit`; nullopt
/// when it is absent (ENOENT).  Any other failure to open or read it
/// (EISDIR, EMFILE, a read that fails mid-file) throws rebench::Error
/// naming `path` and the errno text.  `info`, when given, gets an
/// fstat(2) of the descriptor the bytes were read from.
std::optional<std::string> readFileIfPresent(
    const std::string& path, std::size_t limit = std::string::npos,
    struct ::stat* info = nullptr);

/// readFileIfPresent of a file that must exist, such as one the user
/// named: absence throws too.
std::string readNamedFile(const std::string& path,
                          std::size_t limit = std::string::npos);

/// A file that must exist, read as readNamedFile reads it but a line at
/// a time from 64 KiB blocks, so its reader holds a block, not the file.
class FileLines {
 public:
  explicit FileLines(const std::string& path);
  FileLines(const FileLines&) = delete;
  FileLines& operator=(const FileLines&) = delete;
  ~FileLines();

  /// The next line without its '\n'; false after the last.
  bool next(std::string& line);

 private:
  std::string path_;
  int fd_;
  std::string block_;
  std::size_t pos_ = 0;
};

/// std::filesystem::rename through the seam.
void renameFile(const std::filesystem::path& from,
                const std::filesystem::path& to, std::error_code& ec);

/// std::filesystem::create_directories through the seam, in its throwing
/// and its error_code form.
bool createDirectories(const std::filesystem::path& dir);
bool createDirectories(const std::filesystem::path& dir,
                       std::error_code& ec);

/// Publishes `bytes` at `path` atomically: they are written in full to a
/// temp file, fsynced when `durability` asks for it, and renamed over
/// `path`.  The temp file is `<tmp>.<pid>.<n>` (`tmp` defaults to
/// `path + ".tmp"`; n counts this process's calls), so concurrent writers
/// of one path, in any process or thread, each publish whole.  A failed
/// or short write removes the temp file and throws rebench::Error,
/// leaving `path` untouched.
void writeFileAtomic(const std::string& path, std::string_view bytes,
                     Durability durability, std::string_view tmp = {});

/// writeFileAtomic with fsync and the default tmp name.
void durableWriteFile(const std::string& path, std::string_view bytes);

/// Appends `bytes` to `path` (created when absent) in one checked
/// O_APPEND write, fsynced when `durability` asks for it.  A failed or
/// short write is cut back off and throws rebench::Error naming `path`,
/// leaving the file byte-identical.
void appendToFile(const std::string& path, std::string_view bytes,
                  Durability durability);

/// An exclusive flock(2) on `path` (created when absent), held until the
/// FileLock is destroyed or the process exits, however it exits.  Two
/// FileLocks on one path exclude each other, in one process or two.
class FileLock {
 public:
  enum class Mode { kWait, kTry };

  /// kTry returns at once, with held() false while another holder has
  /// the lock.  Throws rebench::Error when `path` cannot be opened.
  explicit FileLock(const std::string& path, Mode mode = Mode::kWait);
  ~FileLock();
  FileLock(const FileLock&) = delete;
  FileLock& operator=(const FileLock&) = delete;

  bool held() const { return fd_ >= 0; }

 private:
  int fd_ = -1;
};

/// An append-only JSONL file: a meta line naming its schema, then one
/// JSON record per line.
class JsonlLog {
 public:
  /// One replayed record, parsed, and the text of its line (no '\n').
  using Replay = std::function<void(const obs::json::Value& record,
                                    std::string_view line)>;

  /// Opens `path`, creating its directory and the meta line when absent.
  /// An existing file is replayed: each line is parsed once and every
  /// object record other than meta goes to `replay`, in file order.  A
  /// meta line naming another schema throws rebench::Error.  Unparseable
  /// lines are counted in corruptLines(); when there is one, or the last
  /// byte is not '\n' (a torn append), the file is rewritten holding the
  /// meta line and the replayed records, so the next append starts a
  /// fresh line.
  JsonlLog(std::string path, std::string_view schema, Durability durability,
           const Replay& replay);

  /// Appends `line` and a '\n' through appendToFile, fsynced when the
  /// log is durable.
  void append(std::string_view line) const;

  /// Replaces the file with the meta line followed by `records` (whole
  /// lines, each ending in '\n') through writeFileAtomic, fsynced when
  /// the log is durable: a crash leaves the old file or the new one.
  void rewrite(std::string_view records) const;

  /// Unparseable lines dropped while opening (e.g. a torn tail).
  std::size_t corruptLines() const { return corruptLines_; }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::string meta_;  // the meta line, without its '\n'
  Durability durability_;
  std::size_t corruptLines_ = 0;
};

class RunJournal {
 public:
  /// Opens DIR/journal.jsonl through JsonlLog and loads the tuples
  /// already recorded.  Throws rebench::Error on I/O failure.
  explicit RunJournal(const std::string& dir);

  static std::string pathFor(const std::string& dir);

  /// The recorded outcome of a journaled tuple ("pass", "fail" or
  /// "quarantined"); nullptr when the tuple is not journaled.
  const std::string* outcome(std::string_view test, std::string_view target,
                             int repeat) const;

  /// Appends one completed tuple durably (write + fsync per line).
  void record(std::string_view test, std::string_view target, int repeat,
              std::string_view outcome, std::string_view stage,
              int attempts);

  /// Number of completed tuples currently journaled.
  std::size_t size() const { return outcomes_.size(); }

  /// Unparseable lines dropped while loading (e.g. a truncated tail).
  std::size_t corruptLines() const { return log_.corruptLines(); }

  const std::string& path() const { return log_.path(); }

 private:
  static std::string key(std::string_view test, std::string_view target,
                         int repeat);

  std::map<std::string, std::string> outcomes_;  // key -> outcome
  JsonlLog log_;  // after outcomes_: replaying it fills them
};

}  // namespace rebench
