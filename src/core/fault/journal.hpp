// Durable JSONL logs, atomic file publication and the run journal
// (rebench::fault).
//
// JsonlLog is the one open/replay/repair/append/rewrite implementation
// behind the append-only JSONL files: the --resume run journal (below),
// serve's write-ahead journal (service/journal.hpp), which it also
// compacts, and the old store index that store/object_store.hpp
// converts.  writeFileAtomic is the one way a whole file is published:
// readers see the old file or the complete new one.  FileLock is the one
// inter-process lock.
//
// Run journal: a suite run appends one record per completed (test,
// target, repeat) tuple to DIR/journal.jsonl; --resume DIR executes only
// the tuples not yet recorded.  Each line is fsynced before record()
// returns, so a crash loses at most the line being written, never an
// acknowledged one (which would double-execute it on resume).
//
// Schema (one JSON object per line):
//   {"kind":"meta","schema":"rebench.journal/1"}
//   {"kind":"run","test":T,"target":"sys:part","repeat":N,
//    "outcome":"pass"|"fail"|"quarantined","stage":S,"attempts":A}
#pragma once

#include <cstddef>
#include <functional>
#include <set>
#include <string>
#include <string_view>

#include "core/obs/json.hpp"

namespace rebench {

inline constexpr std::string_view kJournalSchema = "rebench.journal/1";

/// Whether a write reaches stable storage before it returns.  The
/// journals need it: an acknowledged checkpoint must survive a crash.
/// Store, manifest and flight-record writes are published without it.
enum class Durability { kBuffered, kFsync };

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

  /// Appends `line` and a '\n' in one checked write, fsynced when the
  /// log is durable.  A failed or short write is cut back off and throws
  /// rebench::Error, leaving the file byte-identical.
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

  bool contains(std::string_view test, std::string_view target,
                int repeat) const;

  /// Appends one completed tuple durably (write + fsync per line).
  void record(std::string_view test, std::string_view target, int repeat,
              std::string_view outcome, std::string_view stage,
              int attempts);

  /// Number of completed tuples currently journaled.
  std::size_t size() const { return keys_.size(); }

  /// Unparseable lines dropped while loading (e.g. a truncated tail).
  std::size_t corruptLines() const { return log_.corruptLines(); }

  const std::string& path() const { return log_.path(); }

 private:
  static std::string key(std::string_view test, std::string_view target,
                         int repeat);

  std::set<std::string> keys_;
  JsonlLog log_;  // after keys_: replaying it fills them
};

}  // namespace rebench
