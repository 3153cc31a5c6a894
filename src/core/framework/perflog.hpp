// Performance logs ("perflogs", §2.4).
//
// Every (test, system, partition, FOM) measurement is appended as one line
// of `key=value|key=value|...` records.  The format is append-only,
// greppable, and machine-parseable — the property Principle 6 needs so that
// assimilation of results from isolated systems is a concatenation, not a
// transcription.
#pragma once

#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/util/units.hpp"

namespace rebench {

/// Schema of a campaign perflog stored as a store object.  An object
/// that does not start with "rebench.perflog/" is a raw perflog (v1).
inline constexpr std::string_view kPerflogObjectSchema = "rebench.perflog/2";

struct PerfLogEntry {
  std::string timestamp;       // ISO-like or simulated-seconds stamp
  std::string frameworkVersion = "rebench-1.0.0";
  std::string system;
  std::string partition;
  std::string environ;         // "gcc@11.2.0"
  std::string testName;
  std::string spec;            // concretized short form
  std::string specHash;        // DAG hash (Principle 4)
  std::string binaryId;        // build provenance (Principle 3)
  std::string jobId;
  std::string fomName;
  double value = 0.0;
  Unit unit = Unit::kNone;
  std::optional<double> reference;
  double lowerThresh = 0.0;    // fractional, e.g. -0.05
  double upperThresh = 0.0;
  std::string result;          // "pass" | "fail" | "error"
  /// Free-form extras (num_tasks, array_size, ...).
  std::map<std::string, std::string> extras;

  std::string serialize() const;
  static PerfLogEntry parse(const std::string& line);
};

/// Collects perflog lines in memory and/or appends them to a file.
class PerfLog {
 public:
  PerfLog() = default;
  /// When `path` is non-empty every append is also written to the file.
  explicit PerfLog(std::string path);

  /// Throws rebench::Error naming the file when the line cannot be
  /// appended whole (appendToFile); the file keeps only whole lines.
  void append(const PerfLogEntry& entry);
  const std::vector<std::string>& lines() const { return lines_; }
  std::size_t size() const { return lines_.size(); }

  /// Reads a perflog file back into entries.
  static std::vector<PerfLogEntry> readFile(const std::string& path);
  static std::vector<PerfLogEntry> parseLines(
      const std::vector<std::string>& lines);

  /// Lenient variants for perflogs that survived crashes or corrupted
  /// stdout: unparseable lines are skipped and counted instead of
  /// aborting the whole read (the hygiene audit reports the count).
  struct LenientParse {
    std::vector<PerfLogEntry> entries;
    std::size_t corruptLines = 0;
  };
  static LenientParse readFileLenient(const std::string& path);
  static LenientParse parseLinesLenient(
      const std::vector<std::string>& lines);

 private:
  std::string path_;
  std::vector<std::string> lines_;
};

/// Encodes perflog `lines` as a kPerflogObjectSchema object: the lines'
/// '|'-separated fields ditto-coded (core/util/ditto.hpp) under the
/// header `rebench.perflog/2|N`.  Throws rebench::Error on a line that
/// could not round-trip: one holding a newline, an empty field or a lone
/// '=' field.
std::string encodePerflogObject(std::span<const std::string> lines);

/// The perflog bytes (each line followed by '\n') that a stored perflog
/// object holds; a raw (v1) object decodes to itself.  Throws
/// rebench::Error on a damaged kPerflogObjectSchema object (whatever
/// ditto::Reader refuses) and on any other "rebench.perflog/" schema.
std::string decodePerflogObject(std::string_view bytes);

}  // namespace rebench
