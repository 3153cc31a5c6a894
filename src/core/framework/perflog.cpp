#include "core/framework/perflog.hpp"

#include <algorithm>
#include <cmath>

#include "core/fault/journal.hpp"
#include "core/util/ditto.hpp"
#include "core/util/error.hpp"
#include "core/util/strings.hpp"

namespace rebench {

namespace {

/// A numeric field must be one whole, finite number token: a numeric
/// prefix ("1.5abc"), an out-of-range value ("1e999"), "nan" or "inf"
/// makes the line malformed.
double parseNumber(const std::string& key, const std::string& value) {
  try {
    const double number = str::parseWhole<double>(value, key);
    if (std::isfinite(number)) return number;
  } catch (const ParseError&) {
  }
  throw ParseError("malformed perflog number: " + key + "='" + value + "'");
}

void put(std::string& line, std::string_view key, std::string_view value) {
  if (!line.empty()) line += '|';
  line += str::percentEscape(key);
  line += '=';
  line += str::percentEscape(value);
}

/// What every perflog object schema starts with.
constexpr std::string_view kObjectPrefix = "rebench.perflog/";

/// The non-blank lines of the perflog file at `path`.
std::vector<std::string> readLines(const std::string& path) {
  FileLines in(path);
  std::vector<std::string> lines;
  for (std::string line; in.next(line);) {
    if (!str::trim(line).empty()) lines.push_back(line);
  }
  return lines;
}

}  // namespace

std::string PerfLogEntry::serialize() const {
  std::string line;
  put(line, "ts", timestamp);
  put(line, "version", frameworkVersion);
  put(line, "system", system);
  put(line, "partition", partition);
  put(line, "environ", environ);
  put(line, "test", testName);
  put(line, "spec", spec);
  put(line, "spec_hash", specHash);
  put(line, "binary_id", binaryId);
  put(line, "job_id", jobId);
  put(line, "fom", fomName);
  put(line, "value", str::fixed(value, 6));
  put(line, "unit", unitName(unit));
  if (reference) {
    put(line, "ref", str::fixed(*reference, 6));
    put(line, "lower", str::fixed(lowerThresh, 4));
    put(line, "upper", str::fixed(upperThresh, 4));
  }
  put(line, "result", result);
  for (const auto& [key, val] : extras) {
    put(line, "x:" + key, val);
  }
  return line;
}

PerfLogEntry PerfLogEntry::parse(const std::string& line) {
  PerfLogEntry entry;
  for (const std::string& field : str::split(line, '|')) {
    const std::size_t eq = field.find('=');
    if (eq == std::string::npos) {
      throw ParseError("malformed perflog field: '" + field + "'");
    }
    const std::string key = str::percentUnescape(field.substr(0, eq));
    const std::string value = str::percentUnescape(field.substr(eq + 1));
    if (key == "ts") entry.timestamp = value;
    else if (key == "version") entry.frameworkVersion = value;
    else if (key == "system") entry.system = value;
    else if (key == "partition") entry.partition = value;
    else if (key == "environ") entry.environ = value;
    else if (key == "test") entry.testName = value;
    else if (key == "spec") entry.spec = value;
    else if (key == "spec_hash") entry.specHash = value;
    else if (key == "binary_id") entry.binaryId = value;
    else if (key == "job_id") entry.jobId = value;
    else if (key == "fom") entry.fomName = value;
    else if (key == "value") entry.value = parseNumber(key, value);
    else if (key == "unit") entry.unit = unitFromName(value);
    else if (key == "ref") entry.reference = parseNumber(key, value);
    else if (key == "lower") entry.lowerThresh = parseNumber(key, value);
    else if (key == "upper") entry.upperThresh = parseNumber(key, value);
    else if (key == "result") entry.result = value;
    else if (str::startsWith(key, "x:")) entry.extras[key.substr(2)] = value;
    else throw ParseError("unknown perflog key: '" + key + "'");
  }
  return entry;
}

PerfLog::PerfLog(std::string path) : path_(std::move(path)) {}

void PerfLog::append(const PerfLogEntry& entry) {
  lines_.push_back(entry.serialize());
  if (!path_.empty()) {
    appendToFile(path_, lines_.back() + '\n', Durability::kBuffered);
  }
}

std::vector<PerfLogEntry> PerfLog::readFile(const std::string& path) {
  return parseLines(readLines(path));
}

std::vector<PerfLogEntry> PerfLog::parseLines(
    const std::vector<std::string>& lines) {
  std::vector<PerfLogEntry> out;
  out.reserve(lines.size());
  for (const std::string& line : lines) {
    out.push_back(PerfLogEntry::parse(line));
  }
  return out;
}

PerfLog::LenientParse PerfLog::readFileLenient(const std::string& path) {
  return parseLinesLenient(readLines(path));
}

PerfLog::LenientParse PerfLog::parseLinesLenient(
    const std::vector<std::string>& lines) {
  LenientParse out;
  out.entries.reserve(lines.size());
  for (const std::string& line : lines) {
    try {
      out.entries.push_back(PerfLogEntry::parse(line));
    } catch (const ParseError&) {
      // The line is damaged, not the file.
      ++out.corruptLines;
    }
  }
  return out;
}

std::string encodePerflogObject(std::span<const std::string> lines) {
  ditto::Writer writer(kPerflogObjectSchema, lines.size());
  for (const std::string& line : lines) {
    const std::vector<std::string> fields = str::split(line, '|');
    if (std::ranges::any_of(fields,
                            [](const std::string& f) { return f.empty(); })) {
      throw Error("perflog line cannot be stored ditto-coded: '" + line +
                  "'");
    }
    writer.row(fields);
  }
  return writer.take();
}

std::string decodePerflogObject(std::string_view bytes) {
  if (!str::startsWith(bytes, kObjectPrefix)) return std::string(bytes);
  const std::string_view schema = bytes.substr(0, bytes.find_first_of("|\n"));
  if (schema != kPerflogObjectSchema) {
    throw Error("perflog object has schema '" + std::string(schema) +
                "' (this build reads " + std::string(kPerflogObjectSchema) +
                " and raw perflogs)");
  }
  ditto::Reader reader(bytes, 2, "perflog object", "line");
  std::string out;
  while (reader.next()) {
    for (std::size_t i = 0; i < reader.fields().size(); ++i) {
      if (i != 0) out += '|';
      out += reader.fields()[i];
    }
    out += '\n';
  }
  return out;
}

}  // namespace rebench
