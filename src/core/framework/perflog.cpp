#include "core/framework/perflog.hpp"

#include <fstream>

#include "core/util/error.hpp"
#include "core/util/strings.hpp"

namespace rebench {

namespace {

/// A numeric field must be one whole number token: a numeric prefix
/// ("1.5abc") or an out-of-range value ("1e999") makes the line malformed.
double parseNumber(const std::string& key, const std::string& value) {
  try {
    return str::parseWhole<double>(value, key);
  } catch (const ParseError&) {
    throw ParseError("malformed perflog number: " + key + "='" + value + "'");
  }
}

void put(std::string& line, std::string_view key, std::string_view value) {
  if (!line.empty()) line += '|';
  line += str::percentEscape(key);
  line += '=';
  line += str::percentEscape(value);
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
    std::ofstream out(path_, std::ios::app);
    if (!out) throw Error("cannot open perflog file '" + path_ + "'");
    out << lines_.back() << '\n';
  }
}

std::vector<PerfLogEntry> PerfLog::readFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot read perflog file '" + path + "'");
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!str::trim(line).empty()) lines.push_back(line);
  }
  return parseLines(lines);
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
  std::ifstream in(path);
  if (!in) throw Error("cannot read perflog file '" + path + "'");
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!str::trim(line).empty()) lines.push_back(line);
  }
  return parseLinesLenient(lines);
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

}  // namespace rebench
