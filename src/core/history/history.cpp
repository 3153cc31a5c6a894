#include "core/history/history.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <ctime>
#include <iomanip>
#include <sstream>
#include <type_traits>

#include "core/framework/perflog.hpp"
#include "core/framework/pipeline.hpp"
#include "core/infer/changepoint_edm.hpp"
#include "core/infer/estimator.hpp"
#include "core/obs/json.hpp"
#include "core/obs/metrics.hpp"
#include "core/obs/trace.hpp"
#include "core/store/object_store.hpp"
#include "core/util/error.hpp"
#include "core/util/strings.hpp"

namespace rebench::history {

std::vector<FomAggregate> aggregateFoms(
    std::span<const TestRunResult> results) {
  struct Accumulator {
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    int repeats = 0;
    std::vector<double> samples;  // repeat order, for the CI/ESS view
  };
  // Keyed (test, target, fom) so output order is canonical regardless of
  // the (already canonical) result order.
  std::map<std::string, Accumulator> series;
  std::map<std::string, FomAggregate> names;
  for (const TestRunResult& result : results) {
    if (result.quarantined || result.foms.empty()) continue;
    const std::string target = result.system + ":" + result.partition;
    for (const auto& [fom, value] : result.foms) {
      const std::string key = result.testName + "|" + target + "|" + fom;
      Accumulator& acc = series[key];
      if (acc.repeats == 0) {
        acc.min = value;
        acc.max = value;
        names[key] = {result.testName, target, fom, 0.0, 0.0, 0.0, 0};
      }
      acc.sum += value;
      acc.min = std::min(acc.min, value);
      acc.max = std::max(acc.max, value);
      acc.samples.push_back(value);
      ++acc.repeats;
    }
  }
  std::vector<FomAggregate> out;
  out.reserve(series.size());
  for (const auto& [key, acc] : series) {
    FomAggregate aggregate = names.at(key);
    aggregate.mean = acc.sum / acc.repeats;
    aggregate.min = acc.min;
    aggregate.max = acc.max;
    aggregate.repeats = acc.repeats;
    const infer::SeriesEstimate est = infer::estimateSeries(acc.samples);
    // A single repeat has no defined interval; record 0 = "unknown"
    // rather than an unserializable infinity.
    aggregate.ciHalfwidth = est.n >= 2 ? est.ciHalfwidth : 0.0;
    aggregate.ess = est.ess;
    aggregate.autocorr = est.autocorr;
    out.push_back(std::move(aggregate));
  }
  return out;
}

std::vector<HistoryRecord> recordsFromPerflog(
    std::span<const PerfLogEntry> entries) {
  std::vector<HistoryRecord> records;
  for (std::size_t row = 0; row < entries.size(); ++row) {
    const PerfLogEntry& entry = entries[row];
    // Summary rows are statistics over repeats, not observations, and
    // failed runs carry no FOM.
    if (entry.result == "summary" || entry.result == "error") continue;
    HistoryRecord record;
    record.seq = row;
    record.test = entry.testName;
    record.target = entry.system + ":" + entry.partition;
    record.fom = entry.fomName;
    record.specHash = entry.specHash;
    record.mean = entry.value;
    record.min = entry.value;
    record.max = entry.value;
    record.repeats = 1;
    records.push_back(std::move(record));
  }
  return records;
}

std::vector<HistoryRecord> selectRecords(std::vector<HistoryRecord> records,
                                         std::string_view test,
                                         std::string_view target,
                                         std::string_view fom) {
  std::erase_if(records, [&](const HistoryRecord& record) {
    return (!test.empty() && record.test != test) ||
           (!target.empty() && record.target != target) ||
           (!fom.empty() && record.fom != fom);
  });
  return records;
}

namespace {

/// Fields of a kSegmentSchema header and of each of its rows.
constexpr std::size_t kHeaderFields = 5;
constexpr std::size_t kRowFields = 13;
/// Marks a row field equal to the same field of the row above.
constexpr std::string_view kDitto = "=";
/// What every segment schema starts with.
constexpr std::string_view kSchemaPrefix = "rebench.history/";

/// A record's row fields before escaping, in column order.  The numbers
/// keep rebench.history/1's text, so both encodings parse to one double.
std::array<std::string, kRowFields> rowFields(const HistoryRecord& record) {
  return {record.test,
          record.target,
          record.fom,
          record.manifestHash,
          record.envFingerprint,
          record.specHash,
          str::fixed(record.mean, 6),
          str::fixed(record.min, 6),
          str::fixed(record.max, 6),
          str::fixed(record.ci, 6),
          str::fixed(record.ess, 3),
          std::to_string(record.repeats),
          str::fixed(record.simTimestamp, 6)};
}

/// Splits `line` on '|' into `fields` (views into `line`).
void splitFields(std::string_view line, std::vector<std::string_view>& fields) {
  fields.clear();
  while (true) {
    const std::size_t bar = line.find('|');
    fields.push_back(line.substr(0, bar));
    if (bar == std::string_view::npos) return;
    line.remove_prefix(bar + 1);
  }
}

/// One row of a kSegmentSchema segment; `above` is the record of the row
/// before it (null for the first row).  Number fields are never escaped.
HistoryRecord parseRow(const std::vector<std::string_view>& fields,
                       const HistoryRecord* above, std::uint64_t seq) {
  HistoryRecord record;
  record.seq = seq;
  std::size_t column = 0;
  // The next field, or nullopt when it repeats the row above.
  const auto next = [&]() -> std::optional<std::string_view> {
    const std::string_view field = fields[column++];
    if (field != kDitto) return field;
    if (above == nullptr) {
      throw Error("history segment's first row has a ditto field");
    }
    return std::nullopt;
  };
  const auto text = [&](std::string HistoryRecord::*member) {
    const auto field = next();
    record.*member = field ? str::percentUnescape(*field) : above->*member;
  };
  const auto number = [&](auto HistoryRecord::*member, std::string_view name) {
    const auto field = next();
    using Number = std::remove_reference_t<decltype(record.*member)>;
    record.*member = field ? str::parseWhole<Number>(*field, name)
                           : above->*member;
  };
  text(&HistoryRecord::test);
  text(&HistoryRecord::target);
  text(&HistoryRecord::fom);
  text(&HistoryRecord::manifestHash);
  text(&HistoryRecord::envFingerprint);
  text(&HistoryRecord::specHash);
  number(&HistoryRecord::mean, "history mean");
  number(&HistoryRecord::min, "history min");
  number(&HistoryRecord::max, "history max");
  number(&HistoryRecord::ci, "history ci");
  number(&HistoryRecord::ess, "history ess");
  number(&HistoryRecord::repeats, "history repeats");
  number(&HistoryRecord::simTimestamp, "history sim_timestamp");
  return record;
}

std::vector<HistoryRecord> parseRows(std::string_view bytes,
                                     std::string* prevHash,
                                     std::uint64_t* seq) {
  if (bytes.empty() || bytes.back() != '\n') {
    throw Error("history segment does not end in a newline");
  }
  std::vector<std::string_view> fields;
  std::string_view rest = bytes;
  const auto nextLine = [&] {
    const std::size_t end = rest.find('\n');
    splitFields(rest.substr(0, end), fields);
    rest.remove_prefix(end + 1);
  };
  nextLine();
  if (fields.size() != kHeaderFields) {
    throw Error("history segment header has " + std::to_string(fields.size()) +
                " fields (expected " + std::to_string(kHeaderFields) + ")");
  }
  std::string prev = str::percentUnescape(fields[1]);
  const auto headerSeq =
      str::parseWhole<std::uint64_t>(fields[2], "history segment seq");
  const auto base =
      str::parseWhole<std::uint64_t>(fields[3], "history segment base");
  const auto count =
      str::parseWhole<std::uint64_t>(fields[4], "history segment records");
  const auto rows =
      static_cast<std::uint64_t>(std::count(rest.begin(), rest.end(), '\n'));
  if (rows != count) {
    throw Error("history segment holds " + std::to_string(rows) +
                " rows, its header says " + std::to_string(count));
  }
  std::vector<HistoryRecord> records;
  records.reserve(rows);
  while (!rest.empty()) {
    nextLine();
    if (fields.size() != kRowFields) {
      throw Error("history segment row has " + std::to_string(fields.size()) +
                  " fields (expected " + std::to_string(kRowFields) + ")");
    }
    records.push_back(parseRow(fields,
                               records.empty() ? nullptr : &records.back(),
                               base + records.size()));
  }
  if (prevHash != nullptr) *prevHash = std::move(prev);
  if (seq != nullptr) *seq = headerSeq;
  return records;
}

/// A rebench.history/1 segment: one JSON meta line, one JSON line per
/// record.  Read for stores written before kSegmentSchema; never written.
std::vector<HistoryRecord> parseJsonLines(std::string_view bytes,
                                          std::string* prevHash,
                                          std::uint64_t* seq) {
  std::vector<HistoryRecord> records;
  std::istringstream in{std::string(bytes)};
  std::string line;
  bool sawMeta = false;
  while (std::getline(in, line)) {
    if (str::trim(line).empty()) continue;
    const obs::json::Value value = obs::json::parse(line);
    const std::string kind = value.stringOr("kind", "");
    if (kind == "meta") {
      const std::string schema = value.stringOr("schema", "");
      if (schema != kHistorySchema) {
        throw Error("history segment has schema '" + schema +
                    "' (expected '" + std::string(kHistorySchema) + "')");
      }
      if (prevHash != nullptr) *prevHash = value.stringOr("prev", "");
      if (seq != nullptr) *seq = value.integerOr<std::uint64_t>("seq", 0);
      sawMeta = true;
    } else if (kind == "record") {
      HistoryRecord record;
      record.seq = value.integerOr<std::uint64_t>("seq", 0);
      record.test = value.stringOr("test", "");
      record.target = value.stringOr("target", "");
      record.fom = value.stringOr("fom", "");
      record.manifestHash = value.stringOr("manifest", "");
      record.envFingerprint = value.stringOr("env", "");
      record.specHash = value.stringOr("spec", "");
      record.mean = value.numberOr("mean", 0);
      record.min = value.numberOr("min", 0);
      record.max = value.numberOr("max", 0);
      record.ci = value.numberOr("ci", 0);
      record.ess = value.numberOr("ess", 0);
      record.repeats = value.integerOr("repeats", 0);
      record.simTimestamp = value.numberOr("sim_timestamp", 0);
      records.push_back(std::move(record));
    }
  }
  if (!sawMeta) throw Error("history segment is missing its meta line");
  return records;
}

}  // namespace

std::string serializeSegment(std::span<const HistoryRecord> records,
                             std::string_view prevHash, std::uint64_t seq,
                             std::uint64_t base) {
  std::string out = std::string(kSegmentSchema) + "|" +
                    str::percentEscape(prevHash) + "|" + std::to_string(seq) +
                    "|" + std::to_string(base) + "|" +
                    std::to_string(records.size()) + "\n";
  std::array<std::string, kRowFields> above;
  for (std::size_t row = 0; row < records.size(); ++row) {
    std::array<std::string, kRowFields> fields = rowFields(records[row]);
    for (std::size_t i = 0; i < kRowFields; ++i) {
      if (i != 0) out += '|';
      if (row != 0 && !fields[i].empty() && fields[i] == above[i]) {
        out += kDitto;
      } else {
        out += str::percentEscape(fields[i]);
      }
    }
    out += '\n';
    above = std::move(fields);
  }
  return out;
}

std::vector<HistoryRecord> parseSegment(std::string_view bytes,
                                        std::string* prevHash,
                                        std::uint64_t* seq) {
  if (!str::startsWith(bytes, kSchemaPrefix)) {
    return parseJsonLines(bytes, prevHash, seq);
  }
  const std::string_view schema = bytes.substr(0, bytes.find_first_of("|\n"));
  if (schema != kSegmentSchema) {
    throw Error("history segment has schema '" + std::string(schema) +
                "' (this build reads " + std::string(kSegmentSchema) +
                " and the JSON lines of " + std::string(kHistorySchema) + ")");
  }
  return parseRows(bytes, prevHash, seq);
}

namespace {

/// The append point after a head segment.  Both appendSegment paths
/// take their tip from here, so they write identical segment bytes.
ChainTip tipAfter(const std::string& head, std::uint64_t headSeq,
                  const std::vector<HistoryRecord>& headRecords) {
  return {head, headSeq + 1,
          headRecords.empty() ? 0 : headRecords.back().seq + 1};
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

/// Fills `stamp`'s stat fields from `path`; false when the stat fails.
bool statInto(const std::string& path, SegmentStamp& stamp) {
  struct stat info {};
  if (::stat(path.c_str(), &info) != 0) return false;
  stamp.size = static_cast<std::uint64_t>(info.st_size);
  stamp.inode = static_cast<std::uint64_t>(info.st_ino);
  stamp.mtimeNs = nanoseconds(info.st_mtim);
  stamp.ctimeNs = nanoseconds(info.st_ctim);
  return true;
}

bool sameFile(const SegmentStamp& a, const SegmentStamp& b) {
  return a.size == b.size && a.inode == b.inode && a.mtimeNs == b.mtimeNs &&
         a.ctimeNs == b.ctimeNs;
}

}  // namespace

HistoryIndex::HistoryIndex(store::ObjectStore& store) : store_(store) {}

void HistoryIndex::setObservability(obs::Tracer* tracer,
                                    obs::MetricsRegistry* metrics) {
  tracer_ = tracer;
  metrics_ = metrics;
}

ChainTip HistoryIndex::headTip() const {
  const auto head = store_.ref(kHeadRef);
  if (!head) return {};
  std::uint64_t headSeq = 0;
  const auto headRecords = readSegment(*head, nullptr, &headSeq);
  return tipAfter(*head, headSeq, headRecords);
}

std::string HistoryIndex::appendSegment(
    std::span<const HistoryRecord> records) {
  if (records.empty()) return "";
  return appendSegment(headTip(), records);
}

std::string HistoryIndex::appendSegment(
    const ChainTip& tip, std::span<const HistoryRecord> records) {
  if (records.empty()) return "";
  std::vector<HistoryRecord> stamped(records.begin(), records.end());
  std::string hash;
  // When another writer moved the head first, attach after its segment;
  // the segment just put stays in the store, unreferenced.
  for (ChainTip at = tip;; at = headTip()) {
    for (std::size_t i = 0; i < stamped.size(); ++i) {
      stamped[i].seq = at.base + i;
    }
    hash = store_.put(serializeSegment(stamped, at.head, at.seq, at.base));
    if (store_.compareAndSetRef(kHeadRef, at.head, hash)) break;
  }
  if (tracer_ != nullptr) {
    const std::string count = std::to_string(stamped.size());
    for (const HistoryRecord& record : stamped) {
      tracer_->beginSpan("history.append");
      tracer_->setAttr("test", record.test);
      tracer_->setAttr("target", record.target);
      tracer_->setAttr("fom", record.fom);
      tracer_->setAttr("records", count);
      tracer_->endSpan();
    }
  }
  if (metrics_ != nullptr) {
    metrics_->counter("history.append").inc(stamped.size());
  }
  return hash;
}

std::string HistoryIndex::extend(Chain& chain,
                                 std::span<const HistoryRecord> records) {
  try {
    const std::string hash = appendSegment(chain.tip, records);
    if (!hash.empty()) readNewer(chain, hash);
    return hash;
  } catch (...) {
    chain = Chain{};
    throw;
  }
}

std::vector<HistoryRecord> HistoryIndex::readSegment(
    const std::string& hash, std::string* prevHash,
    std::uint64_t* seq) const {
  ++segmentReads_;
  const auto bytes = store_.get(hash);
  if (!bytes) {
    throw Error("history chain is broken: segment '" + hash +
                "' is missing from the store");
  }
  return parseSegment(*bytes, prevHash, seq);
}

std::vector<HistoryRecord> HistoryIndex::verifySegment(
    const std::string& hash, SegmentStamp& stamp, std::string* prevHash,
    std::uint64_t* seq) const {
  // The clock is read before the stat: a rewrite after it lands in a
  // later tick, so it moves the ctime of any segment older than a tick.
  timespec now{};
  ::clock_gettime(CLOCK_REALTIME_COARSE, &now);
  stamp.hash = hash;
  const bool statted = statInto(store_.objectPath(hash), stamp);
  std::vector<HistoryRecord> records = readSegment(hash, prevHash, seq);
  stamp.racy =
      !statted || stamp.ctimeNs > nanoseconds(now) - coarseTickNs();
  return records;
}

bool HistoryIndex::readNewer(Chain& chain, const std::string& head) const {
  struct Walked {
    std::vector<HistoryRecord> records;
    SegmentStamp stamp;
  };
  std::vector<Walked> newer;  // newest first
  ChainTip tip;
  std::string hash = head;
  while (!hash.empty() && hash != chain.tip.head) {
    Walked& segment = newer.emplace_back();
    std::string prev;
    std::uint64_t seq = 0;
    segment.records = verifySegment(hash, segment.stamp, &prev, &seq);
    if (newer.size() == 1) tip = tipAfter(hash, seq, segment.records);
    hash = prev;
  }
  const bool descends = hash == chain.tip.head;
  if (!descends) chain = Chain{};
  if (newer.empty()) return descends;
  if (chain.records.empty()) {
    std::size_t total = 0;
    for (const Walked& segment : newer) total += segment.records.size();
    chain.records.reserve(total);
    chain.segments.reserve(newer.size());
  }
  // Copied, not moved: the copies sit together while the parse's
  // interleaved allocations are freed whole.  Moving them raised
  // history_check's peak RSS by 0.5 MB (bench/e2e, 1000 segments).
  for (auto it = newer.rbegin(); it != newer.rend(); ++it) {
    chain.records.insert(chain.records.end(), it->records.begin(),
                         it->records.end());
    chain.segments.push_back(std::move(it->stamp));
  }
  chain.tip = tip;
  return descends;
}

void HistoryIndex::refresh(Chain& chain) const {
  try {
    const std::size_t covered = chain.segments.size();
    if (!readNewer(chain, store_.ref(kHeadRef).value_or(""))) return;
    // Segments are content-addressed: a re-read that still hashes to its
    // name holds the records the chain already has.
    for (std::size_t i = 0; i < covered; ++i) {
      SegmentStamp& stamp = chain.segments[i];
      SegmentStamp now;
      if (!stamp.racy && statInto(store_.objectPath(stamp.hash), now) &&
          sameFile(now, stamp)) {
        continue;
      }
      verifySegment(stamp.hash, stamp, nullptr, nullptr);
    }
  } catch (...) {
    chain = Chain{};
    throw;
  }
}

Chain HistoryIndex::readChain() const {
  Chain chain;
  refresh(chain);
  return chain;
}

std::vector<HistoryRecord> HistoryIndex::readAll() const {
  return readChain().records;
}

std::vector<HistoryRecord> HistoryIndex::query(std::string_view test,
                                               std::string_view target,
                                               std::string_view fom) const {
  std::vector<HistoryRecord> out = selectRecords(readAll(), test, target, fom);
  if (tracer_ != nullptr) {
    tracer_->beginSpan("history.query");
    tracer_->setAttr("test", test.empty() ? "*" : std::string(test));
    tracer_->setAttr("target", target.empty() ? "*" : std::string(target));
    tracer_->setAttr("fom", fom.empty() ? "*" : std::string(fom));
    tracer_->setAttr("records", std::to_string(out.size()));
    tracer_->endSpan();
  }
  if (metrics_ != nullptr) metrics_->counter("history.query").inc();
  return out;
}

std::size_t HistoryIndex::segmentCount() const {
  std::size_t count = 0;
  std::string hash = store_.ref(kHeadRef).value_or("");
  while (!hash.empty()) {
    std::string prev;
    readSegment(hash, &prev);
    hash = prev;
    ++count;
  }
  return count;
}

std::map<std::string, std::vector<HistoryRecord>> groupSeries(
    std::span<const HistoryRecord> records) {
  std::map<std::string, std::vector<HistoryRecord>> series;
  for (const HistoryRecord& record : records) {
    series[record.test + "|" + record.target + "|" + record.fom].push_back(
        record);
  }
  return series;
}

namespace {

double meanOf(std::span<const double> values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double stddevOf(std::span<const double> values) {
  if (values.size() < 2) return 0.0;
  const double mean = meanOf(values);
  double squares = 0.0;
  for (const double v : values) squares += (v - mean) * (v - mean);
  return std::sqrt(squares / static_cast<double>(values.size()));
}

std::vector<double> meansOf(const std::vector<HistoryRecord>& series) {
  std::vector<double> means;
  means.reserve(series.size());
  for (const HistoryRecord& record : series) means.push_back(record.mean);
  return means;
}

bool flaggedAt(const std::vector<infer::EdmChangepoint>& flags,
               std::size_t index) {
  return std::any_of(
      flags.begin(), flags.end(),
      [index](const infer::EdmChangepoint& c) { return c.index == index; });
}

std::string renderHistoryText(
    const std::map<std::string, std::vector<HistoryRecord>>& series,
    const RenderOptions& options) {
  std::ostringstream out;
  if (series.empty()) {
    out << "history: no matching records\n";
    return out.str();
  }
  bool first = true;
  for (const auto& [key, records] : series) {
    if (!first) out << "\n";
    first = false;
    const HistoryRecord& head = records.front();
    out << "== " << head.test << " @ " << head.target << " · " << head.fom
        << " (" << records.size() << " record"
        << (records.size() == 1 ? "" : "s") << ") ==\n";
    const std::vector<double> means = meansOf(records);
    out << "  trend |" << sparkline(means) << "|\n";
    const auto flags = infer::detectChangepointsEdm(means);
    out << "  " << std::left << std::setw(6) << "seq" << std::setw(13)
        << "mean" << std::setw(13) << "min" << std::setw(13) << "max"
        << std::setw(8) << "reps" << std::setw(13) << "roll_mean"
        << std::setw(13) << "roll_std" << "flag\n";
    for (std::size_t i = 0; i < records.size(); ++i) {
      const HistoryRecord& record = records[i];
      out << "  " << std::left << std::setw(6) << record.seq << std::setw(13)
          << obs::formatMetricValue(record.mean) << std::setw(13)
          << obs::formatMetricValue(record.min) << std::setw(13)
          << obs::formatMetricValue(record.max) << std::setw(8)
          << record.repeats << std::setw(13)
          << obs::formatMetricValue(rollingMean(means, i, options.window))
          << std::setw(13)
          << obs::formatMetricValue(rollingStddev(means, i, options.window))
          << (flaggedAt(flags, i) ? "*" : "") << "\n";
    }
    if (flags.empty()) {
      out << "  changepoints: none\n";
    } else {
      for (const infer::EdmChangepoint& flag : flags) {
        out << "  changepoint @ seq " << records[flag.index].seq
            << ": median " << obs::formatMetricValue(flag.medianBefore)
            << " -> " << obs::formatMetricValue(flag.medianAfter)
            << " (shift "
            << obs::formatMetricValue(flag.medianAfter - flag.medianBefore)
            << ")\n";
      }
    }
  }
  return out.str();
}

std::string renderHistoryJson(
    const std::map<std::string, std::vector<HistoryRecord>>& series,
    const RenderOptions& options) {
  std::ostringstream out;
  out << "{\"schema\":" << obs::json::quote(kHistorySchema)
      << ",\"series\":[";
  bool firstSeries = true;
  for (const auto& [key, records] : series) {
    if (!firstSeries) out << ",";
    firstSeries = false;
    const HistoryRecord& head = records.front();
    const std::vector<double> means = meansOf(records);
    const auto flags = infer::detectChangepointsEdm(means);
    out << "{\"test\":" << obs::json::quote(head.test)
        << ",\"target\":" << obs::json::quote(head.target)
        << ",\"fom\":" << obs::json::quote(head.fom) << ",\"records\":[";
    for (std::size_t i = 0; i < records.size(); ++i) {
      const HistoryRecord& record = records[i];
      if (i != 0) out << ",";
      out << "{\"seq\":" << record.seq
          << ",\"manifest\":" << obs::json::quote(record.manifestHash)
          << ",\"env\":" << obs::json::quote(record.envFingerprint)
          << ",\"spec\":" << obs::json::quote(record.specHash)
          << ",\"mean\":" << obs::formatMetricValue(record.mean)
          << ",\"min\":" << obs::formatMetricValue(record.min)
          << ",\"max\":" << obs::formatMetricValue(record.max)
          << ",\"ci\":" << obs::formatMetricValue(record.ci)
          << ",\"ess\":" << obs::formatMetricValue(record.ess)
          << ",\"repeats\":" << record.repeats << ",\"sim_timestamp\":"
          << obs::formatMetricValue(record.simTimestamp)
          << ",\"rolling_mean\":"
          << obs::formatMetricValue(rollingMean(means, i, options.window))
          << ",\"rolling_stddev\":"
          << obs::formatMetricValue(rollingStddev(means, i, options.window))
          << ",\"changepoint\":" << (flaggedAt(flags, i) ? "true" : "false")
          << "}";
    }
    out << "],\"changepoints\":[";
    for (std::size_t i = 0; i < flags.size(); ++i) {
      if (i != 0) out << ",";
      out << "{\"index\":" << flags[i].index
          << ",\"seq\":" << records[flags[i].index].seq
          << ",\"median_before\":"
          << obs::formatMetricValue(flags[i].medianBefore)
          << ",\"median_after\":"
          << obs::formatMetricValue(flags[i].medianAfter) << ",\"shift\":"
          << obs::formatMetricValue(flags[i].medianAfter -
                                    flags[i].medianBefore)
          << "}";
    }
    out << "]}";
  }
  out << "]}\n";
  return out.str();
}

}  // namespace

std::string renderHistory(std::span<const HistoryRecord> records,
                          const RenderOptions& options) {
  const auto series = groupSeries(records);
  return options.json ? renderHistoryJson(series, options)
                      : renderHistoryText(series, options);
}

double rollingMean(std::span<const double> values, std::size_t index,
                   std::size_t window) {
  if (index >= values.size() || window == 0) return 0.0;
  const std::size_t begin = index + 1 >= window ? index + 1 - window : 0;
  return meanOf(values.subspan(begin, index + 1 - begin));
}

double rollingStddev(std::span<const double> values, std::size_t index,
                     std::size_t window) {
  if (index >= values.size() || window == 0) return 0.0;
  const std::size_t begin = index + 1 >= window ? index + 1 - window : 0;
  return stddevOf(values.subspan(begin, index + 1 - begin));
}

std::string sparkline(std::span<const double> values) {
  static constexpr std::string_view kLevels = " .:-=+*#%@";
  std::string out;
  out.reserve(values.size());
  if (values.empty()) return out;
  const auto [minIt, maxIt] = std::minmax_element(values.begin(), values.end());
  const double lo = *minIt;
  const double span = *maxIt - lo;
  for (const double v : values) {
    // Degenerate (flat) series sits mid-scale instead of at zero, so a
    // steady FOM doesn't render as blank space.
    double unit = span > 0.0 ? (v - lo) / span : 0.5;
    const auto level = static_cast<std::size_t>(
        unit * static_cast<double>(kLevels.size() - 1) + 0.5);
    out += kLevels[std::min(level, kLevels.size() - 1)];
  }
  return out;
}

std::vector<GateResult> checkRegression(std::span<const HistoryRecord> records,
                                        const GateOptions& options) {
  std::vector<GateResult> verdicts;
  for (const auto& [key, series] : groupSeries(records)) {
    GateResult verdict;
    verdict.series = key;
    if (series.size() < 2) {
      verdict.insufficient = true;
      verdict.latest = series.empty() ? 0.0 : series.back().mean;
      verdict.justification = "insufficient history (need >= 2 records)";
      verdicts.push_back(std::move(verdict));
      continue;
    }
    const std::size_t window = std::max<std::size_t>(options.window, 1);
    const std::size_t newest = series.size() - 1;
    const std::size_t begin = newest >= window ? newest - window : 0;
    std::vector<double> baselineMeans;
    baselineMeans.reserve(newest - begin);
    for (std::size_t i = begin; i < newest; ++i) {
      baselineMeans.push_back(series[i].mean);
    }
    double sum = 0.0;
    for (double mean : baselineMeans) sum += mean;
    verdict.baseline = sum / static_cast<double>(baselineMeans.size());
    verdict.latest = series[newest].mean;
    verdict.latestCi = series[newest].ci;
    verdict.latestEss = series[newest].ess;
    verdict.delta = verdict.baseline != 0.0
                        ? (verdict.latest - verdict.baseline) / verdict.baseline
                        : 0.0;
    // Higher FOM = better: only a *drop* beyond the threshold can
    // regress (candidate test, the pre-infer behaviour)...
    const bool candidate = verdict.delta < -options.threshold;
    // ...and only when it is also significant: the latest mean must
    // fall below the baseline window's own 95% confidence band.  A
    // single-record baseline has no band — fall back to the candidate
    // test alone, exactly the old semantics.
    const infer::SeriesEstimate baseEst = infer::estimateSeries(baselineMeans);
    if (baseEst.n >= 2) {
      verdict.baselineCi = baseEst.ciHalfwidth;
      verdict.significant =
          verdict.latest < verdict.baseline - verdict.baselineCi;
    } else {
      verdict.significant = candidate;
    }
    verdict.regression = candidate && verdict.significant;

    // EDM changepoint scan over the whole series for justification:
    // the most recent accepted split, if any.
    const auto flags = infer::detectChangepointsEdm(meansOf(series));
    if (!flags.empty()) {
      verdict.changepoint = true;
      verdict.changepointIndex = flags.back().index;
    }

    std::ostringstream why;
    if (verdict.regression) {
      why << "drop " << str::fixed(-verdict.delta * 100.0, 1)
          << "% exceeds threshold " << str::fixed(options.threshold * 100.0, 1)
          << "% and latest "
          << obs::formatMetricValue(verdict.latest) << " is below baseline-CI "
          << obs::formatMetricValue(verdict.baseline - verdict.baselineCi);
    } else if (candidate) {
      why << "drop " << str::fixed(-verdict.delta * 100.0, 1)
          << "% exceeds threshold but stays within the baseline CI half-width "
          << obs::formatMetricValue(verdict.baselineCi) << " (not significant)";
    } else {
      why << "delta " << str::fixed(verdict.delta * 100.0, 1)
          << "% within threshold "
          << str::fixed(options.threshold * 100.0, 1) << "%";
    }
    if (verdict.changepoint) {
      why << "; EDM changepoint at seq "
          << series[verdict.changepointIndex].seq;
    }
    verdict.justification = why.str();
    verdicts.push_back(std::move(verdict));
  }
  return verdicts;
}

}  // namespace rebench::history
