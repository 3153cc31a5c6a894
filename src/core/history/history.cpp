#include "core/history/history.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <set>
#include <sstream>

#include "core/framework/perflog.hpp"
#include "core/framework/pipeline.hpp"
#include "core/infer/changepoint_edm.hpp"
#include "core/infer/estimator.hpp"
#include "core/obs/json.hpp"
#include "core/obs/metrics.hpp"
#include "core/store/manifest.hpp"
#include "core/store/object_store.hpp"
#include "core/util/ditto.hpp"
#include "core/util/error.hpp"
#include "core/util/strings.hpp"

namespace rebench::history {

std::vector<FomAggregate> aggregateFoms(
    std::span<const TestRunResult> results) {
  struct Series {
    FomAggregate aggregate;
    double sum = 0.0;
    std::vector<double> samples;  // repeat order, for the CI/ESS view
  };
  // Keyed (test, target, fom) so output order is canonical regardless of
  // the (already canonical) result order.
  std::map<std::string, Series> series;
  for (const TestRunResult& result : results) {
    if (result.quarantined || result.foms.empty()) continue;
    const std::string target = result.system + ":" + result.partition;
    for (const auto& [fom, value] : result.foms) {
      Series& acc = series[result.testName + "|" + target + "|" + fom];
      FomAggregate& aggregate = acc.aggregate;
      if (acc.samples.empty()) {
        aggregate.test = result.testName;
        aggregate.target = target;
        aggregate.fom = fom;
        // A (test, system) pair concretizes to one DAG.
        if (result.concreteSpec != nullptr) {
          aggregate.specHash = result.concreteSpec->dagHash();
        }
        aggregate.min = value;
        aggregate.max = value;
      }
      acc.sum += value;
      aggregate.min = std::min(aggregate.min, value);
      aggregate.max = std::max(aggregate.max, value);
      acc.samples.push_back(value);
    }
  }
  std::vector<FomAggregate> out;
  out.reserve(series.size());
  for (auto& [key, acc] : series) {
    FomAggregate& aggregate = acc.aggregate;
    aggregate.repeats = static_cast<int>(acc.samples.size());
    aggregate.mean = acc.sum / aggregate.repeats;
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
/// What every segment schema starts with.
constexpr std::string_view kSchemaPrefix = "rebench.history/";

/// A record's row fields, text escaped.  The numbers keep
/// rebench.history/1's text, so both encodings parse to one double.
std::vector<std::string> rowFields(const HistoryRecord& record) {
  return {str::percentEscape(record.test),
          str::percentEscape(record.target),
          str::percentEscape(record.fom),
          str::percentEscape(record.manifestHash),
          str::percentEscape(record.envFingerprint),
          str::percentEscape(record.specHash),
          str::fixed(record.mean, 6),
          str::fixed(record.min, 6),
          str::fixed(record.max, 6),
          str::fixed(record.ci, 6),
          str::fixed(record.ess, 3),
          std::to_string(record.repeats),
          str::fixed(record.simTimestamp, 6)};
}

/// One row of a kSegmentSchema segment, its dittos resolved.
HistoryRecord parseRow(std::span<const std::string_view> fields,
                       std::uint64_t seq) {
  HistoryRecord record;
  record.seq = seq;
  record.test = str::percentUnescape(fields[0]);
  record.target = str::percentUnescape(fields[1]);
  record.fom = str::percentUnescape(fields[2]);
  record.manifestHash = str::percentUnescape(fields[3]);
  record.envFingerprint = str::percentUnescape(fields[4]);
  record.specHash = str::percentUnescape(fields[5]);
  record.mean = str::parseWhole<double>(fields[6], "history mean");
  record.min = str::parseWhole<double>(fields[7], "history min");
  record.max = str::parseWhole<double>(fields[8], "history max");
  record.ci = str::parseWhole<double>(fields[9], "history ci");
  record.ess = str::parseWhole<double>(fields[10], "history ess");
  record.repeats = str::parseWhole<int>(fields[11], "history repeats");
  record.simTimestamp =
      str::parseWhole<double>(fields[12], "history sim_timestamp");
  return record;
}

std::vector<HistoryRecord> parseRows(std::string_view bytes,
                                     std::string* prevHash,
                                     std::uint64_t* seq) {
  ditto::Reader reader(bytes, kHeaderFields, "history segment", "row");
  std::string prev = str::percentUnescape(reader.header()[1]);
  const auto headerSeq = str::parseWhole<std::uint64_t>(
      reader.header()[2], "history segment seq");
  const auto base = str::parseWhole<std::uint64_t>(
      reader.header()[3], "history segment base");
  std::vector<HistoryRecord> records;
  records.reserve(reader.rows());
  while (reader.next()) {
    if (reader.fields().size() != kRowFields) {
      throw Error("history segment row has " +
                  std::to_string(reader.fields().size()) +
                  " fields (expected " + std::to_string(kRowFields) + ")");
    }
    records.push_back(parseRow(reader.fields(), base + records.size()));
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
  ditto::Writer writer(std::string(kSegmentSchema) + "|" +
                           str::percentEscape(prevHash) + "|" +
                           std::to_string(seq) + "|" + std::to_string(base),
                       records.size());
  for (const HistoryRecord& record : records) writer.row(rowFields(record));
  return writer.take();
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

}  // namespace

HistoryIndex::HistoryIndex(store::ObjectStore& store) : store_(store) {}

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
  return publish(tip, records, nullptr);
}

std::string HistoryIndex::publish(const ChainTip& tip,
                                  std::span<const HistoryRecord> records,
                                  std::string* adoptable) {
  if (records.empty()) return "";
  std::vector<HistoryRecord> stamped(records.begin(), records.end());
  std::string hash;
  bool first = true;
  // When another writer moved the head first, attach after its segment;
  // the segment just put stays in the store, unreferenced.
  for (ChainTip at = tip;; at = headTip(), first = false) {
    for (std::size_t i = 0; i < stamped.size(); ++i) {
      stamped[i].seq = at.base + i;
    }
    std::string bytes = serializeSegment(stamped, at.head, at.seq, at.base);
    bool wrote = false;
    hash = store_.put(bytes, &wrote);
    if (store_.compareAndSetRef(kHeadRef, at.head, hash)) {
      if (adoptable != nullptr && first && wrote) *adoptable = std::move(bytes);
      break;
    }
  }
  return hash;
}

std::string HistoryIndex::extend(Chain& chain,
                                 std::span<const HistoryRecord> records) {
  try {
    std::string bytes;
    const std::string hash = publish(chain.tip, records, &bytes);
    if (bytes.empty()) {
      if (!hash.empty()) readNewer(chain, hash);
      return hash;
    }
    // The segment attaches at the chain's tip and its file holds `bytes`,
    // which hash to its name: parse them instead of reading them back.
    // The racy stamp has the next refresh verify the file once.
    std::uint64_t seq = 0;
    const std::vector<HistoryRecord> adopted =
        parseSegment(bytes, nullptr, &seq);
    chain.records.insert(chain.records.end(), adopted.begin(), adopted.end());
    chain.segments.push_back({.hash = hash});
    chain.tip = tipAfter(hash, seq, adopted);
    return hash;
  } catch (...) {
    chain = Chain{};
    throw;
  }
}

std::vector<HistoryRecord> HistoryIndex::readSegment(
    const std::string& hash, std::string* prevHash, std::uint64_t* seq,
    store::ObjectStamp* stamp) const {
  ++segmentReads_;
  const auto bytes = store_.get(hash, stamp);
  if (!bytes) {
    throw Error("history chain is broken: segment '" + hash +
                "' is missing from the store");
  }
  return parseSegment(*bytes, prevHash, seq);
}

bool HistoryIndex::readNewer(Chain& chain, const std::string& head) const {
  struct Walked {
    std::vector<HistoryRecord> records;
    store::ObjectStamp stamp;
  };
  std::vector<Walked> newer;  // newest first
  ChainTip tip;
  std::string hash = head;
  while (!hash.empty() && hash != chain.tip.head) {
    Walked& segment = newer.emplace_back();
    std::string prev;
    std::uint64_t seq = 0;
    segment.records = readSegment(hash, &prev, &seq, &segment.stamp);
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
      store::ObjectStamp& stamp = chain.segments[i];
      if (!store_.unchanged(stamp)) {
        readSegment(stamp.hash, nullptr, nullptr, &stamp);
      }
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
  return selectRecords(readAll(), test, target, fom);
}

std::vector<std::string> lintHistory(store::ObjectStore& store,
                                     std::span<const HistoryRecord> records) {
  // What each cited manifest vouches for, read once: "test@target" per
  // run and "test@target|fom" per foms entry, or why it does not load.
  struct Cited {
    std::string error;
    std::set<std::string> runs;
    std::set<std::string> foms;
  };
  std::map<std::string, Cited> cited;
  std::vector<std::string> issues;
  for (const HistoryRecord& record : records) {
    auto it = cited.find(record.manifestHash);
    if (it == cited.end()) {
      Cited manifest;
      if (record.manifestHash.empty()) {
        manifest.error = "cites no manifest";
      } else {
        try {
          const store::CampaignManifest loaded =
              store::CampaignManifest::load(store, record.manifestHash);
          for (const store::RunManifest& run : loaded.runs) {
            manifest.runs.insert(run.test + "@" + run.target);
          }
          for (const store::FomManifest& fom : loaded.foms) {
            manifest.foms.insert(fom.test + "@" + fom.target + "|" + fom.fom);
          }
        } catch (const Error& e) {
          manifest.error = e.what();
        }
      }
      it = cited.emplace(record.manifestHash, std::move(manifest)).first;
    }
    const Cited& manifest = it->second;
    const std::string pair = record.test + "@" + record.target;
    std::string problem = manifest.error;
    if (problem.empty() && !manifest.runs.contains(pair)) {
      problem = "manifest " + record.manifestHash + " records no run of " +
                record.test + " @ " + record.target;
    }
    if (problem.empty() && !manifest.foms.empty() &&
        !manifest.foms.contains(pair + "|" + record.fom)) {
      problem = "manifest " + record.manifestHash + " records no fom '" +
                record.fom + "' of " + record.test + " @ " + record.target;
    }
    if (!problem.empty()) {
      issues.push_back("history record seq " + std::to_string(record.seq) +
                       " (" + record.test + " @ " + record.target +
                       "): " + problem);
    }
  }
  return issues;
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
