// Property-based test sweeps: randomised inputs driven through invariants,
// parameterised over seeds (TEST_P) so each seed is an independent case.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <string_view>

#include "core/concretizer/concretizer.hpp"
#include "core/spec/spec.hpp"
#include "core/util/error.hpp"
#include "core/fault/fault.hpp"
#include "core/fault/journal.hpp"
#include "core/framework/perflog.hpp"
#include "core/framework/pipeline.hpp"
#include "core/history/history.hpp"
#include "core/obs/json.hpp"
#include "core/obs/metrics.hpp"
#include "core/obs/trace.hpp"
#include "core/obs/trace_reader.hpp"
#include "core/postproc/dataframe.hpp"
#include "core/postproc/profile.hpp"
#include "core/sched/scheduler.hpp"
#include "core/service/journal.hpp"
#include "core/service/queue.hpp"
#include "core/store/manifest.hpp"
#include "core/store/object_store.hpp"
#include "core/sysconfig/system_config.hpp"
#include "core/telemetry/http.hpp"
#include "core/telemetry/plane.hpp"
#include "core/util/ditto.hpp"
#include "core/util/rng.hpp"
#include "core/util/strings.hpp"
#include "core/util/version.hpp"
#include "journal_state.hpp"
#include "manifest_v1.hpp"

namespace rebench {
namespace {

// ---------------------------------------------------------------------------
// Version ordering is a strict total order consistent with prefixes.
// ---------------------------------------------------------------------------

class VersionOrderProperty : public ::testing::TestWithParam<int> {};

Version randomVersion(Rng& rng) {
  std::string text = std::to_string(rng.below(20));
  const std::uint64_t components = rng.below(3);
  for (std::uint64_t i = 0; i < components; ++i) {
    text += "." + std::to_string(rng.below(30));
  }
  if (rng.uniform() < 0.15) text += "rc" + std::to_string(rng.below(3));
  return Version::parse(text);
}

TEST_P(VersionOrderProperty, TotalOrderAxioms) {
  Rng rng(GetParam());
  std::vector<Version> versions;
  for (int i = 0; i < 24; ++i) versions.push_back(randomVersion(rng));

  for (const Version& a : versions) {
    EXPECT_FALSE(a < a);  // irreflexive
    for (const Version& b : versions) {
      // Trichotomy: exactly one of <, ==, > holds.
      const int relations = (a < b) + (a == b) + (b < a);
      EXPECT_EQ(relations, 1) << a.toString() << " vs " << b.toString();
      for (const Version& c : versions) {
        if (a < b && b < c) {
          EXPECT_LT(a, c);  // transitivity
        }
      }
    }
  }
}

TEST_P(VersionOrderProperty, SortThenCheckMonotone) {
  Rng rng(GetParam() + 1000);
  std::vector<Version> versions;
  for (int i = 0; i < 50; ++i) versions.push_back(randomVersion(rng));
  std::sort(versions.begin(), versions.end());
  for (std::size_t i = 1; i < versions.size(); ++i) {
    EXPECT_FALSE(versions[i] < versions[i - 1]);
  }
}

TEST_P(VersionOrderProperty, PrefixImpliesRangeMembership) {
  Rng rng(GetParam() + 2000);
  for (int i = 0; i < 30; ++i) {
    const Version v = randomVersion(rng);
    // Any version satisfies the exact-constraint of its own text.
    EXPECT_TRUE(
        VersionConstraint::parse(v.toString()).satisfiedBy(v));
    // And the unbounded ranges on either side of itself.
    EXPECT_TRUE(
        VersionConstraint::parse(v.toString() + ":").satisfiedBy(v));
    EXPECT_TRUE(
        VersionConstraint::parse(":" + v.toString()).satisfiedBy(v));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VersionOrderProperty,
                         ::testing::Range(1, 6));

// ---------------------------------------------------------------------------
// Scheduler invariants under random job streams.
// ---------------------------------------------------------------------------

class SchedulerProperty : public ::testing::TestWithParam<int> {};

TEST_P(SchedulerProperty, RandomStreamInvariants) {
  Rng rng(GetParam() * 7919);
  ClusterOptions cluster;
  cluster.numNodes = 3 + static_cast<int>(rng.below(4));
  cluster.coresPerNode = 8;
  SchedulerSim sim(cluster);

  std::vector<JobId> jobs;
  const int jobCount = 25;
  for (int i = 0; i < jobCount; ++i) {
    JobRequest request;
    request.name = "job" + std::to_string(i);
    request.numTasks = 1 + static_cast<int>(rng.below(4));
    request.numTasksPerNode = 1;
    request.numCpusPerTask = 1 + static_cast<int>(rng.below(4));
    const double runtime = 1.0 + rng.uniform(0.0, 30.0);
    request.timeLimit = 25.0;  // some jobs will exceed this
    request.payload = [runtime](const Allocation&) {
      return JobOutcome{true, runtime, "done\n"};
    };
    try {
      jobs.push_back(sim.submit(std::move(request)));
    } catch (const SchedulerError&) {
      // Oversized for this random cluster: a legitimate rejection.
    }
  }
  sim.drain();

  int running = 0;
  for (JobId id : jobs) {
    const JobInfo& job = sim.query(id);
    // 1. Every accepted job reaches a terminal state.
    EXPECT_NE(job.state, JobState::kPending);
    running += job.state == JobState::kRunning;
    // 2. Causality: submit <= start <= end.
    if (job.startTime >= 0.0) {
      EXPECT_GE(job.startTime, job.submitTime);
      EXPECT_GE(job.endTime, job.startTime);
      // 3. Timeout jobs ran exactly their limit.
      if (job.state == JobState::kTimeout) {
        EXPECT_NEAR(job.endTime - job.startTime, 25.0, 1e-9);
      }
      // 4. Allocation within cluster bounds.
      EXPECT_LE(static_cast<int>(job.allocation.nodeIds.size()),
                cluster.numNodes);
      for (int node : job.allocation.nodeIds) {
        EXPECT_GE(node, 0);
        EXPECT_LT(node, cluster.numNodes);
      }
    }
  }
  EXPECT_EQ(running, 0);
  // 5. Conservation: all cores free after drain.
  EXPECT_EQ(sim.idleCores(), sim.totalCores());
}

TEST_P(SchedulerProperty, NoOverlappingAllocationsOverTime) {
  // Advance in small steps and verify the core accounting never goes
  // negative or above capacity.
  Rng rng(GetParam() * 104729);
  SchedulerSim sim({.numNodes = 2, .coresPerNode = 4});
  for (int i = 0; i < 12; ++i) {
    JobRequest request;
    request.name = "j" + std::to_string(i);
    request.numTasks = 1;
    request.numTasksPerNode = 1;
    request.numCpusPerTask = 1 + static_cast<int>(rng.below(4));
    const double runtime = rng.uniform(0.5, 8.0);
    request.payload = [runtime](const Allocation&) {
      return JobOutcome{true, runtime, ""};
    };
    sim.submit(std::move(request));
  }
  for (int step = 0; step < 200; ++step) {
    sim.advance(0.5);
    EXPECT_GE(sim.idleCores(), 0);
    EXPECT_LE(sim.idleCores(), sim.totalCores());
  }
  sim.drain();
  EXPECT_EQ(sim.idleCores(), sim.totalCores());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerProperty, ::testing::Range(1, 9));

// ---------------------------------------------------------------------------
// DataFrame algebra on random frames.
// ---------------------------------------------------------------------------

class DataFrameProperty : public ::testing::TestWithParam<int> {};

DataFrame randomFrame(Rng& rng, std::size_t rows) {
  DataFrame::StringColumn group, label;
  DataFrame::NumericColumn value;
  for (std::size_t i = 0; i < rows; ++i) {
    group.push_back("g" + std::to_string(rng.below(4)));
    label.push_back("l" + std::to_string(rng.below(3)));
    value.push_back(rng.uniform(-100.0, 100.0));
  }
  DataFrame frame;
  frame.addStrings("group", std::move(group));
  frame.addStrings("label", std::move(label));
  frame.addNumeric("value", std::move(value));
  return frame;
}

TEST_P(DataFrameProperty, CsvRoundTripPreservesEverything) {
  Rng rng(GetParam() * 31);
  const DataFrame frame = randomFrame(rng, 40);
  const DataFrame reparsed = DataFrame::fromCsv(frame.toCsv());
  ASSERT_EQ(reparsed.rowCount(), frame.rowCount());
  ASSERT_EQ(reparsed.columnNames(), frame.columnNames());
  for (std::size_t i = 0; i < frame.rowCount(); ++i) {
    EXPECT_EQ(reparsed.strings("group")[i], frame.strings("group")[i]);
    EXPECT_NEAR(reparsed.numeric("value")[i], frame.numeric("value")[i],
                1e-5);
  }
}

TEST_P(DataFrameProperty, GroupSumsPartitionTotal) {
  Rng rng(GetParam() * 37);
  const DataFrame frame = randomFrame(rng, 60);
  double total = 0.0;
  for (double v : frame.numeric("value")) total += v;
  const std::array<std::string, 1> keys{"group"};
  const DataFrame grouped = frame.groupBy(keys, "value", Agg::kSum);
  double groupedTotal = 0.0;
  for (double v : grouped.numeric("value")) groupedTotal += v;
  EXPECT_NEAR(total, groupedTotal, 1e-9);
}

TEST_P(DataFrameProperty, PivotCellsCoverEveryObservedPair) {
  Rng rng(GetParam() * 41);
  const DataFrame frame = randomFrame(rng, 50);
  const PivotTable pivot = frame.pivot("group", "label", "value");
  // Every row of the frame must land in a non-empty pivot cell.
  for (std::size_t i = 0; i < frame.rowCount(); ++i) {
    const auto& rows = pivot.rowLabels;
    const auto& cols = pivot.colLabels;
    const auto r = std::find(rows.begin(), rows.end(),
                             frame.strings("group")[i]) -
                   rows.begin();
    const auto c = std::find(cols.begin(), cols.end(),
                             frame.strings("label")[i]) -
                   cols.begin();
    ASSERT_LT(static_cast<std::size_t>(r), rows.size());
    ASSERT_LT(static_cast<std::size_t>(c), cols.size());
    EXPECT_TRUE(pivot.cells[r][c].has_value());
  }
}

TEST_P(DataFrameProperty, FilterPartitionsRows) {
  Rng rng(GetParam() * 43);
  const DataFrame frame = randomFrame(rng, 50);
  const auto& values = frame.numeric("value");
  const DataFrame pos =
      frame.filter([&](std::size_t i) { return values[i] >= 0.0; });
  const DataFrame neg =
      frame.filter([&](std::size_t i) { return values[i] < 0.0; });
  EXPECT_EQ(pos.rowCount() + neg.rowCount(), frame.rowCount());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DataFrameProperty, ::testing::Range(1, 7));

// ---------------------------------------------------------------------------
// Perflog serialization is injective and total over nasty strings, a
// stored perflog object decodes to the perflog's bytes, and damaged lines
// and objects parse or throw rebench::Error.
// ---------------------------------------------------------------------------

class PerflogProperty : public ::testing::TestWithParam<int> {};

std::string randomNasty(Rng& rng) {
  static constexpr char kAlphabet[] =
      "abc|=%\n\t ,\"'\\0123<>&^~+@:$";
  std::string out;
  const std::uint64_t length = rng.below(24);
  for (std::uint64_t i = 0; i < length; ++i) {
    out += kAlphabet[rng.below(sizeof(kAlphabet) - 1)];
  }
  return out;
}

/// An entry whose every text field, extras key and extras value is nasty
/// text (empty included) or, with `above`, often the above entry's.
PerfLogEntry randomEntry(Rng& rng, const PerfLogEntry* above = nullptr) {
  const auto text = [&](const std::string& previous) {
    return above != nullptr && rng.below(2) == 0 ? previous
                                                 : randomNasty(rng);
  };
  PerfLogEntry entry;
  entry.timestamp = text(above ? above->timestamp : "");
  entry.frameworkVersion = text(above ? above->frameworkVersion : "");
  entry.system = text(above ? above->system : "");
  entry.partition = text(above ? above->partition : "");
  entry.environ = text(above ? above->environ : "");
  entry.testName = text(above ? above->testName : "");
  entry.spec = text(above ? above->spec : "");
  entry.specHash = text(above ? above->specHash : "");
  entry.binaryId = text(above ? above->binaryId : "");
  entry.jobId = text(above ? above->jobId : "");
  entry.fomName = text(above ? above->fomName : "");
  entry.value = above != nullptr && rng.below(2) == 0
                    ? above->value
                    : std::round(rng.uniform(-1e6, 1e6) * 1e6) / 1e6;
  entry.unit = rng.below(2) == 0 ? Unit::kGBperSec : Unit::kSeconds;
  if (rng.below(2) == 0) {
    entry.reference = std::round(rng.uniform(-1e6, 1e6) * 1e6) / 1e6;
    entry.lowerThresh = -0.05;
    entry.upperThresh = 0.1;
  }
  entry.result = text(above ? above->result : "");
  if (above != nullptr && rng.below(2) == 0) entry.extras = above->extras;
  for (std::uint64_t n = rng.below(4); n > 0; --n) {
    entry.extras[randomNasty(rng)] = randomNasty(rng);
  }
  return entry;
}

TEST_P(PerflogProperty, RoundTripArbitraryContent) {
  Rng rng(GetParam() * 53);
  for (int i = 0; i < 20; ++i) {
    const PerfLogEntry entry = randomEntry(rng);
    const std::string line = entry.serialize();
    EXPECT_EQ(line.find('\n'), std::string::npos);
    const PerfLogEntry parsed = PerfLogEntry::parse(line);
    EXPECT_EQ(parsed.timestamp, entry.timestamp);
    EXPECT_EQ(parsed.system, entry.system);
    EXPECT_EQ(parsed.testName, entry.testName);
    EXPECT_EQ(parsed.spec, entry.spec);
    EXPECT_EQ(parsed.result, entry.result);
    EXPECT_EQ(parsed.extras, entry.extras);
    EXPECT_EQ(parsed.value, entry.value);
    EXPECT_EQ(parsed.reference, entry.reference);
    EXPECT_EQ(parsed.serialize(), line);
  }
}

/// A campaign-like perflog: serialized random entries, each line sharing
/// many fields with the line above.
std::vector<std::string> randomPerflog(Rng& rng) {
  std::vector<std::string> lines;
  PerfLogEntry above;
  for (std::uint64_t n = rng.below(41); n > 0; --n) {
    above = randomEntry(rng, lines.empty() ? nullptr : &above);
    lines.push_back(above.serialize());
  }
  return lines;
}

TEST_P(PerflogProperty, ObjectsDecodeToThePerflogBytes) {
  Rng rng(GetParam() * 59);
  for (int i = 0; i < 20; ++i) {
    const std::vector<std::string> lines = randomPerflog(rng);
    std::string raw;
    for (const std::string& line : lines) raw += line + "\n";
    const std::string object = encodePerflogObject(lines);
    EXPECT_EQ(object.rfind("rebench.perflog/2|" +
                               std::to_string(lines.size()) + "\n",
                           0),
              0u);
    EXPECT_EQ(decodePerflogObject(object), raw) << object;
    EXPECT_EQ(encodePerflogObject(lines), object);
  }
}

/// Applies 1-3 random truncations, byte flips and insertions.
std::string damage(Rng& rng, std::string_view original,
                   std::string_view structural) {
  std::string bytes(original);
  for (std::uint64_t edits = 1 + rng.below(3); edits > 0; --edits) {
    const std::size_t at = rng.below(bytes.size() + 1);
    switch (rng.below(3)) {
      case 0:
        bytes.resize(at);
        break;
      case 1:
        if (at < bytes.size()) bytes[at] = static_cast<char>(rng.below(256));
        break;
      default:
        bytes.insert(at, 1,
                     rng.below(2) == 0
                         ? structural[rng.below(structural.size())]
                         : static_cast<char>(rng.below(256)));
    }
  }
  return bytes;
}

TEST_P(PerflogProperty, DamagedLinesAndObjectsParseOrThrow) {
  static constexpr std::string_view kStructural = "|=%\n:x0129.-e";
  Rng rng(GetParam() * 61);
  std::vector<std::string> lines;
  while (lines.size() < 2) lines = randomPerflog(rng);
  const std::string object = encodePerflogObject(lines);
  // Whatever parses holds finite numbers.
  const auto expectFinite = [](const PerfLogEntry& entry) {
    EXPECT_TRUE(std::isfinite(entry.value)) << entry.serialize();
    EXPECT_TRUE(!entry.reference || std::isfinite(*entry.reference))
        << entry.serialize();
    EXPECT_TRUE(std::isfinite(entry.lowerThresh)) << entry.serialize();
    EXPECT_TRUE(std::isfinite(entry.upperThresh)) << entry.serialize();
  };
  for (int trial = 0; trial < 300; ++trial) {
    try {
      expectFinite(PerfLogEntry::parse(damage(rng, lines[0], kStructural)));
    } catch (const Error&) {
      // Damage may be rejected; anything but rebench::Error fails.
    }
    try {
      const std::string raw =
          decodePerflogObject(damage(rng, object, kStructural));
      for (const PerfLogEntry& entry :
           PerfLog::parseLinesLenient(str::split(raw, '\n')).entries) {
        expectFinite(entry);
      }
    } catch (const Error&) {
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PerflogProperty, ::testing::Range(1, 5));

// ---------------------------------------------------------------------------
// History segments: ditto-coded rows round-trip nasty strings exactly, and
// damaged segments of either schema parse or throw rebench::Error.
// ---------------------------------------------------------------------------

class HistorySegmentProperty : public ::testing::TestWithParam<int> {};

/// Empty, the row above's value, a literal "=", or nasty text.
std::string randomField(Rng& rng, const std::string& above) {
  switch (rng.below(4)) {
    case 0: return "";
    case 1: return above;
    case 2: return "=";
    default: return randomNasty(rng);
  }
}

/// The row above's value or a number `decimals` fixed decimals hold exactly.
double randomNumber(Rng& rng, double above, int decimals) {
  if (rng.below(3) == 0) return above;
  const double scale = std::pow(10.0, decimals);
  return std::round(rng.uniform(-1e6, 1e6) * scale) / scale;
}

std::vector<history::HistoryRecord> randomRecords(Rng& rng) {
  std::vector<history::HistoryRecord> records(1 + rng.below(12));
  for (std::size_t i = 0; i < records.size(); ++i) {
    const history::HistoryRecord above =
        i == 0 ? history::HistoryRecord{} : records[i - 1];
    history::HistoryRecord& record = records[i];
    record.test = randomField(rng, above.test);
    record.target = randomField(rng, above.target);
    record.fom = randomField(rng, above.fom);
    record.manifestHash = randomField(rng, above.manifestHash);
    record.envFingerprint = randomField(rng, above.envFingerprint);
    record.specHash = randomField(rng, above.specHash);
    record.mean = randomNumber(rng, above.mean, 6);
    record.min = randomNumber(rng, above.min, 6);
    record.max = randomNumber(rng, above.max, 6);
    record.ci = randomNumber(rng, above.ci, 6);
    record.ess = randomNumber(rng, above.ess, 3);
    record.repeats = rng.below(3) == 0
                         ? above.repeats
                         : static_cast<int>(rng.below(2001)) - 1000;
    record.simTimestamp = randomNumber(rng, above.simTimestamp, 6);
  }
  return records;
}

TEST_P(HistorySegmentProperty, RoundTripsNastyRecordsExactly) {
  Rng rng(GetParam() * 71);
  for (int i = 0; i < 20; ++i) {
    const std::vector<history::HistoryRecord> records = randomRecords(rng);
    const std::string prev = randomNasty(rng);
    const std::uint64_t seq = rng.below(1000);
    const std::uint64_t base = rng.below(1000);
    const std::string bytes =
        history::serializeSegment(records, prev, seq, base);
    std::string parsedPrev;
    std::uint64_t parsedSeq = 0;
    const auto parsed = history::parseSegment(bytes, &parsedPrev, &parsedSeq);
    EXPECT_EQ(parsedPrev, prev);
    EXPECT_EQ(parsedSeq, seq);
    ASSERT_EQ(parsed.size(), records.size()) << bytes;
    for (std::size_t j = 0; j < records.size(); ++j) {
      const history::HistoryRecord& want = records[j];
      const history::HistoryRecord& got = parsed[j];
      EXPECT_EQ(got.seq, base + j);
      EXPECT_EQ(got.test, want.test);
      EXPECT_EQ(got.target, want.target);
      EXPECT_EQ(got.fom, want.fom);
      EXPECT_EQ(got.manifestHash, want.manifestHash);
      EXPECT_EQ(got.envFingerprint, want.envFingerprint);
      EXPECT_EQ(got.specHash, want.specHash);
      EXPECT_EQ(got.mean, want.mean);
      EXPECT_EQ(got.min, want.min);
      EXPECT_EQ(got.max, want.max);
      EXPECT_EQ(got.ci, want.ci);
      EXPECT_EQ(got.ess, want.ess);
      EXPECT_EQ(got.repeats, want.repeats);
      EXPECT_EQ(got.simTimestamp, want.simTimestamp);
    }
    EXPECT_EQ(history::serializeSegment(parsed, prev, seq, base), bytes);
  }
}

/// A rebench.history/1 segment as its JSON-lines writer wrote one.
constexpr std::string_view kJsonLinesSegment =
    "{\"kind\":\"meta\",\"schema\":\"rebench.history/1\",\"prev\":"
    "\"cafecafecafecafe\",\"seq\":4,\"base\":9,\"records\":2}\n"
    "{\"kind\":\"record\",\"seq\":9,\"test\":\"a|b=\\\"\\n\",\"target\":"
    "\"archer2:compute\",\"fom\":\"Triad\",\"manifest\":\"0123456789abcdef\","
    "\"env\":\"fedcba9876543210\",\"spec\":\"00ff00ff00ff00ff\",\"mean\":"
    "100.100000,\"min\":99.100000,\"max\":101.100000,\"ci\":0.250000,"
    "\"ess\":2.500,\"repeats\":3,\"sim_timestamp\":12.500000}\n"
    "{\"kind\":\"record\",\"seq\":10,\"test\":\"B\",\"target\":"
    "\"archer2:compute\",\"fom\":\"Copy\",\"manifest\":\"0123456789abcdef\","
    "\"env\":\"fedcba9876543210\",\"spec\":\"00ff00ff00ff00ff\",\"mean\":"
    "50.000000,\"min\":49.000000,\"max\":51.000000,\"ci\":0.000000,"
    "\"ess\":0.000,\"repeats\":3,\"sim_timestamp\":12.500000}\n";

TEST_P(HistorySegmentProperty, DamagedSegmentsParseOrThrow) {
  static constexpr std::string_view kStructural = "|=%\n\"{}[]:,-.e09";
  Rng rng(GetParam() * 73);
  const std::string rows = history::serializeSegment(
      randomRecords(rng), "cafecafecafecafe", 4, 9);
  for (const std::string_view original :
       {std::string_view(rows), kJsonLinesSegment}) {
    ASSERT_FALSE(history::parseSegment(original).empty());
    for (int trial = 0; trial < 300; ++trial) {
      try {
        (void)history::parseSegment(damage(rng, original, kStructural));
      } catch (const Error&) {
        // Damage may be rejected; anything but rebench::Error fails.
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistorySegmentProperty, ::testing::Range(1, 5));

// ---------------------------------------------------------------------------
// The ditto codec both stored row formats share: row sets round-trip
// through Writer and Reader, and a damaged encoding decodes or throws
// rebench::Error.
// ---------------------------------------------------------------------------

class DittoCodecProperty : public ::testing::TestWithParam<int> {};

/// Rows of 1-5 escaped fields, each often empty, the field above or the
/// field two above.
std::vector<std::vector<std::string>> randomRows(Rng& rng) {
  std::vector<std::vector<std::string>> rows(rng.below(10));
  for (std::size_t row = 0; row < rows.size(); ++row) {
    for (std::uint64_t i = 0, width = 1 + rng.below(5); i < width; ++i) {
      const std::size_t back = 1 + rng.below(2);
      const bool above = row >= back && i < rows[row - back].size();
      switch (rng.below(4)) {
        case 0: rows[row].emplace_back(); break;
        case 1:
          if (above) {
            rows[row].push_back(rows[row - back][i]);
            break;
          }
          [[fallthrough]];
        default: rows[row].push_back(str::percentEscape(randomNasty(rng)));
      }
    }
  }
  return rows;
}

/// Encodes `rows` under a three-field header.
std::string encodeRows(const std::vector<std::vector<std::string>>& rows) {
  ditto::Writer writer("head|er", rows.size());
  for (const std::vector<std::string>& row : rows) writer.row(row);
  return writer.take();
}

/// Decodes `bytes` (a three-field header) back into rows.
std::vector<std::vector<std::string>> decodeRows(std::string_view bytes) {
  ditto::Reader reader(bytes, 3, "ditto text", "row");
  std::vector<std::vector<std::string>> rows;
  while (reader.next()) {
    rows.emplace_back(reader.fields().begin(), reader.fields().end());
  }
  EXPECT_EQ(rows.size(), reader.rows());
  return rows;
}

TEST_P(DittoCodecProperty, RowSetsRoundTrip) {
  Rng rng(GetParam() * 103);
  // What the sets held, so the seed is known to have exercised each case.
  int repeats = 0;
  int empties = 0;
  int twoAbove = 0;
  int widthChanges = 0;
  for (int i = 0; i < 30; ++i) {
    const std::vector<std::vector<std::string>> rows = randomRows(rng);
    for (std::size_t row = 1; row < rows.size(); ++row) {
      widthChanges += rows[row].size() != rows[row - 1].size();
      for (std::size_t f = 0; f < rows[row].size(); ++f) {
        const std::string& field = rows[row][f];
        empties += field.empty();
        const bool same = f < rows[row - 1].size() && rows[row - 1][f] == field;
        repeats += same && !field.empty();
        twoAbove += !same && row >= 2 && f < rows[row - 2].size() &&
                    rows[row - 2][f] == field && !field.empty();
      }
    }
    const std::string bytes = encodeRows(rows);
    EXPECT_EQ(decodeRows(bytes), rows) << bytes;
    EXPECT_EQ(encodeRows(decodeRows(bytes)), bytes);
  }
  EXPECT_GT(repeats, 0);
  EXPECT_GT(empties, 0);
  EXPECT_GT(twoAbove, 0);
  EXPECT_GT(widthChanges, 0);
}

TEST_P(DittoCodecProperty, DamagedEncodingsDecodeOrThrow) {
  static constexpr std::string_view kStructural = "|=%\n0129";
  Rng rng(GetParam() * 107);
  for (int i = 0; i < 5; ++i) {
    const std::string bytes = encodeRows(randomRows(rng));
    for (int trial = 0; trial < 300; ++trial) {
      try {
        (void)decodeRows(damage(rng, bytes, kStructural));
      } catch (const Error&) {
        // Damage may be rejected; anything but rebench::Error fails.
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DittoCodecProperty, ::testing::Range(1, 5));

// ---------------------------------------------------------------------------
// Service journal: any sequence of checkpoints, reopens and compactions
// reads back as the replay rules say, and a damaged journal opens or
// throws rebench::Error.
// ---------------------------------------------------------------------------

using service::describe;
using service::ServiceJournal;

class ServiceJournalProperty : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    // One directory per test and seed: ctest -j runs them concurrently.
    std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::replace(name.begin(), name.end(), '/', '_');
    queue_ = (std::filesystem::path(::testing::TempDir()) /
              ("service_journal_" + name))
                 .string();
    std::filesystem::remove_all(queue_);
    path_ = ServiceJournal::pathFor(queue_);
  }
  void TearDown() override { std::filesystem::remove_all(queue_); }

  std::string contents() const {
    std::ifstream in(path_, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
  }

  std::string queue_;
  std::string path_;
};

/// A double at full precision, sometimes tiny or huge.
double randomDouble(Rng& rng) {
  return rng.uniform(-1e6, 1e6) * std::pow(10.0, rng.uniform(-300, 300));
}

service::ExecutedRecord randomExecuted(Rng& rng) {
  service::ExecutedRecord record;
  record.key = randomNasty(rng);
  record.manifestHash = randomNasty(rng);
  record.perflogHash = randomNasty(rng);
  record.runs = static_cast<int>(rng.below(2001)) - 1000;
  record.simSeconds = randomDouble(rng);
  for (std::uint64_t i = rng.below(3); i > 0; --i) {
    history::FomAggregate& aggregate = record.aggregates.emplace_back();
    aggregate.test = randomNasty(rng);
    aggregate.target = randomNasty(rng);
    aggregate.fom = randomNasty(rng);
    aggregate.specHash = randomNasty(rng);
    aggregate.mean = randomDouble(rng);
    aggregate.min = randomDouble(rng);
    aggregate.max = randomDouble(rng);
    aggregate.ciHalfwidth = randomDouble(rng);
    aggregate.ess = randomDouble(rng);
    aggregate.repeats = static_cast<int>(rng.below(100));
  }
  record.failedStage = randomNasty(rng);
  record.failureClass = randomNasty(rng);
  record.failureDetail = randomNasty(rng);
  return record;
}

service::VerdictRecord randomVerdict(Rng& rng) {
  return {randomNasty(rng), randomNasty(rng), randomNasty(rng),
          rng.below(2) == 0, randomNasty(rng)};
}

/// The replay rules, restated over the journal file's lines.
class JournalModel {
 public:
  struct Line {
    std::string id;
    ServiceJournal::State kind;  // kClaimed for a claim, ...
    std::optional<service::ExecutedRecord> executed;
    std::optional<service::VerdictRecord> verdict;
    std::string text;
  };

  void append(Line line) {
    // A done finishes the submission in memory at once.
    if (line.kind == ServiceJournal::State::kDone) crashed_.erase(line.id);
    lines_.push_back(std::move(line));
  }

  /// A fresh open counts, per submission, the claims since its last
  /// done that were followed by another claim or by nothing.
  void reopen() {
    crashed_.clear();
    std::map<std::string, bool> pending;
    for (const Line& line : lines_) {
      int& crashed = crashed_[line.id];
      if (line.kind == ServiceJournal::State::kClaimed) {
        if (pending[line.id]) ++crashed;
        pending[line.id] = true;
      } else if (line.kind == ServiceJournal::State::kDone) {
        crashed = 0;
        pending[line.id] = false;
      } else {
        pending[line.id] = false;
      }
    }
    for (const auto& [id, claimed] : pending) {
      if (claimed) ++crashed_[id];
    }
  }

  /// The file compaction writes: each submission's lines since its last
  /// done, submissions in id order.
  std::string compact() {
    std::map<std::string, std::vector<Line>> unfinished;
    for (Line& line : lines_) {
      std::vector<Line>& kept = unfinished[line.id];
      if (line.kind == ServiceJournal::State::kDone) {
        kept.clear();
      } else {
        kept.push_back(std::move(line));
      }
    }
    lines_.clear();
    std::string file =
        "{\"kind\":\"meta\",\"schema\":\"rebench.service_journal/1\"}\n";
    for (auto& [id, kept] : unfinished) {
      for (Line& line : kept) {
        file += line.text + "\n";
        lines_.push_back(std::move(line));
      }
    }
    return file;
  }

  std::string expected(const std::string& id) const {
    ServiceJournal::State state = ServiceJournal::State::kNone;
    const service::ExecutedRecord* executed = nullptr;
    const service::VerdictRecord* verdict = nullptr;
    for (const Line& line : lines_) {
      if (line.id != id) continue;
      state = line.kind;
      if (line.kind == ServiceJournal::State::kDone) {
        executed = nullptr;
        verdict = nullptr;
      }
      if (line.executed) executed = &*line.executed;
      if (line.verdict) verdict = &*line.verdict;
    }
    const auto crashed = crashed_.find(id);
    return describe(state, crashed == crashed_.end() ? 0 : crashed->second,
                    executed, verdict);
  }

 private:
  std::vector<Line> lines_;
  std::map<std::string, int> crashed_;
};

TEST_P(ServiceJournalProperty, CheckpointsReopensAndCompactionsMatchTheModel) {
  static const std::array<std::string, 4> kIds = {"s0", "s1", "s2", "s3"};
  Rng rng(GetParam() * 79);
  JournalModel model;
  std::optional<ServiceJournal> journal(std::in_place, queue_);
  for (int step = 0; step < 200; ++step) {
    const std::string& id = kIds[rng.below(kIds.size())];
    JournalModel::Line line{id, ServiceJournal::State::kNone, {}, {}, {}};
    switch (rng.below(6)) {
      case 0:
        line.kind = ServiceJournal::State::kClaimed;
        journal->recordClaim(id, randomNasty(rng));
        break;
      case 1:
        line.kind = ServiceJournal::State::kExecuted;
        line.executed = randomExecuted(rng);
        journal->recordExecuted(id, *line.executed);
        break;
      case 2:
        line.kind = ServiceJournal::State::kVerdict;
        line.verdict = randomVerdict(rng);
        journal->recordVerdict(id, *line.verdict);
        break;
      case 3:
        line.kind = ServiceJournal::State::kDone;
        journal->recordDone(id);
        break;
      case 4:
        journal.reset();
        journal.emplace(queue_);
        model.reopen();
        break;
      default:
        journal->compact();
        EXPECT_EQ(contents(), model.compact()) << "step " << step;
    }
    if (line.kind != ServiceJournal::State::kNone) {
      // The text the append wrote: the file's last line.
      const std::string file = contents();
      const std::size_t start = file.rfind('\n', file.size() - 2) + 1;
      line.text = file.substr(start, file.size() - 1 - start);
      model.append(std::move(line));
    }
    for (const std::string& each : kIds) {
      ASSERT_EQ(describe(*journal, each), model.expected(each))
          << "step " << step << ", " << each;
    }
  }
}

TEST_P(ServiceJournalProperty, DamagedJournalsOpenOrThrow) {
  static constexpr std::string_view kStructural = "{}[]\":,\\\n-.e09";
  static const std::array<std::string, 4> kIds = {"s0", "s1", "s2", "s3"};
  Rng rng(GetParam() * 83);
  {
    ServiceJournal journal(queue_);
    journal.recordClaim("s0", "k0");
    journal.recordClaim("s0", "k0");
    for (const std::string& id : {kIds[1], kIds[2], kIds[3]}) {
      journal.recordClaim(id, "k");
      journal.recordExecuted(id, randomExecuted(rng));
    }
    journal.recordVerdict("s2", randomVerdict(rng));
    journal.recordVerdict("s3", randomVerdict(rng));
    journal.recordDone("s3");
  }
  const std::string original = contents();
  for (int trial = 0; trial < 300; ++trial) {
    std::ofstream(path_, std::ios::binary | std::ios::trunc)
        << damage(rng, original, kStructural);
    std::optional<ServiceJournal> journal;
    try {
      journal.emplace(queue_);
    } catch (const Error&) {
      continue;  // damage may be rejected; anything but rebench::Error fails
    }
    // Whatever opened compacts to a journal that replays the same.
    std::vector<std::string> before;
    for (const std::string& id : kIds) {
      before.push_back(journal->state(id) == ServiceJournal::State::kDone
                           ? describe(ServiceJournal::State::kNone, 0,
                                      nullptr, nullptr)
                           : describe(*journal, id));
    }
    journal->compact();
    journal.reset();
    const ServiceJournal reopened(queue_);
    for (std::size_t i = 0; i < kIds.size(); ++i) {
      EXPECT_EQ(describe(reopened, kIds[i]), before[i])
          << "trial " << trial << ", " << kIds[i];
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServiceJournalProperty, ::testing::Range(1, 5));

// ---------------------------------------------------------------------------
// Run journal: a damaged --resume journal loads or throws rebench::Error,
// and what loads survives the repair: a reopen after one more record reads
// back every outcome loaded, and that record.
// ---------------------------------------------------------------------------

TEST(RunJournalProperty, DamagedJournalsLoadOrThrow) {
  static constexpr std::string_view kStructural = "{}[]\":,\\\n-.e09";
  static constexpr std::array<std::string_view, 3> kOutcomes = {
      "pass", "fail", "quarantined"};
  struct Tuple {
    std::string test;
    std::string target;
    int repeat = 0;
  };
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "run_journal_property")
          .string();
  std::filesystem::remove_all(dir);
  Rng rng(97);
  std::vector<Tuple> tuples;
  {
    RunJournal journal(dir);
    for (int i = 0; i < 6; ++i) {
      const Tuple& tuple = tuples.emplace_back(
          Tuple{randomNasty(rng), randomNasty(rng), i});
      journal.record(tuple.test, tuple.target, tuple.repeat,
                     kOutcomes[rng.below(kOutcomes.size())], randomNasty(rng),
                     1 + static_cast<int>(rng.below(4)));
    }
  }
  const std::string path = RunJournal::pathFor(dir);
  std::string original;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    original = out.str();
  }
  for (int trial = 0; trial < 300; ++trial) {
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        << damage(rng, original, kStructural);
    std::optional<RunJournal> journal;
    try {
      journal.emplace(dir);
    } catch (const Error&) {
      continue;  // damage may be rejected; anything but rebench::Error fails
    }
    std::vector<std::optional<std::string>> loaded;
    for (const Tuple& tuple : tuples) {
      const std::string* outcome =
          journal->outcome(tuple.test, tuple.target, tuple.repeat);
      loaded.push_back(outcome == nullptr ? std::nullopt
                                          : std::optional(*outcome));
    }
    journal->record("after-damage", "t", trial, "pass", "run", 1);
    journal.reset();
    const RunJournal reopened(dir);
    for (std::size_t i = 0; i < tuples.size(); ++i) {
      const std::string* outcome =
          reopened.outcome(tuples[i].test, tuples[i].target, tuples[i].repeat);
      EXPECT_EQ(outcome == nullptr ? std::nullopt : std::optional(*outcome),
                loaded[i])
          << "trial " << trial << ", tuple " << i;
    }
    const std::string* after = reopened.outcome("after-damage", "t", trial);
    EXPECT_TRUE(after != nullptr && *after == "pass") << "trial " << trial;
  }
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Submissions: a damaged body filed under its own hash, so the content
// check passes and the parser sees it, reads back valid or invalid with
// an error, and never throws.
// ---------------------------------------------------------------------------

// The journal property's fixture, for its private queue directory.
class SubmissionProperty : public ServiceJournalProperty {};

TEST_P(SubmissionProperty, DamagedBodiesReadValidOrNameTheirError) {
  static constexpr std::string_view kStructural = "{}[]\":,\\\n-.e09tfn";
  Rng rng(GetParam() * 89);
  store::CampaignInvocation inv;
  inv.mode = "suite";
  inv.system = "archer2:compute";
  inv.tag = "babelstream";
  inv.settings = {{"model", "omp"}, {"n", "1"}};
  inv.ciHalfwidth = 0.05;
  inv.lanes = 4;
  inv.withStore = true;
  const service::Submission valid = service::enqueueSubmission(queue_, inv);
  std::string original;
  {
    std::ifstream in(valid.path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    original = out.str();
  }
  std::filesystem::remove(valid.path);
  for (int trial = 0; trial < 300; ++trial) {
    const std::string body = damage(rng, original, kStructural);
    const std::string id = store::ObjectStore::hashBytes(body);
    const std::string path = queue_ + "/sub-" + id + ".json";
    std::ofstream(path, std::ios::binary) << body;
    service::Submission sub;
    EXPECT_NO_THROW(sub = service::readSubmission(queue_, id)) << body;
    EXPECT_EQ(sub.id, id);
    EXPECT_TRUE(sub.valid || !sub.error.empty()) << body;
    std::filesystem::remove(path);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SubmissionProperty, ::testing::Range(1, 5));

// ---------------------------------------------------------------------------
// Ref files: a damaged refs/... file reads as unset or as the hash of an
// object present in the store, and a compare-and-swap from unset lands
// exactly when it reads unset.  Neither throws.
// ---------------------------------------------------------------------------

// The journal property's fixture, for its private store directory.
class RefFileProperty : public ServiceJournalProperty {};

TEST_P(RefFileProperty, DamagedRefsReadUnsetOrAPresentObject) {
  static constexpr std::string_view kStructural = "0123456789abcdef\n";
  Rng rng(GetParam() * 97);
  store::ObjectStore store(queue_);
  std::vector<std::string> objects;
  for (int i = 0; i < 4; ++i) {
    objects.push_back(store.put("object " + std::to_string(i)));
  }
  const std::array<std::string, 3> names = {
      std::string(history::kHeadRef), "build/" + objects[3],
      std::string(store::kLatestManifestRef)};
  for (int trial = 0; trial < 300; ++trial) {
    const std::string& name = names[rng.below(names.size())];
    store.setRef(name, objects[rng.below(objects.size())]);
    const std::string path = queue_ + "/refs/" + name;
    const std::string bytes = damage(rng, *store.ref(name) + "\n",
                                     kStructural);
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
    std::optional<std::string> read;
    ASSERT_NO_THROW(read = store.ref(name)) << bytes;
    if (read) {
      EXPECT_TRUE(store::ObjectStore::isHash(*read)) << bytes;
      EXPECT_TRUE(store.contains(*read)) << bytes;
    }
    const std::string& next = objects[rng.below(objects.size())];
    bool swapped = false;
    ASSERT_NO_THROW(swapped = store.compareAndSetRef(name, "", next)) << bytes;
    EXPECT_EQ(swapped, !read.has_value()) << bytes;
    EXPECT_EQ(store.ref(name), swapped ? next : read) << bytes;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RefFileProperty, ::testing::Range(1, 5));

// ---------------------------------------------------------------------------
// Campaign manifests: random manifests round-trip rebench.manifest/2 field
// by field with render a fixed point, and damaged /1 and /2 renderings
// parse or throw rebench::Error.
// ---------------------------------------------------------------------------

class ManifestProperty : public ::testing::TestWithParam<int> {};

/// The entry before's number, 0, -0 (whose text differs from 0's), or a
/// number `decimals` fixed decimals hold exactly.
double manifestNumber(Rng& rng, double above, int decimals) {
  switch (rng.below(4)) {
    case 0: return 0.0;
    case 1: return -0.0;
    default: return randomNumber(rng, above, decimals);
  }
}

/// A campaign-like manifest: each test's repeats restart at 0 and share
/// its spec, runs that failed to concretize have no spec, build steps or
/// facets, and facets, outcomes and attempts vary per repeat.
store::CampaignManifest randomManifest(Rng& rng) {
  store::CampaignManifest manifest;
  manifest.invocation.mode = "suite";
  manifest.invocation.system = randomNasty(rng);
  manifest.invocation.repeats = static_cast<int>(rng.below(5));
  manifest.invocation.probe = rng.below(2) == 0 ? "" : "sim";
  for (std::uint64_t tests = rng.below(5); tests > 0; --tests) {
    store::RunManifest run;
    run.test = randomNasty(rng);
    run.target = rng.below(2) == 0 ? "archer2:compute" : randomNasty(rng);
    if (rng.below(4) != 0) {  // concretized
      run.environ = randomNasty(rng);
      run.spec = randomNasty(rng);
      run.specHash = randomNasty(rng);
      run.planHash = randomNasty(rng);
      run.binaryId = randomNasty(rng);
      for (std::uint64_t n = rng.below(4); n > 0; --n) {
        run.buildSteps.push_back(randomNasty(rng));
      }
      run.launchCommand = randomNasty(rng);
    }
    for (int repeat = 0, n = 1 + static_cast<int>(rng.below(4)); repeat < n;
         ++repeat) {
      run.repeat = repeat;
      run.jobId = std::to_string(rng.below(3));
      static constexpr std::array<const char*, 3> kOutcomes{
          "pass", "fail", "quarantined"};
      run.outcome = kOutcomes[rng.below(kOutcomes.size())];
      run.failureStage = run.outcome == "pass" ? "" : randomNasty(rng);
      run.attempts = static_cast<int>(rng.below(4));
      if (rng.below(3) == 0) {
        run.facets.clear();
        for (std::uint64_t k = rng.below(4); k > 0; --k) {
          run.facets[randomNasty(rng)] = randomNasty(rng);
        }
      }
      manifest.runs.push_back(run);
    }
  }
  for (std::uint64_t n = rng.below(10); n > 0; --n) {
    const store::FomManifest above =
        manifest.foms.empty() ? store::FomManifest{} : manifest.foms.back();
    store::FomManifest fom;
    fom.test = randomField(rng, above.test);
    fom.target = randomField(rng, above.target);
    fom.fom = randomField(rng, above.fom);
    fom.mean = manifestNumber(rng, above.mean, 6);
    fom.ciHalfwidth = manifestNumber(rng, above.ciHalfwidth, 6);
    fom.ess = manifestNumber(rng, above.ess, 3);
    fom.autocorr = manifestNumber(rng, above.autocorr, 6);
    fom.repeats = rng.below(2) == 0 ? above.repeats
                                    : static_cast<int>(rng.below(20));
    manifest.foms.push_back(std::move(fom));
  }
  manifest.artifacts.push_back(
      {"perflog", store::ObjectStore::hashBytes(randomNasty(rng)),
       rng.below(100000)});
  return manifest;
}

TEST_P(ManifestProperty, RoundTripsFieldByField) {
  Rng rng(GetParam() * 101);
  for (int i = 0; i < 40; ++i) {
    const store::CampaignManifest manifest = randomManifest(rng);
    const std::string text = manifest.render();
    const store::CampaignManifest parsed = store::CampaignManifest::parse(text);
    EXPECT_TRUE(parsed == manifest) << text;
    EXPECT_EQ(parsed.render(), text);
  }
}

TEST_P(ManifestProperty, DamagedRenderingsParseOrThrow) {
  static constexpr std::string_view kStructural = "{}[]\":,\\\n-.e09";
  Rng rng(GetParam() * 103);
  store::CampaignManifest manifest;
  while (manifest.runs.size() < 2) manifest = randomManifest(rng);
  const std::string v2 = manifest.render();
  for (const std::string_view original :
       {std::string_view(v2), store::kVersion1Manifest}) {
    ASSERT_NO_THROW((void)store::CampaignManifest::parse(std::string(original)));
    for (int trial = 0; trial < 300; ++trial) {
      try {
        (void)store::CampaignManifest::parse(
            damage(rng, original, kStructural));
      } catch (const Error&) {
        // Damage may be rejected; anything but rebench::Error fails.
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ManifestProperty, ::testing::Range(1, 5));

// ---------------------------------------------------------------------------
// obs::json: damaged renderings of documents rebench reads parse or throw
// ParseError, as does nesting far past kMaxDepth.
// ---------------------------------------------------------------------------

TEST(JsonProperty, DamagedDocumentsParseOrThrow) {
  static constexpr std::string_view kStructural = "{}[]\":,\\\n-.e09tfn";
  const std::string queue =
      (std::filesystem::path(::testing::TempDir()) / "json_property").string();
  std::filesystem::remove_all(queue);
  const auto readAll = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
  };
  Rng rng(109);
  store::CampaignInvocation inv;
  inv.mode = "suite";
  inv.system = "archer2:compute";
  inv.tag = "babelstream";
  inv.settings = {{"model", "omp"}};
  const std::string submission =
      readAll(service::enqueueSubmission(queue, inv).path);
  {
    service::ServiceJournal journal(queue);
    service::ExecutedRecord executed;
    executed.manifestHash = "0123456789abcdef";
    history::FomAggregate aggregate;
    aggregate.test = "T";
    aggregate.fom = "Triad";
    aggregate.mean = 1.5;
    aggregate.ciHalfwidth = 0.25;
    executed.aggregates.push_back(aggregate);
    journal.recordExecuted("s1", executed);
  }
  const std::string lines = readAll(service::ServiceJournal::pathFor(queue));
  const std::string executedLine =
      lines.substr(lines.find("{\"kind\":\"executed\""));
  std::filesystem::remove_all(queue);
  const std::string manifest = randomManifest(rng).render();
  for (const std::string& original : {manifest, submission, executedLine}) {
    ASSERT_NO_THROW((void)obs::json::parse(original)) << original;
    for (int trial = 0; trial < 300; ++trial) {
      try {
        (void)obs::json::parse(damage(rng, original, kStructural));
      } catch (const ParseError&) {
        // Damage may be rejected; anything but ParseError fails.
      }
    }
  }
  const auto nested = [](std::string_view open, std::string_view close,
                         int depth) {
    std::string text;
    for (int i = 0; i < depth; ++i) text += open;
    for (int i = 0; i < depth; ++i) text += close;
    return text;
  };
  EXPECT_NO_THROW(
      (void)obs::json::parse(nested("[", "]", obs::json::kMaxDepth)));
  for (const auto& [open, close] :
       {std::pair<std::string_view, std::string_view>{"[", "]"},
        {"{\"a\":", "}"}}) {
    for (const int depth : {obs::json::kMaxDepth + 1, 100000}) {
      try {
        (void)obs::json::parse(nested(open, close, depth));
        ADD_FAILURE() << depth << " levels of " << open << " parsed";
      } catch (const ParseError& e) {
        EXPECT_NE(std::string(e.what()).find("nesting deeper than 64"),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Traces: a damaged campaign trace parses or throws rebench::Error, and
// whatever parses lints and profiles without an abort.
// ---------------------------------------------------------------------------

class TraceReaderProperty : public ::testing::TestWithParam<int> {};

/// Tracer::toJsonl of a fault-injected synthetic campaign: retries,
/// backoffs, watchdog events and quarantined runs.
const std::string& faultedCampaignTrace() {
  static const std::string trace = [] {
    const SystemRegistry systems = builtinSystems();
    const PackageRepository repo = builtinRepository();
    obs::Tracer tracer;
    obs::MetricsRegistry metrics;
    PipelineOptions options;
    options.faults =
        FaultConfig::parse("seed=13,crash=0.3,build=0.3,corrupt=0.3");
    options.retry.maxRetries = 3;
    options.retry.seed = options.faults.seed;
    options.watchdog.stageTimeoutSeconds = 30.0;
    options.breaker.pairThreshold = 1;
    options.numRepeats = 2;
    options.tracer = &tracer;
    options.metrics = &metrics;
    RegressionTest test;
    test.name = "TraceDamage";
    test.spackSpec = "stream%gcc";
    test.numTasks = 1;
    test.numTasksPerNode = 1;
    test.sanityPattern = "Solution Validates";
    test.perfPatterns = {{"Triad", R"(Triad:\s+([0-9.]+))", Unit::kMBperSec}};
    test.run = [](const RunContext&) {
      return RunOutput{"Triad: 1000.0 MB/s\nSolution Validates\n", 12.0,
                       false, ""};
    };
    Pipeline pipeline(systems, repo, options);
    const std::vector<RegressionTest> tests{test};
    const std::vector<std::string> targets{"archer2", "noctua2"};
    (void)pipeline.runAll(tests, targets);
    return tracer.toJsonl(&metrics);
  }();
  return trace;
}

TEST_P(TraceReaderProperty, DamagedTracesParseOrThrow) {
  static constexpr std::string_view kStructural = "{}[]\":,\\\n-.e09";
  const std::string& original = faultedCampaignTrace();
  ASSERT_TRUE(obs::lintTrace(obs::parseTraceJsonl(original)).empty());
  ASSERT_NE(original.find("fault.watchdog"), std::string::npos);
  ASSERT_NE(original.find("\"backoff\""), std::string::npos);
  Rng rng(GetParam() * 97);
  for (int trial = 0; trial < 300; ++trial) {
    const std::string text = damage(rng, original, kStructural);
    obs::TraceFile trace;
    try {
      trace = obs::parseTraceJsonl(text);
    } catch (const Error&) {
      continue;  // damage may be rejected; anything but rebench::Error fails
    }
    EXPECT_NO_THROW((void)obs::lintTrace(trace)) << text;
    try {
      (void)postproc::profileTrace(trace);
    } catch (const Error&) {
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceReaderProperty, ::testing::Range(1, 5));

// ---------------------------------------------------------------------------
// Status endpoint: every damaged request head gets one whole HTTP reply.
// ---------------------------------------------------------------------------

class StatusServerProperty : public ::testing::TestWithParam<int> {};

/// Sends `request` over a new loopback connection to `address`
/// ("127.0.0.1:PORT"), shuts down the write side, and returns all the
/// server sends back before it closes.
std::string sendOverLoopback(const std::string& address,
                             std::string_view request) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(
      std::stoi(address.substr(address.rfind(':') + 1))));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0 || connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)) != 0) {
    ADD_FAILURE() << "cannot connect to " << address;
    if (fd >= 0) close(fd);
    return "";
  }
  for (std::size_t sent = 0; sent < request.size();) {
    const ssize_t n = send(fd, request.data() + sent, request.size() - sent,
                           MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  shutdown(fd, SHUT_WR);
  std::string reply;
  char buffer[4096];
  pollfd ready{fd, POLLIN, 0};
  // The server answers within its 5 s head timeout at the latest.
  while (poll(&ready, 1, 10'000) == 1) {
    const ssize_t n = read(fd, buffer, sizeof(buffer));
    if (n <= 0) break;
    reply.append(buffer, static_cast<std::size_t>(n));
  }
  close(fd);
  return reply;
}

/// The status of `reply` when it is one complete HTTP/1.1 response: a
/// status line, headers holding a Content-Length, and exactly that many
/// body bytes.  0 otherwise.
int completeResponseStatus(const std::string& reply) {
  const std::size_t headEnd = reply.find("\r\n\r\n");
  const std::size_t length = reply.find("\r\nContent-Length: ");
  if (!reply.starts_with("HTTP/1.1 ") || headEnd == std::string::npos ||
      length == std::string::npos || length > headEnd) {
    return 0;
  }
  try {
    const std::size_t from = length + 18;
    const auto bodyBytes = str::parseWhole<std::size_t>(
        std::string_view(reply).substr(from, reply.find("\r\n", from) - from),
        "Content-Length");
    if (reply.size() != headEnd + 4 + bodyBytes) return 0;
    return str::parseWhole<int>(std::string_view(reply).substr(9, 3),
                                "status");
  } catch (const ParseError&) {
    return 0;
  }
}

TEST_P(StatusServerProperty, DamagedRequestHeadsGetAnAnswer) {
  static constexpr std::string_view kStructural = " \r\n?=&/:%GETHP1.";
  telemetry::TelemetryPlane plane;
  plane.noteVerdict("0123456789abcdef", "ran:clean", false, "");
  telemetry::StatusServer server(
      [&plane](const telemetry::HttpRequest& request) {
        return plane.handle(request);
      });
  server.start("127.0.0.1:0");
  Rng rng(GetParam() * 71);
  for (const std::string_view request :
       {"GET /verdicts?since=3 HTTP/1.1\r\nHost: h\r\n\r\n",
        "GET /submissions/0123456789abcdef HTTP/1.1\r\nHost: h\r\n\r\n"}) {
    for (int trial = 0; trial < 300; ++trial) {
      const std::string damaged = damage(rng, request, kStructural);
      const std::string reply =
          sendOverLoopback(server.boundAddress(), damaged);
      const int status = completeResponseStatus(reply);
      EXPECT_TRUE(status == 200 || status == 400 || status == 404 ||
                  status == 405)
          << ::testing::PrintToString(damaged) << " got "
          << ::testing::PrintToString(reply);
    }
  }
  EXPECT_NO_THROW(telemetry::httpGet(server.boundAddress(), "/health"));
  server.stop();
}

INSTANTIATE_TEST_SUITE_P(Seeds, StatusServerProperty, ::testing::Range(1, 5));

// ---------------------------------------------------------------------------
// Spec grammar: parse/print round-trips on randomly generated specs.
// ---------------------------------------------------------------------------

class SpecRoundTripProperty : public ::testing::TestWithParam<int> {};

Spec randomSpec(Rng& rng) {
  static constexpr const char* kNames[] = {"hpgmg", "babelstream", "hpcg",
                                           "openmpi", "kokkos", "python"};
  Spec spec(kNames[rng.below(std::size(kNames))]);
  if (rng.uniform() < 0.6) {
    spec.setVersions(VersionConstraint::parse(
        std::to_string(rng.below(10)) + "." + std::to_string(rng.below(10))));
  }
  if (rng.uniform() < 0.5) {
    CompilerSpec comp;
    comp.name = rng.uniform() < 0.5 ? "gcc" : "oneapi";
    if (rng.uniform() < 0.5) {
      comp.versions = VersionConstraint::parse(
          std::to_string(rng.below(13)) + ":");
    }
    spec.setCompiler(comp);
  }
  if (rng.uniform() < 0.5) spec.setVariant("omp", rng.uniform() < 0.5);
  if (rng.uniform() < 0.3) {
    spec.setVariant("model", std::string(rng.uniform() < 0.5 ? "omp"
                                                             : "cuda"));
  }
  const std::uint64_t deps = rng.below(3);
  for (std::uint64_t i = 0; i < deps; ++i) {
    Spec dep(kNames[rng.below(std::size(kNames))]);
    if (rng.uniform() < 0.5) {
      dep.setVersions(VersionConstraint::parse(
          std::to_string(rng.below(9)) + ":"));
    }
    spec.addDependency(std::move(dep));
  }
  return spec;
}

TEST_P(SpecRoundTripProperty, ToStringParsesBackIdentically) {
  Rng rng(GetParam() * 61);
  for (int i = 0; i < 40; ++i) {
    const Spec spec = randomSpec(rng);
    const std::string text = spec.toString();
    const Spec reparsed = Spec::parse(text);
    // Fixed point after one round: print(parse(print(s))) == print(s).
    EXPECT_EQ(reparsed.toString(), text) << text;
    EXPECT_EQ(reparsed.name(), spec.name());
    EXPECT_EQ(reparsed.variants(), spec.variants());
    EXPECT_EQ(reparsed.dependencies().size(), spec.dependencies().size());
  }
}

TEST_P(SpecRoundTripProperty, EverySpecSatisfiesItself) {
  Rng rng(GetParam() * 67);
  for (int i = 0; i < 40; ++i) {
    const Spec spec = randomSpec(rng);
    EXPECT_TRUE(spec.satisfies(Spec::parse(spec.name()))) << spec.toString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpecRoundTripProperty,
                         ::testing::Range(1, 5));

// ---------------------------------------------------------------------------
// Concretizer: determinism and soundness across every system.
// ---------------------------------------------------------------------------

class ConcretizerProperty
    : public ::testing::TestWithParam<const char*> {};

TEST_P(ConcretizerProperty, SoundAndDeterministicEverywhere) {
  const PackageRepository repo = builtinRepository();
  const SystemRegistry systems = builtinSystems();
  const SystemConfig& sys = systems.get(GetParam());

  for (const char* specText :
       {"hpgmg%gcc", "babelstream model=omp", "hpcg operator=matrix-free",
        "osu-micro-benchmarks", "stream"}) {
    const Spec abstract = Spec::parse(specText);
    Concretizer concretizer(repo, sys.environment);
    const auto first = concretizer.concretize(abstract);
    const auto second = concretizer.concretize(abstract);

    // Determinism: identical DAG hashes.
    EXPECT_EQ(first.root->dagHash(), second.root->dagHash()) << specText;
    // Soundness: the concrete root satisfies the abstract request.
    EXPECT_TRUE(first.root->satisfiesNode(abstract)) << specText;
    // Completeness: every node has a pinned version, and non-external
    // nodes have a compiler.
    std::function<void(const ConcreteSpec&)> walk =
        [&](const ConcreteSpec& node) {
          EXPECT_FALSE(node.version.toString().empty()) << node.name;
          if (!node.external) {
            EXPECT_FALSE(node.compilerName.empty()) << node.name;
          }
          for (const auto& [name, dep] : node.dependencies) walk(*dep);
        };
    walk(*first.root);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSystems, ConcretizerProperty,
                         ::testing::Values("archer2", "cosma8", "csd3",
                                           "isambard", "isambard-macs",
                                           "noctua2", "local"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace rebench
