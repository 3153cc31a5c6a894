// Property-based test sweeps: randomised inputs driven through invariants,
// parameterised over seeds (TEST_P) so each seed is an independent case.
#include <gtest/gtest.h>

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
#include "core/framework/perflog.hpp"
#include "core/history/history.hpp"
#include "core/postproc/dataframe.hpp"
#include "core/sched/scheduler.hpp"
#include "core/service/journal.hpp"
#include "core/sysconfig/system_config.hpp"
#include "core/util/rng.hpp"
#include "core/util/version.hpp"
#include "journal_state.hpp"

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
// Perflog serialization is injective and total over nasty strings.
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

TEST_P(PerflogProperty, RoundTripArbitraryContent) {
  Rng rng(GetParam() * 53);
  for (int i = 0; i < 20; ++i) {
    PerfLogEntry entry;
    entry.timestamp = randomNasty(rng);
    entry.system = randomNasty(rng);
    entry.partition = randomNasty(rng);
    entry.testName = randomNasty(rng);
    entry.spec = randomNasty(rng);
    entry.fomName = randomNasty(rng);
    entry.value = rng.uniform(-1e6, 1e6);
    entry.unit = Unit::kGBperSec;
    entry.result = "pass";
    entry.extras[ "k" + std::to_string(i)] = randomNasty(rng);

    const std::string line = entry.serialize();
    EXPECT_EQ(line.find('\n'), std::string::npos);
    const PerfLogEntry parsed = PerfLogEntry::parse(line);
    EXPECT_EQ(parsed.system, entry.system);
    EXPECT_EQ(parsed.testName, entry.testName);
    EXPECT_EQ(parsed.spec, entry.spec);
    EXPECT_EQ(parsed.extras, entry.extras);
    EXPECT_NEAR(parsed.value, entry.value, 1e-4);
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
  static constexpr char kStructural[] = "|=%\n\"{}[]:,-.e09";
  Rng rng(GetParam() * 73);
  const std::string rows = history::serializeSegment(
      randomRecords(rng), "cafecafecafecafe", 4, 9);
  for (const std::string_view original :
       {std::string_view(rows), kJsonLinesSegment}) {
    ASSERT_FALSE(history::parseSegment(original).empty());
    for (int trial = 0; trial < 300; ++trial) {
      std::string bytes(original);
      for (std::uint64_t edits = 1 + rng.below(3); edits > 0; --edits) {
        const std::size_t at = rng.below(bytes.size() + 1);
        switch (rng.below(3)) {
          case 0:
            bytes.resize(at);
            break;
          case 1:
            if (at < bytes.size()) {
              bytes[at] = static_cast<char>(rng.below(256));
            }
            break;
          default:
            bytes.insert(at, 1,
                         rng.below(2) == 0
                             ? kStructural[rng.below(sizeof(kStructural) - 1)]
                             : static_cast<char>(rng.below(256)));
        }
      }
      try {
        (void)history::parseSegment(bytes);
      } catch (const Error&) {
        // Damage may be rejected; anything but rebench::Error fails.
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistorySegmentProperty, ::testing::Range(1, 5));

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
    record.aggregates.push_back({randomNasty(rng), randomNasty(rng),
                                 randomNasty(rng), randomNasty(rng),
                                 randomDouble(rng), randomDouble(rng),
                                 randomDouble(rng), randomDouble(rng),
                                 randomDouble(rng),
                                 static_cast<int>(rng.below(100))});
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
  static constexpr char kStructural[] = "{}[]\":,\\\n-.e09";
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
    std::string bytes = original;
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
                           ? kStructural[rng.below(sizeof(kStructural) - 1)]
                           : static_cast<char>(rng.below(256)));
      }
    }
    std::ofstream(path_, std::ios::binary | std::ios::trunc) << bytes;
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
