// Continuous-benchmarking daemon tests (ISSUE 7): spool-dir queue
// semantics, the write-ahead service journal, run-level memoization,
// crash-resume at every journal checkpoint, watchdogs, quarantine and
// degraded mode — all in-process via an injected synthetic TestResolver.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/fault/watchdog.hpp"
#include "core/framework/pipeline.hpp"
#include "core/history/history.hpp"
#include "core/obs/json.hpp"
#include "core/obs/trace.hpp"
#include "core/obs/trace_reader.hpp"
#include "core/service/journal.hpp"
#include "core/service/queue.hpp"
#include "core/service/record.hpp"
#include "core/service/service.hpp"
#include "core/store/object_store.hpp"
#include "core/store/run_cache.hpp"
#include "core/util/error.hpp"
#include "core/util/strings.hpp"
#include "journal_state.hpp"

namespace rebench::service {
namespace {

namespace fs = std::filesystem;

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

RegressionTest syntheticTest(const std::string& name = "SyntheticTest") {
  RegressionTest test;
  test.name = name;
  test.spackSpec = "stream";
  test.numTasks = 1;
  test.numTasksPerNode = 1;
  test.sanityPattern = "RESULT OK";
  test.perfPatterns = {{"rate", R"(rate\s+([0-9.]+))", Unit::kGBperSec}};
  test.run = [](const RunContext&) {
    return RunOutput{"RESULT OK\nrate 123.5 GB/s\n", 2.0};
  };
  return test;
}

/// The meta line alone: a journal with no unfinished submission.
const std::string kEmptyJournal =
    "{\"kind\":\"meta\",\"schema\":\"rebench.service_journal/1\"}\n";

/// The "kind" of each record line of the journal in `queueDir`.
std::vector<std::string> journalKinds(const std::string& queueDir) {
  std::istringstream lines(readFile(ServiceJournal::pathFor(queueDir)));
  std::vector<std::string> kinds;
  for (std::string line; std::getline(lines, line);) {
    const std::string kind = obs::json::parse(line).stringOr("kind", "");
    if (kind != "meta") kinds.push_back(kind);
  }
  return kinds;
}

/// Submissions scanQueue lists that have no verdict file yet.
int unansweredByScan(const std::string& queueDir) {
  int depth = 0;
  for (const Submission& sub : scanQueue(queueDir)) {
    if (!fs::exists(verdictPath(queueDir, sub.id))) ++depth;
  }
  return depth;
}

/// An executed campaign with Triad and Copy aggregates on archer2.  The
/// means carry more digits than a segment keeps (6 decimals), so a gate
/// fed anything but the stored bytes would see different values.
ExecutedRecord campaignOutcome(int campaign, double triad, double copy) {
  ExecutedRecord outcome;
  outcome.manifestHash = "manifest-" + std::to_string(campaign);
  outcome.runs = 2;
  outcome.simSeconds = 10.0 * campaign;
  for (const auto& [fom, mean] : {std::pair{"Triad", triad}, {"Copy", copy}}) {
    AggregateRecord agg;
    agg.test = "SyntheticTest";
    agg.target = "archer2:compute";
    agg.fom = fom;
    agg.specHash = "00ff00ff00ff00ff";
    agg.mean = mean + 1e-7 * campaign;
    agg.min = mean - 1.0;
    agg.max = mean + 1.0;
    agg.ci = 0.5;
    agg.ess = 3.0;
    agg.repeats = 3;
    outcome.aggregates.push_back(agg);
  }
  return outcome;
}

/// A fixture owning scratch queue/store directories plus the registries
/// the daemon needs; makeOptions()/makeService() wire a resolver that
/// always returns the synthetic test.
class ServiceFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string stem =
        "rebench-service-test-" + std::string(::testing::UnitTest::GetInstance()
                                                  ->current_test_info()
                                                  ->name());
    root_ = (fs::temp_directory_path() / stem).string();
    fs::remove_all(root_);
    queue_ = root_ + "/queue";
    store_ = root_ + "/store";
    systems_ = builtinSystems();
    repo_ = builtinRepository();
  }
  void TearDown() override { fs::remove_all(root_); }

  store::CampaignInvocation invocation(const std::string& benchmark = "synthetic") {
    store::CampaignInvocation inv;
    inv.mode = "run";
    inv.system = "archer2";
    inv.benchmark = benchmark;
    inv.repeats = 2;
    inv.withStore = true;
    return inv;
  }

  ServeOptions makeOptions() {
    ServeOptions options;
    options.queueDir = queue_;
    options.storeDir = store_;
    options.once = true;
    return options;
  }

  ServeReport serve(ServeOptions options) {
    Service daemon(systems_, repo_, std::move(options),
                   [](const store::CampaignInvocation&) {
                     return std::vector<RegressionTest>{syntheticTest()};
                   });
    return daemon.run();
  }

  std::string root_;
  std::string queue_;
  std::string store_;
  SystemRegistry systems_;
  PackageRepository repo_;
};

// ---------------------------------------------------------------- queue

TEST_F(ServiceFixture, EnqueueIsIdempotentByContentHash) {
  const Submission first = enqueueSubmission(queue_, invocation());
  const Submission second = enqueueSubmission(queue_, invocation());
  EXPECT_EQ(first.id, second.id);
  EXPECT_EQ(first.path, second.path);
  const auto scanned = scanQueue(queue_);
  ASSERT_EQ(scanned.size(), 1u);
  EXPECT_TRUE(scanned[0].valid);
  EXPECT_EQ(scanned[0].id, first.id);
  EXPECT_EQ(scanned[0].invocation.benchmark, "synthetic");
  EXPECT_EQ(scanned[0].invocation.repeats, 2);
}

TEST_F(ServiceFixture, ScanFlagsTamperedSubmissions) {
  const Submission sub = enqueueSubmission(queue_, invocation());
  std::ofstream(sub.path, std::ios::app) << "tampered\n";
  const auto scanned = scanQueue(queue_);
  ASSERT_EQ(scanned.size(), 1u);
  EXPECT_FALSE(scanned[0].valid);
  EXPECT_NE(scanned[0].error.find("hash"), std::string::npos);
}

TEST_F(ServiceFixture, VerdictSerializationRoundtrips) {
  Verdict verdict;
  verdict.submission = "abc123";
  verdict.verdict = "ran:regressed";
  verdict.key = "deadbeef";
  verdict.manifestHash = "cafe1234";
  verdict.degraded = true;
  verdict.detail = "1 series regressed";
  const Verdict parsed = Verdict::parse(verdict.serialize());
  EXPECT_EQ(parsed.submission, verdict.submission);
  EXPECT_EQ(parsed.verdict, verdict.verdict);
  EXPECT_EQ(parsed.key, verdict.key);
  EXPECT_EQ(parsed.manifestHash, verdict.manifestHash);
  EXPECT_EQ(parsed.degraded, verdict.degraded);
  EXPECT_EQ(parsed.detail, verdict.detail);
}

// ------------------------------------------------------------ run cache

TEST_F(ServiceFixture, RunRecordRoundtripsAndRejectsWrongSchema) {
  store::RunRecord record;
  record.key = "k1";
  record.verdict = "ran:clean";
  record.manifestHash = "m1";
  record.perflogHash = "p1";
  record.runs = 4;
  record.regressions = 1;
  const store::RunRecord parsed = store::RunRecord::parse(record.serialize());
  EXPECT_EQ(parsed.key, "k1");
  EXPECT_EQ(parsed.verdict, "ran:clean");
  EXPECT_EQ(parsed.manifestHash, "m1");
  EXPECT_EQ(parsed.perflogHash, "p1");
  EXPECT_EQ(parsed.runs, 4);
  EXPECT_EQ(parsed.regressions, 1);
  EXPECT_THROW(store::RunRecord::parse("{\"schema\":\"bogus/9\"}"),
               rebench::Error);
}

TEST_F(ServiceFixture, RunCacheDistinguishesMissHitAndStale) {
  store::ObjectStore objects(store_);
  store::RunCache cache(objects);
  EXPECT_EQ(cache.lookup("nope").outcome, store::RunCache::Outcome::kMiss);

  // A record citing a manifest that exists on disk is a hit...
  store::RunRecord record;
  record.key = "k1";
  record.verdict = "ran:clean";
  record.manifestHash = "feedface";
  fs::create_directories(objects.dir() + "/manifests");
  std::ofstream(objects.dir() + "/manifests/campaign-feedface.json") << "{}";
  cache.insert(record);
  const auto hit = cache.lookup("k1");
  ASSERT_TRUE(hit.hit());
  EXPECT_EQ(hit.record->manifestHash, "feedface");

  // ...and turns stale once the cited manifest disappears.
  fs::remove(objects.dir() + "/manifests/campaign-feedface.json");
  EXPECT_EQ(cache.lookup("k1").outcome, store::RunCache::Outcome::kStale);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().stale, 1u);
}

// -------------------------------------------------------------- journal

TEST_F(ServiceFixture, ServiceJournalReplaysStateAcrossReopen) {
  fs::create_directories(queue_);
  {
    ServiceJournal journal(queue_);
    journal.recordClaim("s1", "key1");
    ExecutedRecord outcome;
    outcome.key = "key1";
    outcome.manifestHash = "m1";
    outcome.simSeconds = 0.1 + 0.2;  // exercise exact double round-trip
    outcome.aggregates.push_back(
        {"T", "archer2", "rate", "spec1", 123.456789012345, 120.0, 125.0, 2});
    journal.recordExecuted("s1", outcome);
  }
  {
    ServiceJournal journal(queue_);
    EXPECT_EQ(journal.state("s1"), ServiceJournal::State::kExecuted);
    const ExecutedRecord* outcome = journal.executed("s1");
    ASSERT_NE(outcome, nullptr);
    EXPECT_EQ(outcome->manifestHash, "m1");
    EXPECT_EQ(outcome->simSeconds, 0.1 + 0.2);  // bit-exact, not approx
    ASSERT_EQ(outcome->aggregates.size(), 1u);
    EXPECT_EQ(outcome->aggregates[0].mean, 123.456789012345);
    VerdictRecord verdict{"ran:clean", "key1", "m1", false, ""};
    journal.recordVerdict("s1", verdict);
    journal.recordDone("s1");
  }
  ServiceJournal journal(queue_);
  EXPECT_EQ(journal.state("s1"), ServiceJournal::State::kDone);
  EXPECT_EQ(journal.crashedClaims("s1"), 0);
}

TEST_F(ServiceFixture, ServiceJournalCountsCrashedClaims) {
  fs::create_directories(queue_);
  { ServiceJournal journal(queue_); journal.recordClaim("s1", "k"); }
  { ServiceJournal journal(queue_); journal.recordClaim("s1", "k"); }
  ServiceJournal journal(queue_);
  EXPECT_EQ(journal.crashedClaims("s1"), 2);
  EXPECT_EQ(journal.state("s1"), ServiceJournal::State::kClaimed);
}

TEST_F(ServiceFixture, ServiceJournalTruncatesTornTail) {
  fs::create_directories(queue_);
  { ServiceJournal journal(queue_); journal.recordClaim("s1", "k"); }
  // Simulate a crash mid-append: a torn, unparseable final line.
  std::ofstream(ServiceJournal::pathFor(queue_), std::ios::app)
      << "{\"kind\":\"executed\",\"subm";
  ServiceJournal journal(queue_);
  EXPECT_EQ(journal.corruptLines(), 1u);
  EXPECT_EQ(journal.state("s1"), ServiceJournal::State::kClaimed);
  // The rewrite dropped the torn tail: a fresh replay sees a clean file.
  ServiceJournal again(queue_);
  EXPECT_EQ(again.corruptLines(), 0u);
}

TEST_F(ServiceFixture, ServiceJournalCompactionKeepsOnlyUnfinishedSubmissions) {
  fs::create_directories(queue_);
  ExecutedRecord s2 = campaignOutcome(2, 100.0 / 3.0, 0.1 + 0.2);
  s2.key = "k2";
  s2.simSeconds = 1.0 / 7.0;
  const VerdictRecord s3{"ran:regressed", "k3", "m3", true,
                         "1 series regressed"};
  { ServiceJournal(queue_).recordClaim("s1", "k1"); }
  {
    ServiceJournal journal(queue_);
    journal.recordClaim("s4", "k4");
    journal.recordClaim("s1", "k1");
    journal.recordClaim("s2", "k2");
    journal.recordExecuted("s4", campaignOutcome(4, 1.5, 2.5));
    journal.recordExecuted("s2", s2);
    journal.recordClaim("s3", "k3");
    journal.recordExecuted("s3", campaignOutcome(3, 3.5, 4.5));
    journal.recordVerdict("s4", {"ran:clean", "k4", "m4", false, ""});
    journal.recordVerdict("s3", s3);
    journal.recordDone("s4");
  }
  // What compaction must keep: each unfinished submission's lines in
  // their order, submissions in id order.
  std::map<std::string, std::string> linesOf;
  {
    std::istringstream lines(readFile(ServiceJournal::pathFor(queue_)));
    for (std::string line; std::getline(lines, line);) {
      linesOf[obs::json::parse(line).stringOr("submission", "")] +=
          line + "\n";
    }
  }
  const std::string kept = kEmptyJournal + linesOf["s1"] + linesOf["s2"] +
                           linesOf["s3"];
  std::vector<std::string> before;
  {
    ServiceJournal journal(queue_);
    EXPECT_EQ(journal.state("s4"), ServiceJournal::State::kDone);
    for (const char* id : {"s1", "s2", "s3"}) {
      before.push_back(describe(journal, id));
    }
    journal.compact();
    EXPECT_EQ(journal.state("s4"), ServiceJournal::State::kNone);
  }
  EXPECT_EQ(readFile(ServiceJournal::pathFor(queue_)), kept);

  const ServiceJournal journal(queue_);
  EXPECT_EQ(describe(journal, "s1"), before[0]);
  EXPECT_EQ(describe(journal, "s2"), before[1]);
  EXPECT_EQ(describe(journal, "s3"), before[2]);
  EXPECT_EQ(journal.crashedClaims("s1"), 2);
  EXPECT_EQ(journal.state("s2"), ServiceJournal::State::kExecuted);
  ASSERT_NE(journal.executed("s2"), nullptr);
  EXPECT_EQ(journal.executed("s2")->simSeconds, 1.0 / 7.0);
  EXPECT_EQ(journal.executed("s2")->aggregates[0].mean, s2.aggregates[0].mean);
  EXPECT_EQ(journal.state("s3"), ServiceJournal::State::kVerdict);
  EXPECT_EQ(journal.state("s4"), ServiceJournal::State::kNone);
  EXPECT_EQ(journal.executed("s4"), nullptr);
  EXPECT_EQ(journal.verdictOf("s4"), nullptr);
}

TEST_F(ServiceFixture, FormatExactRoundtripsDoubles) {
  for (const double value : {0.1, 1.0 / 3.0, 123456.789012345, 2.5e-17}) {
    EXPECT_EQ(std::stod(formatExact(value)), value);
  }
}

// ------------------------------------------------------- serve semantics

TEST_F(ServiceFixture, ServeExecutesThenAnswersFromRunCache) {
  enqueueSubmission(queue_, invocation());
  const ServeReport first = serve(makeOptions());
  EXPECT_EQ(first.processed, 1);
  EXPECT_EQ(first.executed, 1);
  EXPECT_EQ(first.clean, 1);
  EXPECT_EQ(first.cached, 0);
  // The answered submission is finished: nothing is left to replay.
  EXPECT_EQ(readFile(ServiceJournal::pathFor(queue_)), kEmptyJournal);

  const ServeReport second = serve(makeOptions());
  EXPECT_EQ(second.processed, 1);
  EXPECT_EQ(second.executed, 0);
  EXPECT_EQ(second.cached, 1);
  EXPECT_EQ(readFile(ServiceJournal::pathFor(queue_)), kEmptyJournal);

  // The cached pass appended nothing: history still holds one campaign.
  store::ObjectStore objects(store_);
  history::HistoryIndex index(objects);
  EXPECT_EQ(index.readAll().size(), 1u);

  const auto scanned = scanQueue(queue_);
  ASSERT_EQ(scanned.size(), 1u);
  const Verdict verdict =
      Verdict::parse(readFile(verdictPath(queue_, scanned[0].id)));
  EXPECT_EQ(verdict.verdict, "cached");
  EXPECT_FALSE(verdict.degraded);
}

TEST_F(ServiceFixture, CrashResumeConvergesAtEveryCheckpoint) {
  const std::vector<std::string> checkpoints{"claim", "executed", "verdict"};
  for (std::size_t i = 0; i < checkpoints.size(); ++i) {
    const std::string& checkpoint = checkpoints[i];
    SCOPED_TRACE(checkpoint);
    const std::string controlQueue = root_ + "/cq-" + checkpoint;
    const std::string controlStore = root_ + "/cs-" + checkpoint;
    const std::string crashQueue = root_ + "/xq-" + checkpoint;
    const std::string crashStore = root_ + "/xs-" + checkpoint;
    const Submission sub = enqueueSubmission(controlQueue, invocation());
    enqueueSubmission(crashQueue, invocation());

    ServeOptions control = makeOptions();
    control.queueDir = controlQueue;
    control.storeDir = controlStore;
    const ServeReport controlReport = serve(control);
    EXPECT_EQ(controlReport.executed, 1);

    ServeOptions crash = makeOptions();
    crash.queueDir = crashQueue;
    crash.storeDir = crashStore;
    crash.crashAfter = checkpoint;
    const ServeReport crashed = serve(crash);
    EXPECT_TRUE(crashed.crashed);
    // A simulated crash compacts nothing: its checkpoints stay on disk.
    EXPECT_EQ(journalKinds(crashQueue),
              std::vector<std::string>(checkpoints.begin(),
                                       checkpoints.begin() + i + 1));

    ServeOptions resume = makeOptions();
    resume.queueDir = crashQueue;
    resume.storeDir = crashStore;
    const ServeReport resumed = serve(resume);
    EXPECT_FALSE(resumed.crashed);
    // Exactly-once: only a crash before 'executed' may re-run the
    // campaign in the resume pass.
    EXPECT_EQ(resumed.executed, checkpoint == "claim" ? 1 : 0);
    EXPECT_EQ(resumed.clean, 1);

    // Verdict, journal and history bytes converge on the control's.
    EXPECT_EQ(readFile(verdictPath(crashQueue, sub.id)),
              readFile(verdictPath(controlQueue, sub.id)));
    EXPECT_EQ(readFile(ServiceJournal::pathFor(crashQueue)),
              readFile(ServiceJournal::pathFor(controlQueue)));
    store::ObjectStore controlObjects(controlStore);
    store::ObjectStore crashObjects(crashStore);
    const auto controlHistory =
        history::HistoryIndex(controlObjects).readAll();
    const auto crashHistory = history::HistoryIndex(crashObjects).readAll();
    ASSERT_EQ(controlHistory.size(), 1u);
    ASSERT_EQ(crashHistory.size(), 1u);
    EXPECT_EQ(crashHistory[0].mean, controlHistory[0].mean);
    EXPECT_EQ(crashHistory[0].manifestHash, controlHistory[0].manifestHash);
  }
}

TEST_F(ServiceFixture, RepeatedCrashLoopsQuarantineTheSubmission) {
  const Submission sub = enqueueSubmission(queue_, invocation());
  for (int i = 0; i < 2; ++i) {
    ServeOptions options = makeOptions();
    options.crashAfter = "claim";
    EXPECT_TRUE(serve(std::move(options)).crashed);
  }
  ServeOptions options = makeOptions();
  options.quarantineAfter = 2;
  // The refusal finishes nothing, so compaction keeps the crashed claims
  // and the next daemon refuses the submission too.
  for (int i = 0; i < 2; ++i) {
    SCOPED_TRACE(i);
    fs::remove(verdictPath(queue_, sub.id));
    const ServeReport report = serve(options);
    EXPECT_EQ(report.quarantined, 1);
    EXPECT_EQ(report.executed, 0);
    const Verdict verdict =
        Verdict::parse(readFile(verdictPath(queue_, sub.id)));
    EXPECT_EQ(verdict.verdict, "failed:quarantined");
    EXPECT_EQ(journalKinds(queue_),
              (std::vector<std::string>{"claim", "claim"}));
  }
}

TEST_F(ServiceFixture, OutOfRangeSubmissionIntegerFailsPermanently) {
  // A submission named by its content hash, so only the value is wrong.
  const Submission sub = enqueueSubmission(queue_, invocation());
  const std::string body = readFile(sub.path);
  ASSERT_NE(body.find("\"repeats\":2,"), std::string::npos);
  fs::remove(sub.path);
  const std::string crafted =
      str::replaceAll(body, "\"repeats\":2,", "\"repeats\":1e300,");
  const std::string id = store::ObjectStore::hashBytes(crafted);
  std::ofstream(queue_ + "/sub-" + id + ".json", std::ios::binary) << crafted;

  const ServeReport report = serve(makeOptions());
  EXPECT_EQ(report.executed, 0);
  EXPECT_EQ(report.malformed, 1);
  const Verdict verdict = Verdict::parse(readFile(verdictPath(queue_, id)));
  EXPECT_EQ(verdict.verdict, "failed:permanent");
  EXPECT_NE(verdict.detail.find("repeats"), std::string::npos)
      << verdict.detail;
}

TEST_F(ServiceFixture, MalformedSubmissionGetsPermanentFailureVerdict) {
  const Submission sub = enqueueSubmission(queue_, invocation());
  std::ofstream(sub.path, std::ios::app) << "tampered\n";
  const ServeReport report = serve(makeOptions());
  EXPECT_EQ(report.malformed, 1);
  EXPECT_EQ(report.failed, 1);
  EXPECT_EQ(report.executed, 0);
  const Verdict verdict =
      Verdict::parse(readFile(verdictPath(queue_, sub.id)));
  EXPECT_EQ(verdict.verdict, "failed:permanent");
}

TEST_F(ServiceFixture, DrainSentinelStopsBeforeProcessing) {
  enqueueSubmission(queue_, invocation());
  requestDrain(queue_);
  const ServeReport report = serve(makeOptions());
  EXPECT_TRUE(report.drained);
  EXPECT_EQ(report.processed, 0);
  EXPECT_EQ(report.queueDepth, 1);
  const std::string health = readFile(queue_ + "/health.json");
  EXPECT_NE(health.find("rebench.serve_health/1"), std::string::npos);
  EXPECT_NE(health.find("\"drained\":true"), std::string::npos);
  clearDrainRequest(queue_);
  EXPECT_EQ(serve(makeOptions()).executed, 1);
}

TEST_F(ServiceFixture, ShutdownRequestActsLikeDrain) {
  enqueueSubmission(queue_, invocation());
  Service::requestShutdown();  // cleared when run() starts
  EXPECT_EQ(serve(makeOptions()).executed, 1);
}

TEST_F(ServiceFixture, BrokenHistoryHeadDegradesButStillExecutes) {
  enqueueSubmission(queue_, invocation());
  EXPECT_EQ(serve(makeOptions()).clean, 1);
  {  // Corrupt the head segment blob: the verified read fails, so the
    // history chain is unreadable at append/gate time.
    store::ObjectStore objects(store_);
    const auto head = objects.ref(history::kHeadRef);
    ASSERT_TRUE(head.has_value());
    std::ofstream(objects.objectPath(*head), std::ios::binary) << "garbage";
  }
  const Submission fresh = enqueueSubmission(queue_, invocation("other"));
  const ServeReport report = serve(makeOptions());
  EXPECT_EQ(report.executed, 1);
  EXPECT_EQ(report.degraded, 1);
  const Verdict verdict =
      Verdict::parse(readFile(verdictPath(queue_, fresh.id)));
  EXPECT_TRUE(verdict.degraded);
  EXPECT_EQ(verdict.verdict, "ran:clean");

  // Degraded outcomes are never memoized: with the corrupt segment
  // disposed of (the store deleted it on the failed read) the history
  // is healthy again, so the submission re-executes — this time with
  // full guarantees — instead of serving stale degraded state.
  const ServeReport again = serve(makeOptions());
  EXPECT_EQ(again.executed, 1);
  EXPECT_EQ(again.cached, 1);  // the first submission stays memoized
  EXPECT_EQ(again.degraded, 0);
}

// A daemon start verifies the whole chain, not just its head: its first
// executed verdict walks every segment, so an older segment corrupted
// between runs is caught.
TEST_F(ServiceFixture, CorruptOlderSegmentDegradesAndAppendsNothing) {
  enqueueSubmission(queue_, invocation("first"));
  enqueueSubmission(queue_, invocation("second"));
  EXPECT_EQ(serve(makeOptions()).clean, 2);
  std::string head;
  {
    store::ObjectStore objects(store_);
    head = objects.ref(history::kHeadRef).value_or("");
    std::string prev;
    history::parseSegment(objects.get(head).value_or(""), &prev);
    ASSERT_FALSE(prev.empty());
    std::ofstream(objects.objectPath(prev), std::ios::binary) << "garbage";
  }
  const Submission third = enqueueSubmission(queue_, invocation("third"));
  const ServeReport report = serve(makeOptions());
  EXPECT_EQ(report.cached, 2);
  EXPECT_EQ(report.executed, 1);
  EXPECT_EQ(report.degraded, 1);
  const Verdict verdict =
      Verdict::parse(readFile(verdictPath(queue_, third.id)));
  EXPECT_TRUE(verdict.degraded);
  EXPECT_NE(verdict.detail.find("history unreadable"), std::string::npos);
  store::ObjectStore objects(store_);
  EXPECT_EQ(objects.ref(history::kHeadRef).value_or(""), head);
}

// Within one run the daemon keeps its chain, yet a segment rewritten in
// place between two verdicts is caught: the next verdict is degraded and
// appends nothing.
TEST_F(ServiceFixture, SegmentRewrittenMidRunDegradesTheNextVerdict) {
  std::map<std::string, std::string> ids;  // benchmark -> submission
  for (const char* name : {"first", "second", "third"}) {
    ids[name] = enqueueSubmission(queue_, invocation(name)).id;
  }
  int resolved = 0;
  std::string third;
  std::string head;
  Service daemon(
      systems_, repo_, makeOptions(),
      [&](const store::CampaignInvocation& inv) {
        if (++resolved == 3) {
          third = ids.at(inv.benchmark);
          const store::ObjectStore objects(store_);
          head = objects.ref(history::kHeadRef).value_or("");
          std::string prev;
          history::parseSegment(readFile(objects.objectPath(head)), &prev);
          EXPECT_FALSE(prev.empty());
          std::fstream file(objects.objectPath(prev),
                            std::ios::in | std::ios::out | std::ios::binary);
          file.seekp(0);
          file.put('#');
        }
        return std::vector<RegressionTest>{syntheticTest()};
      });
  const ServeReport report = daemon.run();
  EXPECT_EQ(report.executed, 3);
  EXPECT_EQ(report.clean, 3);
  EXPECT_EQ(report.degraded, 1);
  ASSERT_FALSE(third.empty());
  const Verdict verdict = Verdict::parse(readFile(verdictPath(queue_, third)));
  EXPECT_TRUE(verdict.degraded);
  EXPECT_NE(verdict.detail.find("history unreadable"), std::string::npos);
  store::ObjectStore objects(store_);
  EXPECT_EQ(objects.ref(history::kHeadRef).value_or(""), head);
}

// Gating only the campaign's own series gives exactly the full-history
// checkRegression entries for those series.
TEST_F(ServiceFixture, GateOfTouchedSeriesMatchesFullHistoryGate) {
  store::ObjectStore objects(store_);
  std::vector<ExecutedRecord> campaigns;
  for (int i = 1; i <= 6; ++i) {
    ExecutedRecord outcome =
        campaignOutcome(i, i == 6 ? 60.0 : 100.0 + i, 50.0 - 0.1 * i);
    ExecutedRecord other = campaignOutcome(100 + i, 30.0 + i, 20.0);
    for (AggregateRecord& agg : other.aggregates) agg.test = "OtherTest";
    appendCampaignHistory(objects, other, systems_, /*skipIfCited=*/false);
    appendCampaignHistory(objects, outcome, systems_, /*skipIfCited=*/false);
    campaigns.push_back(outcome);
  }
  const auto all = history::HistoryIndex(objects).readAll();
  const std::vector<history::GateResult> full =
      history::checkRegression(all, history::GateOptions{});
  ASSERT_EQ(full.size(), 4u);  // two tests x two FOMs
  const std::vector<history::GateResult> touched =
      gateCampaign(objects, campaigns.back(), history::GateOptions{});
  ASSERT_EQ(touched.size(), 2u);
  int regressions = 0;
  for (const history::GateResult& gate : touched) {
    const auto same = std::find_if(
        full.begin(), full.end(),
        [&](const history::GateResult& g) { return g.series == gate.series; });
    ASSERT_NE(same, full.end()) << gate.series;
    EXPECT_EQ(gate.baseline, same->baseline);
    EXPECT_EQ(gate.latest, same->latest);
    EXPECT_EQ(gate.delta, same->delta);
    EXPECT_EQ(gate.regression, same->regression);
    EXPECT_EQ(gate.insufficient, same->insufficient);
    EXPECT_EQ(gate.baselineCi, same->baselineCi);
    EXPECT_EQ(gate.significant, same->significant);
    EXPECT_EQ(gate.changepoint, same->changepoint);
    EXPECT_EQ(gate.changepointIndex, same->changepointIndex);
    EXPECT_EQ(gate.justification, same->justification);
    if (gate.regression) ++regressions;
  }
  EXPECT_EQ(regressions, 1);  // SyntheticTest Triad dropped to 60
}

// The daemon's one-walk tail is the old append-then-gate pair, byte for
// byte: same chain head and the same gate results, campaign by campaign,
// including a resumed (already cited) campaign.
TEST_F(ServiceFixture, HistoryTailMatchesAppendThenGate) {
  store::ObjectStore twoCalls(root_ + "/two-calls");
  store::ObjectStore oneWalk(root_ + "/one-walk");
  const std::vector<ExecutedRecord> campaigns{
      campaignOutcome(1, 100.0, 50.0), campaignOutcome(2, 101.0, 50.5),
      campaignOutcome(3, 99.5, 49.5),  campaignOutcome(4, 100.5, 50.0),
      campaignOutcome(5, 70.0, 50.2),  campaignOutcome(5, 70.0, 50.2),
      campaignOutcome(6, 100.0, 20.0)};
  history::Chain chain;  // long-lived, as the daemon's
  int regressions = 0;
  for (const ExecutedRecord& outcome : campaigns) {
    SCOPED_TRACE(outcome.manifestHash);
    appendCampaignHistory(twoCalls, outcome, systems_, /*skipIfCited=*/true);
    const std::vector<history::GateResult> expected =
        gateCampaign(twoCalls, outcome, history::GateOptions{});
    const std::vector<history::GateResult> actual = appendAndGateCampaign(
        oneWalk, chain, outcome, systems_, history::GateOptions{});
    EXPECT_EQ(oneWalk.ref(history::kHeadRef), twoCalls.ref(history::kHeadRef));
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < actual.size(); ++i) {
      EXPECT_EQ(actual[i].series, expected[i].series);
      EXPECT_EQ(actual[i].baseline, expected[i].baseline);
      EXPECT_EQ(actual[i].latest, expected[i].latest);
      EXPECT_EQ(actual[i].delta, expected[i].delta);
      EXPECT_EQ(actual[i].regression, expected[i].regression);
      EXPECT_EQ(actual[i].insufficient, expected[i].insufficient);
      EXPECT_EQ(actual[i].baselineCi, expected[i].baselineCi);
      EXPECT_EQ(actual[i].latestCi, expected[i].latestCi);
      EXPECT_EQ(actual[i].latestEss, expected[i].latestEss);
      EXPECT_EQ(actual[i].significant, expected[i].significant);
      EXPECT_EQ(actual[i].changepoint, expected[i].changepoint);
      EXPECT_EQ(actual[i].changepointIndex, expected[i].changepointIndex);
      EXPECT_EQ(actual[i].justification, expected[i].justification);
      if (actual[i].regression) ++regressions;
    }
  }
  EXPECT_GE(regressions, 3);  // the Triad drop (twice) and the Copy drop
  // The repeated campaign was cited already, so it appended nothing.
  EXPECT_EQ(history::HistoryIndex(oneWalk).segmentCount(), 6u);
}

// health.json's queue depth comes from directory listings: it counts a
// submission that arrives mid-drain and a tampered one, exactly as a
// scanQueue of the queue would.
TEST_F(ServiceFixture, HealthQueueDepthCountsLateAndTamperedSubmissions) {
  enqueueSubmission(queue_, invocation("first"));
  enqueueSubmission(queue_, invocation("second"));
  const auto healthDepth = [&] {
    return obs::json::parse(readFile(queue_ + "/health.json"))
        .numberOr("queue_depth", -1);
  };
  int calls = 0;
  double midDrainDepth = -1;
  int midDrainScan = -1;
  Service daemon(systems_, repo_, makeOptions(),
                 [&](const store::CampaignInvocation&) {
                   if (calls++ == 0) {
                     enqueueSubmission(queue_, invocation("late"));
                     const Submission tampered =
                         enqueueSubmission(queue_, invocation("tampered"));
                     std::ofstream(tampered.path, std::ios::app)
                         << "tampered\n";
                   } else {
                     midDrainDepth = healthDepth();
                     midDrainScan = unansweredByScan(queue_);
                   }
                   return std::vector<RegressionTest>{syntheticTest()};
                 });
  const ServeReport report = daemon.run();
  // After the first verdict: the other initial submission plus both
  // arrivals are unanswered.
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(midDrainDepth, 3);
  EXPECT_EQ(midDrainScan, 3);
  // A --once pass answers what it listed at its start.
  EXPECT_EQ(report.processed, 2);
  EXPECT_EQ(report.queueDepth, 2);
  EXPECT_EQ(healthDepth(), 2);
  EXPECT_EQ(unansweredByScan(queue_), 2);
}

TEST_F(ServiceFixture, SubmissionWatchdogClassifiesSlowCampaigns) {
  enqueueSubmission(queue_, invocation());
  ServeOptions options = makeOptions();
  options.submissionTimeout = 0.001;  // simulated seconds — trivially blown
  const ServeReport report = serve(std::move(options));
  EXPECT_EQ(report.failed, 1);
  EXPECT_GE(report.watchdogFires, 1);
  const auto scanned = scanQueue(queue_);
  const Verdict verdict =
      Verdict::parse(readFile(verdictPath(queue_, scanned[0].id)));
  EXPECT_EQ(verdict.verdict, "failed:infrastructure");
  EXPECT_NE(verdict.detail.find("watchdog"), std::string::npos);
}

TEST_F(ServiceFixture, ServeTraceLintsClean) {
  enqueueSubmission(queue_, invocation());
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  ServeOptions options = makeOptions();
  options.tracer = &tracer;
  options.metrics = &metrics;
  serve(std::move(options));
  serve([&] {  // second pass exercises the store.runcache hit span
    ServeOptions cached = makeOptions();
    cached.tracer = &tracer;
    cached.metrics = &metrics;
    return cached;
  }());
  const std::string bytes = tracer.toJsonl(&metrics);
  EXPECT_NE(bytes.find("serve.submission"), std::string::npos);
  EXPECT_NE(bytes.find("store.runcache"), std::string::npos);
  const std::vector<std::string> problems =
      obs::lintTrace(obs::parseTraceJsonl(bytes));
  EXPECT_TRUE(problems.empty())
      << (problems.empty() ? "" : problems.front());
}

// ------------------------------------------------- pipeline watchdog

TEST_F(ServiceFixture, PipelineStageTimeoutIsInfrastructureFailure) {
  PipelineOptions options;
  // Deadline on the run stage only (the synthetic run takes 2 simulated
  // seconds); the build stage keeps its own budget.
  options.watchdog.stageOverrides["run"] = 1.0;
  Pipeline pipeline(systems_, repo_, options);
  const TestRunResult result = pipeline.runOne(syntheticTest(), "archer2");
  EXPECT_FALSE(result.passed);
  EXPECT_EQ(result.failure.stage, "run");
  EXPECT_EQ(result.failure.klass, FailureClass::kInfrastructure);
  EXPECT_NE(result.failure.detail.find("watchdog"), std::string::npos);
}

TEST_F(ServiceFixture, StageTimeoutFlowsFromInvocationToVerdict) {
  store::CampaignInvocation inv = invocation();
  inv.stageTimeout = 1.0;
  enqueueSubmission(queue_, inv);
  const ServeReport report = serve(makeOptions());
  EXPECT_EQ(report.failed, 1);
  const auto scanned = scanQueue(queue_);
  const Verdict verdict =
      Verdict::parse(readFile(verdictPath(queue_, scanned[0].id)));
  EXPECT_EQ(verdict.verdict, "failed:infrastructure");
}

// --------------------------------------------------------- run-memo key

TEST_F(ServiceFixture, RunKeyTracksEverythingThatChangesBytes) {
  const std::vector<RegressionTest> tests{syntheticTest()};
  const std::string base = runKeyFor(invocation(), systems_, repo_, tests);
  EXPECT_EQ(runKeyFor(invocation(), systems_, repo_, tests), base);

  store::CampaignInvocation repeats = invocation();
  repeats.repeats = 7;
  EXPECT_NE(runKeyFor(repeats, systems_, repo_, tests), base);

  store::CampaignInvocation target = invocation();
  target.system = "cosma8";
  EXPECT_NE(runKeyFor(target, systems_, repo_, tests), base);

  // A different concretized DAG (new spec) drifts the key even when the
  // invocation bytes are identical.
  std::vector<RegressionTest> otherSpec{syntheticTest()};
  otherSpec[0].spackSpec = "hpgmg";
  EXPECT_NE(runKeyFor(invocation(), systems_, repo_, otherSpec), base);
}

}  // namespace
}  // namespace rebench::service
