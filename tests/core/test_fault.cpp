// Unit tests for the rebench::fault subsystem: fault configuration and
// injector determinism, the failure taxonomy, retry backoff, the
// quarantine circuit breaker, the resumable run journal, the shared JSONL
// log under all three of its owners, and the lenient perflog reader that
// survives corrupted campaign logs.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "core/fault/failure.hpp"
#include "core/fault/fault.hpp"
#include "core/fault/journal.hpp"
#include "core/fault/quarantine.hpp"
#include "core/fault/retry.hpp"
#include "core/fault/watchdog.hpp"
#include "core/framework/perflog.hpp"
#include "core/service/journal.hpp"
#include "core/util/error.hpp"
#include "core/util/strings.hpp"
#include "file_size_limit.hpp"

namespace rebench {
namespace {

TEST(FaultConfig, ParsesFullSpec) {
  const FaultConfig config = FaultConfig::parse(
      "seed=42, crash=0.2, node=0.1, preempt=0.1, build=0.25, corrupt=0.05, "
      "teldrop=0.3");
  EXPECT_EQ(config.seed, 42u);
  EXPECT_DOUBLE_EQ(config.jobCrashProb, 0.2);
  EXPECT_DOUBLE_EQ(config.nodeFailProb, 0.1);
  EXPECT_DOUBLE_EQ(config.preemptProb, 0.1);
  EXPECT_DOUBLE_EQ(config.buildFlakeProb, 0.25);
  EXPECT_DOUBLE_EQ(config.stdoutCorruptProb, 0.05);
  EXPECT_DOUBLE_EQ(config.telemetryDropProb, 0.3);
  EXPECT_TRUE(config.enabled());
}

TEST(FaultConfig, DefaultIsDisabled) {
  EXPECT_FALSE(FaultConfig{}.enabled());
  EXPECT_FALSE(FaultConfig::parse("seed=7").enabled());
}

TEST(FaultConfig, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultConfig::parse("bogus=0.1"), ParseError);
  EXPECT_THROW(FaultConfig::parse("crash"), ParseError);
  EXPECT_THROW(FaultConfig::parse("crash=1.5"), ParseError);
  EXPECT_THROW(FaultConfig::parse("crash=-0.1"), ParseError);
  EXPECT_THROW(FaultConfig::parse("crash=abc"), ParseError);
  EXPECT_THROW(FaultConfig::parse("seed=xyz"), ParseError);
  // Values are whole tokens: a numeric prefix is not the number.
  EXPECT_THROW(FaultConfig::parse("seed=13x,crash=0.3"), ParseError);
  EXPECT_THROW(FaultConfig::parse("crash=0.3x"), ParseError);
  EXPECT_THROW(FaultConfig::parse("seed=-1"), ParseError);
  EXPECT_THROW(FaultConfig::parse("crash=nan"), ParseError);
  // Job-level fault probabilities partition one draw; they cannot sum > 1.
  EXPECT_THROW(FaultConfig::parse("crash=0.5,node=0.4,preempt=0.2"),
               ParseError);
}

TEST(FaultConfig, LoadsFromFileWithComments) {
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "faults.conf").string();
  {
    std::ofstream out(path);
    out << "# campaign chaos profile\n"
        << "seed=99\n"
        << "crash=0.2  # transient crashes\n"
        << "node=0.1\n";
  }
  const FaultConfig config = loadFaultConfig(path);
  EXPECT_EQ(config.seed, 99u);
  EXPECT_DOUBLE_EQ(config.jobCrashProb, 0.2);
  EXPECT_DOUBLE_EQ(config.nodeFailProb, 0.1);
  std::filesystem::remove(path);
  // A non-file argument parses as an inline spec.
  EXPECT_DOUBLE_EQ(loadFaultConfig("crash=0.5").jobCrashProb, 0.5);
}

TEST(FaultInjector, DecisionsAreDeterministicPerKey) {
  FaultConfig config;
  config.seed = 42;
  config.jobCrashProb = 0.5;
  config.buildFlakeProb = 0.5;
  const FaultInjector a(config);
  const FaultInjector b(config);
  for (int i = 0; i < 50; ++i) {
    const std::string key = "Test|sys:part|0|" + std::to_string(i);
    EXPECT_EQ(a.buildFlake(key), b.buildFlake(key)) << key;
    EXPECT_EQ(a.jobFault(key).kind, b.jobFault(key).kind) << key;
    EXPECT_DOUBLE_EQ(a.jobFault(key).atFraction, b.jobFault(key).atFraction);
  }
}

TEST(FaultInjector, DifferentSeedsDiverge) {
  FaultConfig c1;
  c1.seed = 1;
  c1.jobCrashProb = 0.5;
  FaultConfig c2 = c1;
  c2.seed = 2;
  const FaultInjector a(c1);
  const FaultInjector b(c2);
  int differing = 0;
  for (int i = 0; i < 100; ++i) {
    const std::string key = "k" + std::to_string(i);
    if (a.jobFault(key).kind != b.jobFault(key).kind) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(FaultInjector, ProbabilitiesRoughlyRespected) {
  FaultConfig config;
  config.seed = 7;
  config.nodeFailProb = 0.2;
  const FaultInjector injector(config);
  int fired = 0;
  for (int i = 0; i < 1000; ++i) {
    if (injector.jobFault("key" + std::to_string(i)).kind ==
        JobFaultDecision::Kind::kNodeFailure) {
      ++fired;
    }
  }
  EXPECT_GT(fired, 120);
  EXPECT_LT(fired, 280);
}

TEST(FaultInjector, StrikeFractionStaysInsideTheRun) {
  FaultConfig config;
  config.seed = 3;
  config.nodeFailProb = 1.0;
  const FaultInjector injector(config);
  for (int i = 0; i < 100; ++i) {
    const JobFaultDecision decision =
        injector.jobFault("k" + std::to_string(i));
    ASSERT_EQ(decision.kind, JobFaultDecision::Kind::kNodeFailure);
    EXPECT_GT(decision.atFraction, 0.0);
    EXPECT_LT(decision.atFraction, 1.0);
  }
}

TEST(FaultInjector, CorruptTextIsDeterministicAndMarked) {
  FaultConfig config;
  config.seed = 11;
  config.stdoutCorruptProb = 1.0;
  const FaultInjector injector(config);
  const std::string text = "line one\nline two\nline three\n";
  const std::string c1 = injector.corruptText(text, "k");
  const std::string c2 = injector.corruptText(text, "k");
  EXPECT_EQ(c1, c2);
  EXPECT_TRUE(str::contains(c1, "CORRUPTED OUTPUT"));
  EXPECT_NE(injector.corruptText(text, "other"), c1);
}

TEST(FailureTaxonomy, ClassifiesPerStage) {
  EXPECT_EQ(classifyFailure("concretize", "no such package"),
            FailureClass::kPermanent);
  EXPECT_EQ(classifyFailure("submit", "Invalid account"),
            FailureClass::kPermanent);
  EXPECT_EQ(classifyFailure("build", "injected transient build failure"),
            FailureClass::kTransient);
  EXPECT_EQ(classifyFailure("build", "compile error"),
            FailureClass::kPermanent);
  EXPECT_EQ(classifyFailure("run", "NODE_FAIL"),
            FailureClass::kInfrastructure);
  EXPECT_EQ(classifyFailure("run", "TIMEOUT"),
            FailureClass::kInfrastructure);
  EXPECT_EQ(classifyFailure("run", "FAILED"), FailureClass::kTransient);
  EXPECT_EQ(classifyFailure("run", "model 'cuda' not supported"),
            FailureClass::kPermanent);
  EXPECT_EQ(classifyFailure("sanity", "pattern not found"),
            FailureClass::kTransient);
  EXPECT_EQ(classifyFailure("performance", "FOM not found"),
            FailureClass::kTransient);
  EXPECT_EQ(classifyFailure("reference", "outside bounds"),
            FailureClass::kPermanent);
  EXPECT_EQ(classifyFailure("quarantine", "circuit open"),
            FailureClass::kInfrastructure);
}

TEST(FailureTaxonomy, Names) {
  EXPECT_EQ(failureClassName(FailureClass::kTransient), "transient");
  EXPECT_EQ(failureClassName(FailureClass::kPermanent), "permanent");
  EXPECT_EQ(failureClassName(FailureClass::kInfrastructure),
            "infrastructure");
}

TEST(RetryPolicy, PerStageBudgetsOverrideTheDefault) {
  RetryPolicy policy;
  policy.maxRetries = 2;
  policy.stageBudgets["run"] = 5;
  policy.stageBudgets["sanity"] = 0;
  EXPECT_EQ(policy.budgetFor("run"), 5);
  EXPECT_EQ(policy.budgetFor("sanity"), 0);
  EXPECT_EQ(policy.budgetFor("build"), 2);
}

TEST(RetryPolicy, BackoffGrowsExponentiallyAndClamps) {
  RetryPolicy policy;
  policy.backoffBase = 1.0;
  policy.backoffMultiplier = 2.0;
  policy.backoffMax = 8.0;
  policy.jitterFrac = 0.0;
  EXPECT_DOUBLE_EQ(policy.backoffSeconds("k", 1), 1.0);
  EXPECT_DOUBLE_EQ(policy.backoffSeconds("k", 2), 2.0);
  EXPECT_DOUBLE_EQ(policy.backoffSeconds("k", 3), 4.0);
  EXPECT_DOUBLE_EQ(policy.backoffSeconds("k", 4), 8.0);
  EXPECT_DOUBLE_EQ(policy.backoffSeconds("k", 10), 8.0);  // clamped
}

TEST(RetryPolicy, JitterIsDeterministicAndBounded) {
  RetryPolicy policy;
  policy.backoffBase = 10.0;
  policy.jitterFrac = 0.1;
  policy.seed = 42;
  const double first = policy.backoffSeconds("key", 1);
  EXPECT_DOUBLE_EQ(first, policy.backoffSeconds("key", 1));
  EXPECT_GE(first, 9.0);
  EXPECT_LE(first, 11.0);
  // Distinct keys and retry indices jitter independently.
  EXPECT_NE(first, policy.backoffSeconds("other", 1));
  EXPECT_NE(policy.backoffSeconds("key", 2),
            2.0 * policy.backoffSeconds("key", 1));
}

TEST(CircuitBreaker, OpensAtThresholdAndResetsOnSuccess) {
  CircuitBreaker breaker(3);
  EXPECT_TRUE(breaker.allows("a"));
  EXPECT_FALSE(breaker.recordFailure("a"));
  EXPECT_FALSE(breaker.recordFailure("a"));
  EXPECT_TRUE(breaker.allows("a"));
  // A success wipes the streak.
  breaker.recordSuccess("a");
  EXPECT_EQ(breaker.consecutiveFailures("a"), 0);
  EXPECT_FALSE(breaker.recordFailure("a"));
  EXPECT_FALSE(breaker.recordFailure("a"));
  EXPECT_TRUE(breaker.recordFailure("a"));  // third in a row opens it
  EXPECT_FALSE(breaker.allows("a"));
  EXPECT_TRUE(breaker.allows("b"));  // independent keys
  EXPECT_EQ(breaker.openKeys(), std::vector<std::string>{"a"});
}

TEST(CircuitBreaker, NonPositiveThresholdDisables) {
  CircuitBreaker breaker(0);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(breaker.recordFailure("a"));
  EXPECT_TRUE(breaker.allows("a"));
}

TEST(RunJournal, RecordsAndReloads) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "journal_rt").string();
  std::filesystem::remove_all(dir);
  {
    RunJournal journal(dir);
    EXPECT_EQ(journal.size(), 0u);
    EXPECT_FALSE(journal.contains("T", "sys", 0));
    journal.record("T", "sys", 0, "pass", "", 1);
    journal.record("T", "sys", 1, "fail", "sanity", 3);
    EXPECT_TRUE(journal.contains("T", "sys", 0));
    EXPECT_TRUE(journal.contains("T", "sys", 1));
    EXPECT_FALSE(journal.contains("T", "sys", 2));
  }
  // A fresh instance loads the same tuples back.
  RunJournal reloaded(dir);
  EXPECT_EQ(reloaded.size(), 2u);
  EXPECT_TRUE(reloaded.contains("T", "sys", 0));
  EXPECT_TRUE(reloaded.contains("T", "sys", 1));
  EXPECT_FALSE(reloaded.contains("Other", "sys", 0));
  EXPECT_EQ(reloaded.corruptLines(), 0u);
  std::filesystem::remove_all(dir);
}

TEST(RunJournal, ToleratesTruncatedTailLine) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "journal_trunc")
          .string();
  std::filesystem::remove_all(dir);
  {
    RunJournal journal(dir);
    journal.record("T", "sys", 0, "pass", "", 1);
  }
  {
    // Simulate the kill mid-append that --resume exists for.
    std::ofstream out(RunJournal::pathFor(dir), std::ios::app);
    out << "{\"kind\":\"run\",\"test\":\"T\",\"ta";
  }
  RunJournal journal(dir);
  EXPECT_EQ(journal.size(), 1u);
  EXPECT_EQ(journal.corruptLines(), 1u);
  EXPECT_TRUE(journal.contains("T", "sys", 0));
  std::filesystem::remove_all(dir);
}

TEST(RunJournal, TruncatesCorruptTailOnDisk) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "journal_rewrite")
          .string();
  std::filesystem::remove_all(dir);
  {
    RunJournal journal(dir);
    journal.record("T", "sys", 0, "pass", "", 1);
  }
  {
    std::ofstream out(RunJournal::pathFor(dir), std::ios::app);
    out << "{\"kind\":\"run\",\"test\":\"T\",\"ta";
  }
  // Opening truncates the torn tail away on disk (tmp + atomic rename),
  // so the next crash cannot stack corruption on top of corruption: a
  // second open sees a fully intact file.
  {
    RunJournal journal(dir);
    EXPECT_EQ(journal.corruptLines(), 1u);
  }
  RunJournal clean(dir);
  EXPECT_EQ(clean.corruptLines(), 0u);
  EXPECT_EQ(clean.size(), 1u);
  EXPECT_TRUE(clean.contains("T", "sys", 0));
  std::filesystem::remove_all(dir);
}

// The run journal and the service journal share one JsonlLog; each case
// drives it through its owner's public API.
struct LogOwner {
  const char* name;
  std::string (*pathFor)(const std::string& dir);
  std::string_view schema;
  /// Opens the owner over `dir` and appends one record named `id`.
  void (*append)(const std::string& dir, const std::string& id);
  /// Opens the owner over `dir`: did the record named `id` replay?
  bool (*replayed)(const std::string& dir, const std::string& id);
};

void PrintTo(const LogOwner& owner, std::ostream* out) { *out << owner.name; }

const LogOwner kLogOwners[] = {
    {"run_journal", &RunJournal::pathFor, kJournalSchema,
     [](const std::string& dir, const std::string& id) {
       RunJournal(dir).record(id, "sys", 0, "pass", "", 1);
     },
     [](const std::string& dir, const std::string& id) {
       return RunJournal(dir).contains(id, "sys", 0);
     }},
    {"service_journal", &service::ServiceJournal::pathFor,
     service::kServiceJournalSchema,
     [](const std::string& dir, const std::string& id) {
       service::ServiceJournal(dir).recordClaim(id, "key");
     },
     [](const std::string& dir, const std::string& id) {
       return service::ServiceJournal(dir).state(id) ==
              service::ServiceJournal::State::kClaimed;
     }},
};

class SharedLog : public ::testing::TestWithParam<LogOwner> {
 protected:
  void SetUp() override {
    // One directory per test and owner: ctest -j runs them concurrently.
    std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::replace(name.begin(), name.end(), '/', '_');
    dir_ = (std::filesystem::path(::testing::TempDir()) /
            ("shared_log_" + name))
               .string();
    std::filesystem::remove_all(dir_);
    path_ = GetParam().pathFor(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string contents() const {
    std::ifstream in(path_, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
  }
  /// Corrupt lines a fresh open of the file counts.
  std::size_t corruptLinesOnOpen() const {
    return JsonlLog(path_, GetParam().schema, Durability::kBuffered,
                    [](const obs::json::Value&, std::string_view) {})
        .corruptLines();
  }

  std::string dir_;
  std::string path_;
};

TEST_P(SharedLog, UnparseableTornTailIsCutOnOpen) {
  const LogOwner& owner = GetParam();
  owner.append(dir_, "first");
  std::ofstream(path_, std::ios::app) << "{\"kind\":\"pu";
  owner.append(dir_, "second");
  EXPECT_TRUE(owner.replayed(dir_, "first"));
  EXPECT_TRUE(owner.replayed(dir_, "second"));
  EXPECT_EQ(corruptLinesOnOpen(), 0u);
}

TEST_P(SharedLog, UnterminatedLastLineIsCutOnOpen) {
  const LogOwner& owner = GetParam();
  owner.append(dir_, "first");
  // A crash between the record and its '\n': the line parses, but an
  // append would glue onto it.
  std::filesystem::resize_file(path_, contents().size() - 1);
  owner.append(dir_, "second");
  EXPECT_TRUE(owner.replayed(dir_, "first"));
  EXPECT_TRUE(owner.replayed(dir_, "second"));
  EXPECT_EQ(corruptLinesOnOpen(), 0u);
}

TEST_P(SharedLog, MetaNamingAnotherSchemaThrows) {
  std::filesystem::create_directories(dir_);
  std::ofstream(path_)
      << "{\"kind\":\"meta\",\"schema\":\"rebench.other/1\"}\n";
  EXPECT_THROW(GetParam().replayed(dir_, "first"), Error);
}

TEST_P(SharedLog, AppendUnderFileSizeLimitThrowsAndLeavesFileIntact) {
  const LogOwner& owner = GetParam();
  owner.append(dir_, "first");
  const std::string before = contents();
  {
    // Room for a fragment of the next line, not the whole line.
    const FileSizeLimit limit(before.size() + 8);
    EXPECT_THROW(owner.append(dir_, "second"), Error);
  }
  EXPECT_EQ(contents(), before);
  EXPECT_FALSE(owner.replayed(dir_, "second"));
}

INSTANTIATE_TEST_SUITE_P(Owners, SharedLog, ::testing::ValuesIn(kLogOwners),
                         [](const auto& info) { return info.param.name; });

// flock locks belong to an open file: a second FileLock on the path, in
// this process or another, waits (or, trying, fails) until the first is
// released.
TEST(FileLock, TryFailsWhileAnotherHolderHasTheLock) {
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "file_lock_try").string();
  std::filesystem::remove(path);
  {
    const FileLock first(path);
    ASSERT_TRUE(first.held());
    EXPECT_FALSE(FileLock(path, FileLock::Mode::kTry).held());
  }
  EXPECT_TRUE(FileLock(path, FileLock::Mode::kTry).held());
  std::filesystem::remove(path);
}

// Concurrent publishers of one path (two `run --store` writing
// manifests/latest.json) each write their own temp file: every call
// returns, one writer's bytes win whole, and no temp file is left.
TEST(WriteFileAtomic, ConcurrentWritersEachPublishWhole) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "atomic_writers";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "latest.json").string();
  constexpr int kWriters = 8;
  constexpr int kRounds = 50;
  std::vector<std::string> payloads;
  for (int w = 0; w < kWriters; ++w) {
    payloads.push_back(std::string(4096 + w, static_cast<char>('a' + w)));
  }
  std::atomic<int> published{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int round = 0; round < kRounds; ++round) {
        try {
          writeFileAtomic(path, payloads[static_cast<std::size_t>(w)],
                          Durability::kBuffered);
          ++published;
        } catch (const Error&) {
        }
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  EXPECT_EQ(published.load(), kWriters * kRounds);
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  EXPECT_NE(std::find(payloads.begin(), payloads.end(), bytes.str()),
            payloads.end());
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(names, std::vector<std::string>{"latest.json"});
  std::filesystem::remove_all(dir);
}

TEST(Watchdog, LimitResolutionAndFiring) {
  WatchdogPolicy policy;
  EXPECT_FALSE(policy.enabled());
  EXPECT_FALSE(checkStageDeadline(policy, "run", 1e9).has_value());

  policy.stageTimeoutSeconds = 10.0;
  policy.stageOverrides["build"] = 2.0;
  EXPECT_TRUE(policy.enabled());
  EXPECT_EQ(policy.limitFor("run"), 10.0);
  EXPECT_EQ(policy.limitFor("build"), 2.0);

  // Finishing exactly on the deadline is within budget.
  EXPECT_FALSE(checkStageDeadline(policy, "run", 10.0).has_value());
  const auto fired = checkStageDeadline(policy, "build", 2.5);
  ASSERT_TRUE(fired.has_value());
  EXPECT_EQ(fired->stage, "build");
  EXPECT_EQ(fired->limitSeconds, 2.0);
  EXPECT_EQ(fired->elapsedSeconds, 2.5);
}

TEST(Watchdog, FireClassifiesAsInfrastructure) {
  WatchdogPolicy policy;
  policy.stageTimeoutSeconds = 1.0;
  const auto fired = checkStageDeadline(policy, "run", 3.0);
  ASSERT_TRUE(fired.has_value());
  const FailureInfo failure = fired->failure();
  EXPECT_EQ(failure.klass, FailureClass::kInfrastructure);
  EXPECT_EQ(failureClassName(failure.klass), "infrastructure");
  EXPECT_NE(failure.detail.find("watchdog"), std::string::npos);
}

TEST(Watchdog, StatefulWrapperCountsFires) {
  WatchdogPolicy policy;
  policy.stageTimeoutSeconds = 1.0;
  StageWatchdog watchdog(policy);
  EXPECT_FALSE(watchdog.check("run", 0.5).has_value());
  EXPECT_TRUE(watchdog.check("run", 1.5).has_value());
  EXPECT_TRUE(watchdog.check("build", 2.0).has_value());
  EXPECT_EQ(watchdog.fires(), 2u);
}

TEST(PerfLogLenient, SkipsAndCountsCorruptLines) {
  PerfLogEntry good;
  good.testName = "T";
  good.fomName = "Triad";
  good.value = 1.5;
  good.result = "pass";
  const std::vector<std::string> lines = {
      good.serialize(),
      "#### CORRUPTED OUTPUT ####",
      "system=x|value=not_a_number",  // truncated mid-value
      "system=x|value=336565.526000abc",
      "system=x|value=1e999",
      good.serialize(),
  };
  EXPECT_THROW(PerfLog::parseLines(lines), ParseError);
  const PerfLog::LenientParse parsed = PerfLog::parseLinesLenient(lines);
  EXPECT_EQ(parsed.entries.size(), 2u);
  EXPECT_EQ(parsed.corruptLines, 4u);
  EXPECT_EQ(parsed.entries[0].testName, "T");
}

}  // namespace
}  // namespace rebench
