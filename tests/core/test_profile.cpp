// The trace profiling engine: canonical lane-schedule reconstruction,
// critical-path extraction with self/child attribution, Chrome trace
// export, and trace diffing — plus the contract that ties them to the
// campaign executor: the profile of a --jobs N trace is the same for
// every N, and its makespan matches the campaign report's.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/framework/pipeline.hpp"
#include "core/obs/metrics.hpp"
#include "core/obs/trace.hpp"
#include "core/obs/trace_reader.hpp"
#include "core/postproc/chrome_export.hpp"
#include "core/postproc/critical_path.hpp"
#include "core/postproc/profile.hpp"
#include "core/postproc/trace_report.hpp"
#include "core/util/error.hpp"
#include "core/util/strings.hpp"

namespace rebench::postproc {
namespace {

RegressionTest streamTest(std::string name, double runSeconds) {
  RegressionTest test;
  test.name = std::move(name);
  test.spackSpec = "stream%gcc";
  test.numTasks = 1;
  test.numTasksPerNode = 1;
  test.sanityPattern = "Solution Validates";
  test.perfPatterns = {{"Triad", R"(Triad:\s+([0-9.]+))", Unit::kMBperSec}};
  test.run = [runSeconds](const RunContext&) {
    return RunOutput{"Triad: 100000.0 MB/s\nSolution Validates\n",
                     runSeconds, false, ""};
  };
  return test;
}

/// Runs a three-test suite (distinct simulated durations) at `jobs`
/// workers / `lanes` profile lanes and returns the parsed trace.
obs::TraceFile campaignTrace(int jobs, int lanes, CampaignReport* report) {
  const SystemRegistry systems = builtinSystems();
  const PackageRepository repo = builtinRepository();
  PipelineOptions options;
  options.jobs = jobs;
  options.profileLanes = lanes;
  options.numRepeats = 2;
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  options.tracer = &tracer;
  options.metrics = &metrics;
  Pipeline pipeline(systems, repo, options);
  const std::vector<RegressionTest> tests{streamTest("ProfA", 8.0),
                                          streamTest("ProfB", 20.0),
                                          streamTest("ProfC", 3.0)};
  const std::vector<std::string> targets{"archer2"};
  pipeline.runAll(tests, targets, nullptr, nullptr, report);
  return obs::parseTraceJsonl(tracer.toJsonl(&metrics));
}

TEST(Profile, ScheduleMatchesCampaignReportWhenLanesEqualJobs) {
  CampaignReport report;
  const obs::TraceFile trace = campaignTrace(/*jobs=*/3, /*lanes=*/3,
                                             &report);
  const TraceProfile profile = profileTrace(trace);
  EXPECT_TRUE(profile.fromWorkerSpans);
  ASSERT_EQ(profile.units.size(), report.executed);
  // The stamps are str::fixed(.., 6), so the reconstruction agrees with
  // the report's full-precision greedy schedule to rounding.
  EXPECT_NEAR(profile.makespanSeconds, report.simulatedMakespanSeconds,
              1e-4);
  EXPECT_NEAR(profile.serialSeconds, report.simulatedSerialSeconds, 1e-4);
  ASSERT_EQ(profile.lanes.size(), 3u);
  double busy = 0.0;
  for (const LaneStats& lane : profile.lanes) {
    busy += lane.busySeconds;
    EXPECT_NEAR(lane.busySeconds + lane.idleSeconds,
                profile.makespanSeconds, 1e-9);
  }
  EXPECT_NEAR(busy, profile.serialSeconds, 1e-9);
}

TEST(Profile, ProfileIsIdenticalAcrossJobCounts) {
  CampaignReport r1, r8;
  const obs::TraceFile t1 = campaignTrace(/*jobs=*/1, /*lanes=*/4, &r1);
  const obs::TraceFile t8 = campaignTrace(/*jobs=*/8, /*lanes=*/4, &r8);
  const TraceProfile p1 = profileTrace(t1);
  const TraceProfile p8 = profileTrace(t8);
  EXPECT_EQ(renderProfile(p1), renderProfile(p8));
  EXPECT_EQ(profileJson(p1), profileJson(p8));
  EXPECT_EQ(renderChromeTrace(t1, p1), renderChromeTrace(t8, p8));
  const CriticalPathReport c1 = extractCriticalPath(t1, p1);
  const CriticalPathReport c8 = extractCriticalPath(t8, p8);
  EXPECT_EQ(renderCriticalPath(c1), renderCriticalPath(c8));
}

// The k-th unit lands on a lane at or below k, so a lane count past the
// campaign's six units stamps what 64 lanes stamp, and costs no more.
TEST(Profile, HugeLaneCountsStampWhatSixtyFourLanesStamp) {
  const auto laneStamps = [](int lanes) {
    std::vector<std::string> stamps;
    for (const obs::SpanRecord& span :
         campaignTrace(/*jobs=*/2, lanes, nullptr).spans) {
      if (span.name == "exec.worker") stamps.push_back(span.attrs.at("lane"));
    }
    return stamps;
  };
  const std::vector<std::string> stamps = laneStamps(64);
  EXPECT_EQ(stamps.size(), 6u);
  EXPECT_EQ(laneStamps(2147483647), stamps);
}

TEST(CriticalPath, LengthEqualsMakespanAndAttributionIsConsistent) {
  CampaignReport report;
  const obs::TraceFile trace = campaignTrace(/*jobs=*/2, /*lanes=*/2,
                                             &report);
  const TraceProfile profile = profileTrace(trace);
  const CriticalPathReport critical = extractCriticalPath(trace, profile);
  // The busiest lane has no idle gaps, so its chain *is* the makespan.
  EXPECT_DOUBLE_EQ(critical.lengthSeconds, profile.makespanSeconds);
  ASSERT_FALSE(critical.steps.empty());
  for (const CriticalPathReport::Step& step : critical.steps) {
    EXPECT_EQ(step.unit.lane, critical.lane);
    ASSERT_FALSE(step.attribution.empty());
    EXPECT_EQ(step.attribution.front().name, "exec.worker");
    for (const SpanAttribution& attr : step.attribution) {
      EXPECT_NEAR(attr.selfSeconds + attr.childSeconds, attr.totalSeconds,
                  1e-9);
      EXPECT_GE(attr.selfSeconds, 0.0);
    }
    // Dominant descent only ever goes deeper.
    for (std::size_t i = 1; i < step.attribution.size(); ++i) {
      EXPECT_EQ(step.attribution[i].depth,
                step.attribution[i - 1].depth + 1);
    }
  }
}

// ---- synthetic traces ----------------------------------------------------

/// One stamped exec.worker root with the given lane/sim_seconds.
void addWorkerSpan(obs::Tracer& tracer, const std::string& test, int lane,
                   double simSeconds, double blockedSeconds = 0.0) {
  const std::string id = tracer.beginSpan("exec.worker");
  tracer.setAttr("campaign", "0");
  tracer.setAttr("test", test);
  tracer.setAttr("target", "sys:part");
  tracer.setAttr("repeat", "0");
  if (blockedSeconds > 0.0) {
    tracer.beginSpan("store.singleflight");
    tracer.setAttr("key", "k");
    tracer.setAttr("role", "follower");
    tracer.clock().advance(blockedSeconds);
    tracer.endSpan();
  }
  tracer.clock().advance(simSeconds);
  tracer.endSpan();
  tracer.annotateCompleted(id, "lane", std::to_string(lane));
  tracer.annotateCompleted(id, "sim_seconds", str::fixed(simSeconds, 6));
}

TEST(Profile, ReplaysStampedLaneChainsAndBlockedTime) {
  obs::Tracer tracer;
  addWorkerSpan(tracer, "A", 0, 10.0);
  addWorkerSpan(tracer, "B", 1, 4.0, /*blockedSeconds=*/1.5);
  addWorkerSpan(tracer, "C", 0, 2.0);
  const obs::TraceFile trace = obs::parseTraceJsonl(tracer.toJsonl());
  const TraceProfile profile = profileTrace(trace);
  ASSERT_EQ(profile.units.size(), 3u);
  EXPECT_EQ(profile.units[0].label, "A@sys:part r0");
  EXPECT_DOUBLE_EQ(profile.units[0].start, 0.0);
  EXPECT_DOUBLE_EQ(profile.units[0].end, 10.0);
  EXPECT_DOUBLE_EQ(profile.units[2].start, 10.0);  // chains after A
  EXPECT_DOUBLE_EQ(profile.units[2].end, 12.0);
  EXPECT_DOUBLE_EQ(profile.makespanSeconds, 12.0);
  EXPECT_DOUBLE_EQ(profile.serialSeconds, 16.0);
  ASSERT_EQ(profile.lanes.size(), 2u);
  EXPECT_DOUBLE_EQ(profile.lanes[0].busySeconds, 12.0);
  EXPECT_DOUBLE_EQ(profile.lanes[1].busySeconds, 4.0);
  EXPECT_DOUBLE_EQ(profile.lanes[1].idleSeconds, 8.0);
  EXPECT_NEAR(profile.units[1].blockedSeconds, 1.5, 1e-5);

  const CriticalPathReport critical = extractCriticalPath(trace, profile);
  EXPECT_EQ(critical.lane, 0);
  EXPECT_EQ(critical.steps.size(), 2u);
  EXPECT_DOUBLE_EQ(critical.lengthSeconds, 12.0);
}

TEST(Profile, RunModeTracesFallBackToOneSequentialLane) {
  obs::Tracer tracer;
  for (const char* name : {"R0", "R1"}) {
    tracer.beginSpan("test_run");
    tracer.setAttr("test", name);
    tracer.setAttr("target", "sys:part");
    tracer.setAttr("repeat", "0");
    tracer.clock().advance(5.0);
    tracer.endSpan();
  }
  const obs::TraceFile trace = obs::parseTraceJsonl(tracer.toJsonl());
  const TraceProfile profile = profileTrace(trace);
  EXPECT_FALSE(profile.fromWorkerSpans);
  ASSERT_EQ(profile.units.size(), 2u);
  ASSERT_EQ(profile.lanes.size(), 1u);
  EXPECT_DOUBLE_EQ(profile.units[1].start, profile.units[0].end);
  EXPECT_NEAR(profile.makespanSeconds, 10.0, 1e-4);
}

TEST(Profile, RejectsWorkerSpansWithoutStampsAndEmptyTraces) {
  obs::Tracer unstamped;
  unstamped.beginSpan("exec.worker");
  unstamped.endSpan();
  EXPECT_THROW(
      profileTrace(obs::parseTraceJsonl(unstamped.toJsonl())), Error);

  obs::Tracer empty;
  empty.beginSpan("concretize");
  empty.endSpan();
  EXPECT_THROW(profileTrace(obs::parseTraceJsonl(empty.toJsonl())), Error);

  // Malformed stamps on the second of two worker spans: each is an Error
  // naming that span, never an abort or a numeric prefix read as valid.
  const std::vector<std::pair<std::string, std::string>> stamps = {
      {"-1", "4.0"},      {"0x", "4.0"},  {"abc", "4.0"}, {"2", "4.0"},
      {"1", "12.5junk"}, {"1", "-4.0"}, {"1", "nan"},   {"1", "inf"}};
  for (const auto& [lane, sim] : stamps) {
    obs::Tracer tracer;
    addWorkerSpan(tracer, "A", 0, 10.0);
    const std::string id = tracer.beginSpan("exec.worker");
    tracer.endSpan();
    tracer.annotateCompleted(id, "lane", lane);
    tracer.annotateCompleted(id, "sim_seconds", sim);
    const obs::TraceFile trace = obs::parseTraceJsonl(tracer.toJsonl());
    try {
      profileTrace(trace);
      ADD_FAILURE() << "lane '" << lane << "', sim_seconds '" << sim
                    << "' was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("span '" + id + "'"),
                std::string::npos)
          << e.what();
    }
  }
}

// ---- chrome export -------------------------------------------------------

TEST(ChromeExport, EmitsBothProcessGroupsDeterministically) {
  obs::Tracer tracer;
  addWorkerSpan(tracer, "A", 0, 10.0);
  addWorkerSpan(tracer, "B", 1, 4.0);
  const obs::TraceFile trace = obs::parseTraceJsonl(tracer.toJsonl());
  const TraceProfile profile = profileTrace(trace);
  const std::string chrome = renderChromeTrace(trace, profile);
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome.find("recorded timeline"), std::string::npos);
  EXPECT_NE(chrome.find("scheduled lanes"), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\":\"X\""), std::string::npos);
  // Durations are integer microseconds: lane 0's unit is 10 s.
  EXPECT_NE(chrome.find("\"dur\":10000000"), std::string::npos);
  EXPECT_EQ(chrome, renderChromeTrace(trace, profile));
}

// ---- trace diff ----------------------------------------------------------

TEST(TraceDiff, SelfDiffIsIdenticalWithZeroRegressions) {
  CampaignReport report;
  const obs::TraceFile trace = campaignTrace(/*jobs=*/2, /*lanes=*/2,
                                             &report);
  const TraceDiff diff = diffTraces(trace, trace, 0.05);
  EXPECT_TRUE(diff.identical());
  EXPECT_EQ(diff.regressions(), 0u);
  EXPECT_TRUE(diff.counters.empty());
  EXPECT_NE(renderDiff(diff).find("traces identical"), std::string::npos);
}

TEST(TraceDiff, FlagsDurationRegressionsAboveThresholdByNamePath) {
  auto makeTrace = [](double buildSeconds) {
    obs::Tracer tracer;
    tracer.beginSpan("test_run");
    tracer.beginSpan("build");
    tracer.clock().advance(buildSeconds);
    tracer.endSpan();
    tracer.beginSpan("run");
    tracer.clock().advance(5.0);
    tracer.endSpan();
    tracer.endSpan();
    return obs::parseTraceJsonl(tracer.toJsonl());
  };
  const obs::TraceFile a = makeTrace(10.0);
  const obs::TraceFile b = makeTrace(12.0);  // build 20% slower
  const TraceDiff diff = diffTraces(a, b, 0.05);
  EXPECT_FALSE(diff.identical());
  EXPECT_EQ(diff.regressions(), 2u);  // test_run/build and the root total
  bool sawBuild = false;
  for (const TraceDiff::PathDelta& delta : diff.paths) {
    if (delta.path == "test_run/build") {
      sawBuild = true;
      EXPECT_TRUE(delta.regression);
      EXPECT_NEAR(delta.totalA, 10.0, 1e-4);
      EXPECT_NEAR(delta.totalB, 12.0, 1e-4);
    }
    if (delta.path == "test_run/run") {
      EXPECT_FALSE(delta.regression);
    }
  }
  EXPECT_TRUE(sawBuild);
  // A 25% threshold tolerates the 20% growth.
  EXPECT_EQ(diffTraces(a, b, 0.25).regressions(), 0u);
  // Reversed, nothing grew: improvements are never regressions.
  EXPECT_EQ(diffTraces(b, a, 0.05).regressions(), 0u);
}

TEST(TraceDiff, ReportsNewPathsAndCounterDeltas) {
  obs::Tracer ta;
  ta.beginSpan("stage");
  ta.endSpan();
  obs::MetricsRegistry ma;
  ma.counter("runs").inc(2);

  obs::Tracer tb;
  tb.beginSpan("stage");
  tb.endSpan();
  tb.beginSpan("extra");
  tb.clock().advance(1.0);
  tb.endSpan();
  obs::MetricsRegistry mb;
  mb.counter("runs").inc(3);
  mb.counter("retries").inc(1);

  const TraceDiff diff =
      diffTraces(obs::parseTraceJsonl(ta.toJsonl(&ma)),
                 obs::parseTraceJsonl(tb.toJsonl(&mb)), 0.05);
  bool sawExtra = false;
  for (const TraceDiff::PathDelta& delta : diff.paths) {
    if (delta.path == "extra") {
      sawExtra = true;
      EXPECT_EQ(delta.countA, 0u);
      EXPECT_EQ(delta.countB, 1u);
      EXPECT_TRUE(delta.regression);  // appeared = regression
    }
  }
  EXPECT_TRUE(sawExtra);
  ASSERT_EQ(diff.counters.size(), 2u);  // sorted: retries, runs
  EXPECT_EQ(diff.counters[0].name, "retries");
  EXPECT_EQ(diff.counters[0].a, 0u);
  EXPECT_EQ(diff.counters[0].b, 1u);
  EXPECT_EQ(diff.counters[1].name, "runs");
}

// ---- shared JSON renderers ----------------------------------------------

TEST(ReportJson, StageAndMetricsFragmentsAreWellFormedAndShared) {
  CampaignReport report;
  const obs::TraceFile trace = campaignTrace(/*jobs=*/2, /*lanes=*/2,
                                             &report);
  const std::string stages = stageTableJson(trace);
  EXPECT_EQ(stages.front(), '[');
  EXPECT_EQ(stages.back(), ']');
  EXPECT_NE(stages.find("\"stage\":\"exec.worker\""), std::string::npos);
  const std::string metrics = metricsJson(trace);
  EXPECT_EQ(metrics.front(), '{');
  EXPECT_NE(metrics.find("\"counters\""), std::string::npos);
  const TraceProfile profile = profileTrace(trace);
  const std::string profileFragment = profileJson(profile);
  EXPECT_NE(profileFragment.find("\"makespan_s\""), std::string::npos);
  const std::string criticalFragment =
      criticalPathJson(extractCriticalPath(trace, profile));
  EXPECT_NE(criticalFragment.find("\"length_s\""), std::string::npos);
}

}  // namespace
}  // namespace rebench::postproc
