#include "traced_serve.hpp"

#include <filesystem>
#include <functional>
#include <optional>
#include <ostream>
#include <sstream>

#include "core/fault/journal.hpp"
#include "core/fault/quarantine.hpp"
#include "core/history/history.hpp"
#include "core/obs/json.hpp"
#include "core/service/journal.hpp"
#include "core/service/queue.hpp"
#include "core/service/record.hpp"
#include "core/store/object_store.hpp"
#include "core/store/run_cache.hpp"
#include "core/telemetry/plane.hpp"
#include "core/util/error.hpp"
#include "layer_trace.hpp"
#include "sysprobe.hpp"

namespace rebench::e2e {

namespace fs = std::filesystem;

namespace {

using service::ServeReport;
using service::Submission;
using service::Verdict;

/// What Service::run shares across submissions (its RunContextState).
struct Drain {
  LayerTrace& trace;
  const SystemRegistry& systems;
  const PackageRepository& repo;
  const service::TestResolver& resolver;
  const std::string& queueDir;
  std::ostream& log;
  store::ObjectStore& store;
  store::RunCache& runCache;
  service::ServiceJournal& journal;
  CircuitBreaker& breaker;
  ServeReport& report;
  telemetry::TelemetryPlane& plane;
  std::string indexPath;
};

std::vector<Submission> scan(Drain& d) {
  Span span(&d.trace, "service.queue_scan");
  std::vector<Submission> subs = service::scanQueue(d.queueDir);
  span.attr("files", std::to_string(subs.size()));
  return subs;
}

void writeHealth(Drain& d, const ServeReport& report) {
  std::ostringstream out;
  out << "{\"schema\":\"rebench.serve_health/1\""
      << ",\"processed\":" << report.processed
      << ",\"cached\":" << report.cached
      << ",\"executed\":" << report.executed
      << ",\"clean\":" << report.clean
      << ",\"regressed\":" << report.regressed
      << ",\"failed\":" << report.failed
      << ",\"quarantined\":" << report.quarantined
      << ",\"degraded\":" << report.degraded
      << ",\"malformed\":" << report.malformed
      << ",\"watchdog_fires\":" << report.watchdogFires
      << ",\"queue_depth\":" << report.queueDepth
      << ",\"drained\":" << (report.drained ? "true" : "false")
      << ",\"quarantined_keys\":[";
  const std::vector<std::string> open = d.breaker.openKeys();
  for (std::size_t i = 0; i < open.size(); ++i) {
    if (i > 0) out << ",";
    out << obs::json::quote(open[i]);
  }
  out << "]}\n";
  durableWriteFile((fs::path(d.queueDir) / "health.json").string(), out.str());
}

/// Unanswered submissions right now.
int queueDepth(Drain& d) {
  int depth = 0;
  for (const Submission& sub : scan(d)) {
    if (!fs::exists(service::verdictPath(d.queueDir, sub.id))) ++depth;
  }
  return depth;
}

void refreshHealth(Drain& d) {
  Span span(&d.trace, "service.health");
  ServeReport snapshot = d.report;
  snapshot.queueDepth = queueDepth(d);
  writeHealth(d, snapshot);
  telemetry::TelemetryPlane& plane = d.plane;
  plane.setStat("processed", snapshot.processed);
  plane.setStat("cached", snapshot.cached);
  plane.setStat("executed", snapshot.executed);
  plane.setStat("clean", snapshot.clean);
  plane.setStat("regressed", snapshot.regressed);
  plane.setStat("failed", snapshot.failed);
  plane.setStat("quarantined", snapshot.quarantined);
  plane.setStat("degraded", snapshot.degraded);
  plane.setStat("malformed", snapshot.malformed);
  plane.setStat("watchdog_fires", snapshot.watchdogFires);
  plane.setQueueDepth(snapshot.queueDepth);
  plane.setQuarantinedKeys(d.breaker.openKeys());
}

service::VerdictRecord toRecord(const Verdict& verdict) {
  service::VerdictRecord record;
  record.verdict = verdict.verdict;
  record.key = verdict.key;
  record.manifestHash = verdict.manifestHash;
  record.degraded = verdict.degraded;
  record.detail = verdict.detail;
  return record;
}

void countVerdict(ServeReport& report, const Verdict& verdict) {
  if (verdict.verdict == "cached") {
    ++report.cached;
  } else if (verdict.verdict == "ran:clean") {
    ++report.clean;
  } else if (verdict.verdict == "ran:regressed") {
    ++report.regressed;
  } else {
    ++report.failed;
  }
  if (verdict.degraded) ++report.degraded;
}

void noteVerdict(Drain& d, const Verdict& verdict) {
  d.plane.noteVerdict(verdict.submission, verdict.verdict, verdict.degraded,
                      verdict.detail);
  d.plane.clearInflight();
  if (verdict.verdict.rfind("failed:", 0) == 0) {
    telemetry::dumpFlightRecord(d.queueDir, d.plane.bus());
  }
  d.log << verdict.submission << " " << verdict.verdict
        << (verdict.degraded ? " (degraded)" : "");
  if (!verdict.detail.empty()) d.log << " - " << verdict.detail;
  d.log << "\n";
  refreshHealth(d);
}

void journalCall(Drain& d, const std::function<void()>& record) {
  Span span(&d.trace, "service.journal");
  record();
}

void fileVerdict(Drain& d, const Verdict& verdict) {
  Span span(&d.trace, "service.verdict_write");
  service::writeVerdict(d.queueDir, verdict);
}

void fileDirectVerdict(Drain& d, const Verdict& verdict) {
  fileVerdict(d, verdict);
  countVerdict(d.report, verdict);
  noteVerdict(d, verdict);
}

void processSubmission(Drain& d, const Submission& sub) {
  d.trace.setOp(sub.id);
  Span root(&d.trace, "service.submission");
  ++d.report.processed;
  Verdict verdict;
  verdict.submission = sub.id;

  if (!sub.valid) {
    ++d.report.malformed;
    d.plane.noteStage(sub.id, "service", "malformed", {{"error", sub.error}});
    verdict.verdict = "failed:permanent";
    verdict.detail = sub.error;
    fileDirectVerdict(d, verdict);
    return;
  }
  const store::CampaignInvocation& inv = sub.invocation;

  std::vector<RegressionTest> tests;
  try {
    {
      Span span(&d.trace, "service.resolve");
      tests = d.resolver(inv);
    }
    if (tests.empty()) throw Error("no tests match the submission");
    {
      Span span(&d.trace, "service.run_key");
      verdict.key = service::runKeyFor(inv, d.systems, d.repo, tests);
    }
    d.plane.noteStage(sub.id, "service", "accepted", {{"key", verdict.key}});
  } catch (const Error& e) {
    verdict.verdict = "failed:permanent";
    verdict.detail = e.what();
    fileDirectVerdict(d, verdict);
    return;
  }

  const service::ServiceJournal::State state = d.journal.state(sub.id);
  if (d.journal.crashedClaims(sub.id) > 0 ||
      state == service::ServiceJournal::State::kVerdict ||
      state == service::ServiceJournal::State::kExecuted) {
    throw Error("traced drain does not model crash resume (submission " +
                sub.id + ")");
  }
  if (!d.breaker.allows(sub.id)) {
    throw Error("traced drain does not model quarantine (submission " +
                sub.id + ")");
  }

  store::RunCache::Lookup lookup;
  {
    Span span(&d.trace, "store.runcache_lookup");
    lookup = d.runCache.lookup(verdict.key);
    span.attr("outcome", store::RunCache::outcomeName(lookup.outcome));
  }
  d.plane.noteRunCache(lookup.hit());
  if (lookup.hit()) {
    d.plane.noteStage(sub.id, "runcache", "hit", {{"key", verdict.key}});
    verdict.verdict = "cached";
    verdict.manifestHash = lookup.record->manifestHash;
    verdict.detail = "first ran " + lookup.record->verdict;
    journalCall(d, [&] { d.journal.recordVerdict(sub.id, toRecord(verdict)); });
    d.plane.noteStage(sub.id, "journal", "verdict",
                      {{"verdict", verdict.verdict}});
    fileVerdict(d, verdict);
    journalCall(d, [&] { d.journal.recordDone(sub.id); });
    countVerdict(d.report, verdict);
    noteVerdict(d, verdict);
    d.breaker.recordSuccess(sub.id);
    return;
  }
  bool degraded = false;
  std::string degradedDetail;
  if (lookup.outcome == store::RunCache::Outcome::kCorrupt) {
    degraded = true;
    degradedDetail = "run-cache record failed verification; re-executed";
  }

  journalCall(d, [&] { d.journal.recordClaim(sub.id, verdict.key); });
  d.plane.noteStage(sub.id, "journal", "claim", {{"key", verdict.key}});

  PipelineOptions options = service::pipelineOptionsFor(inv);
  options.jobs = 1;
  options.store = &d.store;
  options.cacheBuilds = inv.cache;
  options.bus = &d.plane.bus();
  PerfLog perflog;
  const std::vector<std::string> targets{inv.system};
  CampaignReport campaignReport;
  d.plane.noteStage(sub.id, "exec", "campaign",
                    {{"tests", std::to_string(tests.size())}});
  service::CampaignExecution execution;
  {
    Span span(&d.trace, "framework.campaign");
    Pipeline pipeline(d.systems, d.repo, options);
    execution = service::executeCampaign(pipeline, tests, targets, inv,
                                         &perflog, nullptr, &campaignReport);
    if (const store::BuildCache* cache = pipeline.buildCache()) {
      d.trace.count("store.build_cache_hits",
                    static_cast<double>(cache->stats().hits));
      d.trace.count("store.build_cache_misses",
                    static_cast<double>(cache->stats().misses));
    }
  }
  const std::vector<TestRunResult>& results = execution.results;
  d.trace.count("framework.runs", static_cast<double>(results.size()));
  d.trace.count("framework.deduped_builds",
                static_cast<double>(campaignReport.dedupedBuilds));
  ++d.report.executed;
  for (const TestRunResult& result : results) {
    if (result.failure.detail.rfind("watchdog:", 0) == 0) {
      ++d.report.watchdogFires;
      d.plane.noteWatchdogFire();
    }
  }

  const std::vector<history::FomAggregate> foms = history::aggregateFoms(results);
  const std::string perflogBytes = service::perflogBytes(perflog);
  service::ManifestWrite manifest;
  {
    Span span(&d.trace, "store.manifest_write");
    manifest = service::writeCampaignManifest(d.store, inv, results, perflog,
                                              nullptr, false);
  }
  service::ExecutedRecord outcome = service::summarizeCampaignOutcome(
      results, foms, manifest.hash, store::ObjectStore::hashBytes(perflogBytes));
  outcome.key = verdict.key;
  journalCall(d, [&] { d.journal.recordExecuted(sub.id, outcome); });
  d.plane.noteStage(sub.id, "journal", "executed",
                    {{"runs", std::to_string(outcome.runs)}});

  verdict.manifestHash = outcome.manifestHash;
  bool memoize = false;
  int regressions = 0;
  if (!outcome.failedStage.empty()) {
    const std::string klass =
        outcome.failureClass.empty() ? "permanent" : outcome.failureClass;
    verdict.verdict = "failed:" + klass;
    verdict.detail = outcome.failedStage + ": " + outcome.failureDetail;
  } else {
    try {
      historyCall(&d.trace, "history.append_campaign", d.indexPath, [&] {
        service::appendCampaignHistory(d.store, outcome, d.systems,
                                       /*skipIfCited=*/true);
      });
      historyCall(&d.trace, "history.gate_campaign", d.indexPath, [&] {
        for (const history::GateResult& gate :
             service::gateCampaign(d.store, outcome, history::GateOptions{})) {
          if (gate.regression) ++regressions;
        }
      });
      verdict.verdict = regressions > 0 ? "ran:regressed" : "ran:clean";
      if (regressions > 0) {
        verdict.detail = std::to_string(regressions) + " series regressed";
      }
      memoize = true;
    } catch (const Error& e) {
      degraded = true;
      degradedDetail = std::string("history unreadable: ") + e.what();
      verdict.verdict = "ran:clean";
    }
  }
  if (degraded) {
    verdict.degraded = true;
    verdict.detail = verdict.detail.empty()
                         ? degradedDetail
                         : verdict.detail + "; " + degradedDetail;
    memoize = false;
  }
  if (memoize && verdict.verdict.rfind("ran:", 0) == 0) {
    store::RunRecord record;
    record.key = verdict.key;
    record.verdict = verdict.verdict;
    record.manifestHash = outcome.manifestHash;
    record.perflogHash = outcome.perflogHash;
    record.runs = outcome.runs;
    record.regressions = regressions;
    Span span(&d.trace, "store.runcache_insert");
    d.runCache.insert(record);
  }

  journalCall(d, [&] { d.journal.recordVerdict(sub.id, toRecord(verdict)); });
  d.plane.noteStage(sub.id, "journal", "verdict", {{"verdict", verdict.verdict}});
  fileVerdict(d, verdict);
  journalCall(d, [&] { d.journal.recordDone(sub.id); });
  countVerdict(d.report, verdict);
  noteVerdict(d, verdict);
  d.breaker.recordSuccess(sub.id);
}

}  // namespace

service::ServeReport tracedServeRun(LayerTrace& trace,
                                    const SystemRegistry& systems,
                                    const PackageRepository& repo,
                                    const std::string& queueDir,
                                    const std::string& storeDir,
                                    const service::TestResolver& resolver,
                                    std::ostream& log) {
  trace.setOp("startup");
  std::optional<Span> startup(std::in_place, &trace, "service.startup");
  fs::create_directories(queueDir);
  std::optional<store::ObjectStore> store;
  std::optional<store::RunCache> runCache;
  {
    Span span(&trace, "store.open");
    store.emplace(storeDir);
    runCache.emplace(*store);
  }
  std::optional<service::ServiceJournal> journal;
  {
    Span span(&trace, "service.journal_open");
    journal.emplace(queueDir);
  }
  CircuitBreaker breaker(service::ServeOptions{}.quarantineAfter);
  ServeReport report;
  telemetry::TelemetryPlane plane;
  Drain d{trace,    systems, repo,    resolver, queueDir,
          log,      *store,  *runCache, *journal, breaker,
          report,   plane,   (fs::path(storeDir) / "index.jsonl").string()};
  plane.setWatchdogArms(0);
  refreshHealth(d);
  const std::vector<Submission> subs = scan(d);
  startup.reset();

  for (const Submission& sub : subs) {
    if (service::drainRequested(queueDir)) {
      report.drained = true;
      break;
    }
    processSubmission(d, sub);
  }

  trace.setOp("shutdown");
  Span span(&trace, "service.health");
  report.queueDepth = queueDepth(d);
  writeHealth(d, report);
  return report;
}

}  // namespace rebench::e2e
