#include "core/service/service.hpp"

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <set>
#include <sstream>
#include <thread>

#include "core/fault/journal.hpp"
#include "core/fault/quarantine.hpp"
#include "core/framework/pipeline.hpp"
#include "core/history/history.hpp"
#include "core/obs/json.hpp"
#include "core/obs/metrics.hpp"
#include "core/obs/trace.hpp"
#include "core/service/journal.hpp"
#include "core/service/queue.hpp"
#include "core/service/record.hpp"
#include "core/store/object_store.hpp"
#include "core/store/run_cache.hpp"
#include "core/telemetry/bus.hpp"
#include "core/telemetry/http.hpp"
#include "core/telemetry/plane.hpp"
#include "core/util/error.hpp"
#include "core/util/strings.hpp"

namespace rebench::service {

namespace fs = std::filesystem;

namespace {

std::atomic<bool> g_shutdownRequested{false};

/// Everything one daemon run shares across submissions.
struct RunContextState {
  const ServeOptions& options;
  store::ObjectStore& store;
  store::RunCache& runCache;
  ServiceJournal& journal;
  CircuitBreaker& breaker;
  ServeReport& report;
  telemetry::TelemetryPlane& plane;
  /// The history as of the last executed verdict; empty until the first
  /// one, and again after a refresh fails.
  history::Chain& history;
};

void writeHealthSnapshot(const ServeOptions& options,
                         const ServeReport& report,
                         const CircuitBreaker& breaker);

/// Mirrors the report counters into the telemetry plane and atomically
/// refreshes QUEUE/health.json.  Runs at startup and after every filed
/// verdict, so health.json is live, not just a drain-time artifact.
void refreshHealth(const RunContextState& ctx) {
  ServeReport snapshot = ctx.report;
  snapshot.queueDepth = queueDepth(ctx.options.queueDir);
  writeHealthSnapshot(ctx.options, snapshot, ctx.breaker);
  telemetry::TelemetryPlane& plane = ctx.plane;
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
  plane.setQuarantinedKeys(ctx.breaker.openKeys());
}

/// The crash-after test hook: mark the report crashed and dump the bus
/// ring, exactly as the real crash path would before the process dies.
void simulateCrash(const RunContextState& ctx) {
  ctx.report.crashed = true;
  telemetry::dumpFlightRecord(ctx.options.queueDir, ctx.plane.bus());
}

VerdictRecord toRecord(const Verdict& verdict) {
  VerdictRecord record;
  record.verdict = verdict.verdict;
  record.key = verdict.key;
  record.manifestHash = verdict.manifestHash;
  record.degraded = verdict.degraded;
  record.detail = verdict.detail;
  return record;
}

/// Tallies a filed verdict into the report.
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

/// Post-hoc serve.submission span + progress line: emitted after the
/// work so campaign execution never nests under an open serve span
/// (Tracer::absorb requires none).
void noteVerdict(const RunContextState& ctx, const Verdict& verdict) {
  ctx.plane.noteVerdict(verdict.submission, verdict.verdict,
                        verdict.degraded, verdict.detail);
  ctx.plane.clearInflight();
  if (verdict.verdict.rfind("failed:", 0) == 0) {
    // Failure post-mortems get the same flight record a crash would.
    telemetry::dumpFlightRecord(ctx.options.queueDir, ctx.plane.bus());
  }
  if (ctx.options.tracer != nullptr) {
    obs::ScopedSpan span(ctx.options.tracer, "serve.submission");
    span.attr("submission", verdict.submission);
    span.attr("verdict", verdict.verdict);
    if (!verdict.key.empty()) span.attr("key", verdict.key);
    span.attr("degraded", verdict.degraded ? "true" : "false");
  }
  if (ctx.options.metrics != nullptr) {
    ctx.options.metrics->counter("serve.submissions").inc();
  }
  if (ctx.options.log != nullptr) {
    *ctx.options.log << verdict.submission << " " << verdict.verdict
                     << (verdict.degraded ? " (degraded)" : "");
    if (!verdict.detail.empty()) {
      *ctx.options.log << " - " << verdict.detail;
    }
    *ctx.options.log << "\n";
  }
  refreshHealth(ctx);
}

/// Files a verdict that bypasses the journal (malformed submissions,
/// quarantine refusals): re-deriving it is trivially deterministic, so
/// checkpoints would buy nothing.
void fileDirectVerdict(const RunContextState& ctx, Verdict verdict) {
  writeVerdict(ctx.options.queueDir, verdict);
  countVerdict(ctx.report, verdict);
  noteVerdict(ctx, verdict);
}

void processSubmission(const RunContextState& ctx,
                       const SystemRegistry& systems,
                       const PackageRepository& repo,
                       const TestResolver& resolver, const Submission& sub) {
  ++ctx.report.processed;
  Verdict verdict;
  verdict.submission = sub.id;

  if (!sub.valid) {
    ++ctx.report.malformed;
    ctx.plane.noteStage(sub.id, "service", "malformed",
                        {{"error", sub.error}});
    verdict.verdict = "failed:permanent";
    verdict.detail = sub.error;
    fileDirectVerdict(ctx, std::move(verdict));
    return;
  }

  store::CampaignInvocation inv = sub.invocation;
  if (inv.stageTimeout <= 0.0 && ctx.options.stageTimeout > 0.0) {
    inv.stageTimeout = ctx.options.stageTimeout;
  }

  std::vector<RegressionTest> tests;
  try {
    tests = resolver(inv);
    if (tests.empty()) throw Error("no tests match the submission");
    verdict.key = runKeyFor(inv, systems, repo, tests);
    ctx.plane.noteStage(sub.id, "service", "accepted",
                        {{"key", verdict.key}});
  } catch (const Error& e) {
    verdict.verdict = "failed:permanent";
    verdict.detail = e.what();
    fileDirectVerdict(ctx, std::move(verdict));
    return;
  }

  // Crash-loop quarantine: a submission whose claims keep dying without
  // journal progress has been killing the daemon — refuse it.
  const int crashes = ctx.journal.crashedClaims(sub.id);
  for (int i = 0; i < crashes; ++i) ctx.breaker.recordFailure(sub.id);
  if (!ctx.breaker.allows(sub.id)) {
    ++ctx.report.quarantined;
    ctx.plane.noteStage(sub.id, "service", "quarantine",
                        {{"crashes", std::to_string(crashes)}});
    if (ctx.options.tracer != nullptr) {
      ctx.options.tracer->event("fault.quarantine", {{"key", sub.id}});
    }
    if (ctx.options.metrics != nullptr) {
      ctx.options.metrics->counter("serve.quarantined").inc();
    }
    verdict.verdict = "failed:quarantined";
    verdict.detail = "submission crashed the daemon " +
                     std::to_string(crashes) + " time(s); refusing to retry";
    fileDirectVerdict(ctx, std::move(verdict));
    return;
  }

  // Mid-flight resume: the verdict was already decided — re-file its
  // exact bytes without touching anything else.
  if (ctx.journal.state(sub.id) == ServiceJournal::State::kVerdict) {
    ctx.plane.noteStage(sub.id, "journal", "resume-verdict");
    const VerdictRecord* record = ctx.journal.verdictOf(sub.id);
    verdict.verdict = record->verdict;
    verdict.key = record->key;
    verdict.manifestHash = record->manifestHash;
    verdict.degraded = record->degraded;
    verdict.detail = record->detail;
    writeVerdict(ctx.options.queueDir, verdict);
    ctx.journal.recordDone(sub.id);
    countVerdict(ctx.report, verdict);
    noteVerdict(ctx, verdict);
    return;
  }

  ExecutedRecord outcome;
  bool degraded = false;
  std::string degradedDetail;

  if (ctx.journal.state(sub.id) == ServiceJournal::State::kExecuted) {
    // Exactly-once: the campaign ran before the crash; everything the
    // verdict needs was journaled, so nothing re-executes.
    outcome = *ctx.journal.executed(sub.id);
    if (!outcome.key.empty()) verdict.key = outcome.key;
    ctx.plane.noteStage(sub.id, "journal", "resume-executed");
  } else {
    store::RunCache::Lookup lookup = ctx.runCache.lookup(verdict.key);
    ctx.plane.noteRunCache(lookup.hit());
    if (lookup.hit()) {
      ctx.plane.noteStage(sub.id, "runcache", "hit",
                          {{"key", verdict.key}});
      verdict.verdict = "cached";
      verdict.manifestHash = lookup.record->manifestHash;
      verdict.detail = "first ran " + lookup.record->verdict;
      ctx.journal.recordVerdict(sub.id, toRecord(verdict));
      ctx.plane.noteStage(sub.id, "journal", "verdict",
                          {{"verdict", verdict.verdict}});
      if (ctx.options.crashAfter == "verdict") {
        simulateCrash(ctx);
        return;
      }
      writeVerdict(ctx.options.queueDir, verdict);
      ctx.journal.recordDone(sub.id);
      if (ctx.options.metrics != nullptr) {
        ctx.options.metrics->counter("serve.cache_hit").inc();
      }
      countVerdict(ctx.report, verdict);
      noteVerdict(ctx, verdict);
      ctx.breaker.recordSuccess(sub.id);
      return;
    }
    if (lookup.outcome == store::RunCache::Outcome::kCorrupt) {
      // Degraded mode: the memo failed verification.  Re-execute (the
      // store already disposed of the bad record) and say so.
      degraded = true;
      degradedDetail = "run-cache record failed verification; re-executed";
    }
    if (ctx.options.metrics != nullptr) {
      ctx.options.metrics->counter("serve.cache_miss").inc();
    }

    ctx.journal.recordClaim(sub.id, verdict.key);
    ctx.plane.noteStage(sub.id, "journal", "claim", {{"key", verdict.key}});
    if (ctx.options.crashAfter == "claim") {
      simulateCrash(ctx);
      return;
    }

    PipelineOptions pipelineOptions = pipelineOptionsFor(inv);
    pipelineOptions.jobs = std::max(1, ctx.options.jobs);
    pipelineOptions.tracer = ctx.options.tracer;
    pipelineOptions.metrics = ctx.options.metrics;
    pipelineOptions.store = &ctx.store;
    pipelineOptions.cacheBuilds = inv.cache;
    pipelineOptions.bus = &ctx.plane.bus();
    Pipeline pipeline(systems, repo, pipelineOptions);
    PerfLog perflog;
    const std::vector<std::string> targets{inv.system};
    CampaignReport campaignReport;
    ctx.plane.noteStage(sub.id, "exec", "campaign",
                        {{"tests", std::to_string(tests.size())}});
    const CampaignExecution execution = executeCampaign(
        pipeline, tests, targets, inv, &perflog, nullptr, &campaignReport);
    const std::vector<TestRunResult>& results = execution.results;
    ++ctx.report.executed;
    for (const TestRunResult& result : results) {
      if (result.failure.detail.rfind("watchdog:", 0) == 0) {
        ++ctx.report.watchdogFires;
        ctx.plane.noteWatchdogFire();
      }
    }

    const std::vector<history::FomAggregate> foms =
        history::aggregateFoms(results);
    const std::string perflog_bytes = perflogBytes(perflog);
    const ManifestWrite manifest = writeCampaignManifest(
        ctx.store, inv, results, perflog, nullptr, false);
    outcome = summarizeCampaignOutcome(
        results, foms, manifest.hash,
        store::ObjectStore::hashBytes(perflog_bytes));
    outcome.key = verdict.key;
    ctx.journal.recordExecuted(sub.id, outcome);
    ctx.plane.noteStage(sub.id, "journal", "executed",
                        {{"runs", std::to_string(outcome.runs)}});
    if (ctx.options.crashAfter == "executed") {
      simulateCrash(ctx);
      return;
    }
  }

  verdict.manifestHash = outcome.manifestHash;
  bool memoize = false;
  int regressions = 0;
  if (!outcome.failedStage.empty()) {
    const std::string klass =
        outcome.failureClass.empty() ? "permanent" : outcome.failureClass;
    verdict.verdict = "failed:" + klass;
    verdict.detail = outcome.failedStage + ": " + outcome.failureDetail;
  } else if (ctx.options.submissionTimeout > 0.0 &&
             outcome.simSeconds > ctx.options.submissionTimeout) {
    // Whole-submission watchdog: the campaign "finished" in simulated
    // time, but past the point a live operator would have killed it.
    if (ctx.options.tracer != nullptr) {
      obs::ScopedSpan span(ctx.options.tracer, "serve.watchdog");
      span.attr("stage", "submission");
      span.attr("limit_seconds",
                str::fixed(ctx.options.submissionTimeout, 6));
      span.attr("elapsed_seconds", str::fixed(outcome.simSeconds, 6));
    }
    if (ctx.options.metrics != nullptr) {
      ctx.options.metrics->counter("serve.watchdog_fired").inc();
    }
    ++ctx.report.watchdogFires;
    ctx.plane.noteWatchdogFire();
    ctx.plane.noteStage(
        sub.id, "watchdog", "submission",
        {{"elapsed_seconds", str::fixed(outcome.simSeconds, 6)}});
    verdict.verdict = "failed:infrastructure";
    verdict.detail =
        "watchdog: submission exceeded its " +
        str::fixed(ctx.options.submissionTimeout, 1) + "s deadline (ran " +
        str::fixed(outcome.simSeconds, 1) + "s)";
  } else {
    try {
      // Idempotent under crash/resume: a previous incarnation's append
      // of this manifest hash is detected and skipped.
      for (const history::GateResult& gate : appendAndGateCampaign(
               ctx.store, ctx.history, outcome, systems,
               history::GateOptions{}, ctx.options.tracer,
               ctx.options.metrics)) {
        if (gate.regression) ++regressions;
      }
      verdict.verdict = regressions > 0 ? "ran:regressed" : "ran:clean";
      if (regressions > 0) {
        verdict.detail =
            std::to_string(regressions) + " series regressed";
      }
      memoize = true;
    } catch (const Error& e) {
      // Degraded mode: history is unreadable, but the campaign executed
      // and its manifest exists — answer anyway, honestly labelled.
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
    // A degraded answer was produced without full verification — never
    // memoize it, so the next pass re-derives under restored guarantees.
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
    ctx.runCache.insert(record);
  }

  ctx.journal.recordVerdict(sub.id, toRecord(verdict));
  ctx.plane.noteStage(sub.id, "journal", "verdict",
                      {{"verdict", verdict.verdict}});
  if (ctx.options.crashAfter == "verdict") {
    simulateCrash(ctx);
    return;
  }
  writeVerdict(ctx.options.queueDir, verdict);
  ctx.journal.recordDone(sub.id);
  countVerdict(ctx.report, verdict);
  noteVerdict(ctx, verdict);
  ctx.breaker.recordSuccess(sub.id);
}

void writeHealthSnapshot(const ServeOptions& options,
                         const ServeReport& report,
                         const CircuitBreaker& breaker) {
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
  const std::vector<std::string> open = breaker.openKeys();
  for (std::size_t i = 0; i < open.size(); ++i) {
    if (i > 0) out << ",";
    out << obs::json::quote(open[i]);
  }
  out << "]}\n";
  durableWriteFile(
      (fs::path(options.queueDir) / "health.json").string(), out.str());
}

}  // namespace

Service::Service(const SystemRegistry& systems, const PackageRepository& repo,
                 ServeOptions options, TestResolver resolver)
    : systems_(systems),
      repo_(repo),
      options_(std::move(options)),
      resolver_(std::move(resolver)) {}

void Service::requestShutdown() {
  g_shutdownRequested.store(true, std::memory_order_relaxed);
}

bool Service::shutdownRequested() {
  return g_shutdownRequested.load(std::memory_order_relaxed);
}

ServeReport Service::run() {
  g_shutdownRequested.store(false, std::memory_order_relaxed);
  if (options_.queueDir.empty()) throw Error("serve: queue directory unset");
  if (options_.storeDir.empty()) throw Error("serve: store directory unset");
  fs::create_directories(options_.queueDir);
  // One daemon per queue, or a second would execute every submission
  // again.  A crash releases the lease with the process.
  const FileLock lease((fs::path(options_.queueDir) / "lock").string(),
                       FileLock::Mode::kTry);
  if (!lease.held()) {
    throw QueueBusyError("queue " + options_.queueDir +
                         " is held by another serve daemon");
  }

  store::ObjectStore store(options_.storeDir);
  store.setObservability(options_.metrics);
  store::RunCache runCache(store);
  runCache.setObservability(options_.tracer, options_.metrics);
  ServiceJournal journal(options_.queueDir);
  CircuitBreaker breaker(options_.quarantineAfter);
  ServeReport report;
  telemetry::TelemetryPlane plane;
  history::Chain history;
  RunContextState ctx{options_, store,  runCache, journal,
                      breaker,  report, plane,    history};
  plane.setWatchdogArms((options_.stageTimeout > 0.0 ? 1 : 0) +
                        (options_.submissionTimeout > 0.0 ? 1 : 0));

  // The status endpoint serves plane snapshots from its own thread; the
  // bound address is discoverable via QUEUE/endpoint.addr.
  std::unique_ptr<telemetry::StatusServer> server;
  if (!options_.listen.empty()) {
    server = std::make_unique<telemetry::StatusServer>(
        [&plane](const telemetry::HttpRequest& request) {
          return plane.handle(request);
        });
    server->start(options_.listen);
    report.endpointAddress = server->boundAddress();
    durableWriteFile(
        (fs::path(options_.queueDir) / "endpoint.addr").string(),
        server->boundAddress() + "\n");
    plane.bus().publish("service", "", "listen",
                        {{"address", server->boundAddress()}});
  }
  refreshHealth(ctx);

  std::set<std::string> processedThisRun;
  bool stop = false;
  while (!stop) {
    bool progressed = false;
    // Each pass reads only the submissions this run has not answered,
    // so an idle poll lists the queue but reads none of it.
    std::vector<Submission> pending;
    for (const std::string& id : listSubmissions(options_.queueDir)) {
      if (processedThisRun.count(id) == 0) {
        pending.push_back(readSubmission(options_.queueDir, id));
      }
    }
    for (const Submission& sub : pending) {
      if (drainRequested(options_.queueDir) || shutdownRequested()) {
        report.drained = true;
        stop = true;
        break;
      }
      processSubmission(ctx, systems_, repo_, resolver_, sub);
      processedThisRun.insert(sub.id);
      progressed = true;
      if (report.crashed) {
        // Simulated kill -9: no verdict file, no health snapshot, the
        // endpoint.addr file left behind — exactly the state a real
        // crash leaves, except the flight record the crash path dumped.
        if (server != nullptr) {
          report.endpointRequests = server->requestCount();
        }
        return report;
      }
    }
    // A pass that filed verdicts finished submissions the next start
    // need not replay: the journal keeps only the unfinished ones.
    if (progressed) journal.compact();
    if (stop) break;
    if (options_.once) break;
    if (drainRequested(options_.queueDir) || shutdownRequested()) {
      report.drained = true;
      break;
    }
    if (!progressed) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }

  report.queueDepth = queueDepth(options_.queueDir);
  if (options_.metrics != nullptr) {
    options_.metrics->gauge("serve.queue_depth")
        .set(static_cast<double>(report.queueDepth));
  }
  if (server != nullptr) {
    report.endpointRequests = server->requestCount();
    server->stop();
    // Endpoint traffic is wall-clock, so its trace lives next to the
    // queue, never inside byte-deterministic campaign artifacts.
    server->tracer().writeFile(
        (fs::path(options_.queueDir) / "endpoint-trace.jsonl").string());
    std::error_code ec;
    fs::remove(fs::path(options_.queueDir) / "endpoint.addr", ec);
  }
  writeHealthSnapshot(options_, report, breaker);
  return report;
}

}  // namespace rebench::service
