#include "core/service/record.hpp"

#include <algorithm>

#include "core/concretizer/concretizer.hpp"
#include "core/fault/fault.hpp"
#include "core/obs/metrics.hpp"
#include "core/obs/trace.hpp"
#include "core/store/build_cache.hpp"
#include "core/store/object_store.hpp"
#include "core/telemetry/probe.hpp"
#include "core/util/hash.hpp"
#include "core/util/strings.hpp"

namespace rebench::service {

PipelineOptions pipelineOptionsFor(const store::CampaignInvocation& inv) {
  PipelineOptions options;
  options.account = inv.account;
  if (inv.repeats > 0) options.numRepeats = inv.repeats;
  if (inv.retries >= 0) options.retry.maxRetries = inv.retries;
  if (inv.backoffBase >= 0.0) options.retry.backoffBase = inv.backoffBase;
  if (inv.backoffMultiplier >= 0.0) {
    options.retry.backoffMultiplier = inv.backoffMultiplier;
  }
  if (inv.backoffMax >= 0.0) options.retry.backoffMax = inv.backoffMax;
  if (!inv.faults.empty()) {
    options.faults = loadFaultConfig(inv.faults);
    // One seed governs both the injected faults and the backoff jitter.
    options.retry.seed = options.faults.seed;
  }
  if (inv.quarantineAfter >= 0) {
    options.breaker.pairThreshold = inv.quarantineAfter;
  }
  if (inv.stageTimeout > 0.0) {
    options.watchdog.stageTimeoutSeconds = inv.stageTimeout;
  }
  if (inv.lanes > 0) options.profileLanes = inv.lanes;
  // Unknown probe names were rejected at the CLI/submission boundary;
  // anything else unparseable degrades to off rather than failing here.
  telemetry::probeModeFromName(inv.probe, &options.probe);
  return options;
}

infer::InferenceOptions inferenceOptionsFor(
    const store::CampaignInvocation& inv) {
  infer::InferenceOptions options;
  options.ciHalfwidth = inv.ciHalfwidth > 0.0 ? inv.ciHalfwidth : 0.0;
  if (inv.minRepeats > 0) options.minRepeats = inv.minRepeats;
  if (inv.maxRepeats > 0) options.maxRepeats = inv.maxRepeats;
  return options;
}

CampaignExecution executeCampaign(Pipeline& pipeline,
                                  std::span<const RegressionTest> tests,
                                  std::span<const std::string> targets,
                                  const store::CampaignInvocation& inv,
                                  PerfLog* perflog, RunJournal* journal,
                                  CampaignReport* report) {
  CampaignExecution execution;
  const infer::InferenceOptions inference = inferenceOptionsFor(inv);
  if (inference.active()) {
    execution.results =
        infer::runAdaptive(pipeline, tests, targets, inference, perflog,
                           journal, report, &execution.inference);
  } else {
    execution.results =
        pipeline.runAll(tests, targets, perflog, journal, report);
  }
  return execution;
}

std::string perflogBytes(const PerfLog& perflog) {
  return encodePerflogObject(perflog.lines());
}

std::string replayedPerflogArtifact(const store::CampaignManifest& manifest,
                                    const PerfLog& perflog) {
  std::string raw;
  for (const std::string& line : perflog.lines()) {
    raw += line;
    raw += '\n';
  }
  for (const store::ArtifactRecord& artifact : manifest.artifacts) {
    if (artifact.name == "perflog" &&
        artifact.hash == store::ObjectStore::hashBytes(raw)) {
      return raw;
    }
  }
  return perflogBytes(perflog);
}

store::RunManifest runManifestFor(const TestRunResult& result, int repeat) {
  store::RunManifest run;
  run.test = result.testName;
  run.target = result.system + ":" + result.partition;
  run.repeat = repeat;
  run.environ = result.environ;
  if (result.concreteSpec != nullptr) {
    run.spec = result.concreteSpec->shortForm();
    run.specHash = result.concreteSpec->dagHash();
    const BuildPlan plan = makeBuildPlan(*result.concreteSpec);
    run.planHash = plan.planHash();
    for (const BuildStep& step : plan.steps) {
      run.buildSteps.push_back(step.command);
    }
  }
  run.binaryId = result.build.binaryId;
  run.launchCommand = result.launchCommand;
  run.jobId = std::to_string(result.jobId);
  run.outcome = result.quarantined ? "quarantined"
                : result.passed   ? "pass"
                                  : "fail";
  run.failureStage = result.failure.stage;
  run.attempts = result.attempts;
  // Resource-accounting facets from an active --probe; absent keys keep
  // unprobed manifest bytes unchanged.
  for (const auto& [stage, sample] : result.stageResources) {
    run.facets["rusage_" + stage + "_user_ms"] = str::fixed(sample.userMs, 3);
    run.facets["rusage_" + stage + "_sys_ms"] = str::fixed(sample.sysMs, 3);
    run.facets["rusage_" + stage + "_maxrss_kb"] =
        std::to_string(sample.maxRssKb);
    run.facets["rusage_" + stage + "_minflt"] =
        std::to_string(sample.minorFaults);
    run.facets["rusage_" + stage + "_io_blocks"] =
        std::to_string(sample.ioBlocks);
  }
  return run;
}

ManifestWrite writeCampaignManifest(store::ObjectStore& store,
                                    const store::CampaignInvocation& inv,
                                    std::span<const TestRunResult> results,
                                    const PerfLog& perflog,
                                    const std::string* traceBytes,
                                    bool pinTrace) {
  store::CampaignManifest manifest;
  manifest.invocation = inv;
  std::map<std::string, int> repeatsSeen;
  for (const TestRunResult& result : results) {
    const std::string pair =
        result.testName + "@" + result.system + ":" + result.partition;
    manifest.runs.push_back(runManifestFor(result, repeatsSeen[pair]++));
  }
  for (const history::FomAggregate& fom : history::aggregateFoms(results)) {
    store::FomManifest record;
    record.test = fom.test;
    record.target = fom.target;
    record.fom = fom.fom;
    record.mean = fom.mean;
    record.ciHalfwidth = fom.ciHalfwidth;
    record.ess = fom.ess;
    record.autocorr = fom.autocorr;
    record.repeats = fom.repeats;
    manifest.foms.push_back(std::move(record));
  }
  auto addArtifact = [&](const std::string& name, const std::string& bytes) {
    store::ArtifactRecord record;
    record.name = name;
    record.hash = store.put(bytes);
    record.bytes = bytes.size();
    manifest.artifacts.push_back(std::move(record));
    return manifest.artifacts.back().hash;
  };
  ManifestWrite write;
  write.perflogHash = addArtifact("perflog", perflogBytes(perflog));
  if (traceBytes != nullptr && pinTrace) {
    addArtifact("trace", *traceBytes);
  }
  // An object named by the hash of its bytes, as contentHash() is.
  write.hash = store.put(manifest.render());
  write.path = store.objectPath(write.hash);
  store.setRef(store::kLatestManifestRef, write.hash);
  return write;
}

ExecutedRecord summarizeCampaignOutcome(
    std::span<const TestRunResult> results,
    std::span<const history::FomAggregate> foms,
    const std::string& manifestHash, const std::string& perflogHash) {
  ExecutedRecord outcome;
  outcome.manifestHash = manifestHash;
  outcome.perflogHash = perflogHash;
  outcome.runs = static_cast<int>(results.size());
  for (const TestRunResult& result : results) {
    outcome.simSeconds += result.simulatedPipelineSeconds;
    if (!result.passed && outcome.failedStage.empty()) {
      outcome.failedStage = result.failure.stage.empty()
                                ? "unknown"
                                : result.failure.stage;
      outcome.failureClass =
          std::string(failureClassName(result.failure.klass));
      outcome.failureDetail = result.failure.detail;
    }
  }
  outcome.aggregates.assign(foms.begin(), foms.end());
  return outcome;
}

namespace {

bool cites(std::span<const history::HistoryRecord> records,
           const std::string& manifestHash) {
  return std::any_of(records.begin(), records.end(),
                     [&](const history::HistoryRecord& record) {
                       return record.manifestHash == manifestHash;
                     });
}

std::vector<history::HistoryRecord> historyRecordsFor(
    const ExecutedRecord& outcome, const SystemRegistry& systems) {
  std::vector<history::HistoryRecord> records;
  for (const history::FomAggregate& agg : outcome.aggregates) {
    history::HistoryRecord record;
    record.test = agg.test;
    record.target = agg.target;
    record.fom = agg.fom;
    record.manifestHash = outcome.manifestHash;
    record.envFingerprint = store::BuildCache::environmentFingerprint(
        systems.resolve(agg.target).first->environment);
    record.specHash = agg.specHash;
    record.mean = agg.mean;
    record.min = agg.min;
    record.max = agg.max;
    record.ci = agg.ciHalfwidth;
    record.ess = agg.ess;
    record.repeats = agg.repeats;
    record.simTimestamp = outcome.simSeconds;
    records.push_back(std::move(record));
  }
  return records;
}

/// The one gate implementation: checks the series `outcome` touched,
/// with their spans and counters.  Series are gated independently, so
/// only their records go to checkRegression.
std::vector<history::GateResult> gateTouchedSeries(
    std::span<const history::HistoryRecord> all, const ExecutedRecord& outcome,
    const history::GateOptions& options, obs::Tracer* tracer,
    obs::MetricsRegistry* metrics) {
  std::vector<history::HistoryRecord> own;
  for (const history::HistoryRecord& record : all) {
    if (std::any_of(outcome.aggregates.begin(), outcome.aggregates.end(),
                    [&](const history::FomAggregate& agg) {
                      return agg.test == record.test &&
                             agg.target == record.target &&
                             agg.fom == record.fom;
                    })) {
      own.push_back(record);
    }
  }
  std::vector<history::GateResult> touched =
      history::checkRegression(own, options);
  for (const history::GateResult& gate : touched) {
    const history::FomAggregate& agg = *std::find_if(
        outcome.aggregates.begin(), outcome.aggregates.end(),
        [&](const history::FomAggregate& candidate) {
          return gate.series == candidate.test + "|" + candidate.target +
                                    "|" + candidate.fom;
        });
    if (tracer != nullptr) {
      tracer->beginSpan("infer.changepoint");
      tracer->setAttr("test", agg.test);
      tracer->setAttr("target", agg.target);
      tracer->setAttr("fom", agg.fom);
      tracer->setAttr("repeats", std::to_string(agg.repeats));
      tracer->setAttr("ess", str::fixed(gate.latestEss, 3));
      tracer->setAttr("ci_halfwidth", str::fixed(gate.latestCi, 6));
      tracer->setAttr("baseline_ci", str::fixed(gate.baselineCi, 6));
      tracer->setAttr("regression", gate.regression ? "true" : "false");
      tracer->setAttr("significant", gate.significant ? "true" : "false");
      tracer->setAttr("changepoint", gate.changepoint ? "true" : "false");
      tracer->endSpan();
    }
    if (metrics != nullptr) {
      metrics->counter("infer.gated_series").inc();
      if (gate.regression) metrics->counter("infer.regressions").inc();
      if (gate.changepoint) metrics->counter("infer.changepoints").inc();
    }
  }
  return touched;
}

}  // namespace

HistoryAppendResult appendCampaignHistory(store::ObjectStore& store,
                                          const ExecutedRecord& outcome,
                                          const SystemRegistry& systems,
                                          bool skipIfCited) {
  HistoryAppendResult result;
  if (outcome.aggregates.empty()) return result;
  history::HistoryIndex index(store);
  if (skipIfCited) {
    // Exactly-once across crash/resume: a resumed daemon whose previous
    // incarnation already appended this campaign must not append twice.
    // The walk also surfaces a broken chain here, before any mutation.
    const history::Chain chain = index.readChain();
    if (cites(chain.records, outcome.manifestHash)) return result;
    result.segment =
        index.appendSegment(chain.tip, historyRecordsFor(outcome, systems));
  } else {
    result.segment = index.appendSegment(historyRecordsFor(outcome, systems));
  }
  result.records = static_cast<int>(outcome.aggregates.size());
  result.appended = true;
  return result;
}

std::vector<history::GateResult> gateCampaign(
    store::ObjectStore& store, const ExecutedRecord& outcome,
    const history::GateOptions& options, obs::Tracer* tracer,
    obs::MetricsRegistry* metrics) {
  return gateTouchedSeries(history::HistoryIndex(store).readAll(), outcome,
                           options, tracer, metrics);
}

std::vector<history::GateResult> appendAndGateCampaign(
    store::ObjectStore& store, history::Chain& chain,
    const ExecutedRecord& outcome, const SystemRegistry& systems,
    const history::GateOptions& options, obs::Tracer* tracer,
    obs::MetricsRegistry* metrics) {
  history::HistoryIndex index(store);
  index.refresh(chain);
  if (!outcome.aggregates.empty() &&
      !cites(chain.records, outcome.manifestHash)) {
    // extend adopts the segment it writes, parsed from the bytes whose
    // hash names it, so the gate sees exactly the records a fresh walk
    // would; the next refresh verifies the file once.
    index.extend(chain, historyRecordsFor(outcome, systems));
  }
  return gateTouchedSeries(chain.records, outcome, options, tracer, metrics);
}

std::string runKeyFor(const store::CampaignInvocation& inv,
                      const SystemRegistry& systems,
                      const PackageRepository& repo,
                      std::span<const RegressionTest> tests) {
  const auto [system, partition] = systems.resolve(inv.system);
  Hasher hasher;
  hasher.update("rebench.runkey/1");
  hasher.update(store::renderInvocation(inv));
  hasher.update(
      store::BuildCache::environmentFingerprint(system->environment));
  // The system/partition configuration facets that shape results: a
  // resized partition or swapped scheduler must miss the memo.
  hasher.update(system->name);
  hasher.update(partition->name);
  hasher.update(static_cast<std::uint64_t>(partition->numNodes));
  hasher.update(partition->processor.model);
  hasher.update(
      static_cast<std::uint64_t>(partition->processor.totalCores()));
  hasher.update(std::string(schedulerName(partition->scheduler)));
  hasher.update(std::string(launcherName(partition->launcher)));
  hasher.update(partition->machineModel);
  // Concretized spec DAG hashes (sorted + deduped: key is a set, not a
  // schedule): any dependency drift re-executes.
  std::vector<std::string> dagHashes;
  for (const RegressionTest& test : tests) {
    Concretizer concretizer(repo, system->environment, {});
    const ConcretizationResult concrete =
        concretizer.concretize(Spec::parse(test.spackSpec));
    dagHashes.push_back(concrete.root->dagHash());
  }
  std::sort(dagHashes.begin(), dagHashes.end());
  dagHashes.erase(std::unique(dagHashes.begin(), dagHashes.end()),
                  dagHashes.end());
  for (const std::string& dagHash : dagHashes) {
    hasher.update(dagHash);
  }
  return hasher.hex();
}

}  // namespace rebench::service
