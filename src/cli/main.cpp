// The `rebench` command-line tool — the user-facing surface of the
// framework, shaped after the ReFrame invocations in the paper's appendix:
//
//   rebench list-systems
//   rebench list-packages
//   rebench spec 'hpgmg%gcc' --system archer2
//   rebench run --benchmark babelstream --system noctua2 -S model=omp \
//               --perflog perf.log --repeats 3 --account ec999
//   rebench run --benchmark hpgmg --system archer2
//   rebench report --perflog perf.log --fom Triad
//   rebench history --perflog perf.log --check
#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <initializer_list>
#include <iostream>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <thread>
#include <vector>

#include "babelstream/testcase.hpp"
#include "cli/args.hpp"
#include "core/concretizer/concretizer.hpp"
#include "core/fault/journal.hpp"
#include "core/framework/pipeline.hpp"
#include "core/history/history.hpp"
#include "core/infer/controller.hpp"
#include "core/obs/json.hpp"
#include "core/obs/metrics.hpp"
#include "core/obs/openmetrics.hpp"
#include "core/obs/trace.hpp"
#include "core/obs/trace_reader.hpp"
#include "core/postproc/chrome_export.hpp"
#include "core/postproc/critical_path.hpp"
#include "core/postproc/perflog_reader.hpp"
#include "core/postproc/profile.hpp"
#include "core/postproc/trace_report.hpp"
#include "core/postproc/plot.hpp"
#include "core/postproc/hygiene.hpp"
#include "core/postproc/stats.hpp"
#include "core/service/queue.hpp"
#include "core/service/record.hpp"
#include "core/service/service.hpp"
#include "core/store/build_cache.hpp"
#include "core/store/manifest.hpp"
#include "core/store/object_store.hpp"
#include "core/telemetry/bus.hpp"
#include "core/telemetry/http.hpp"
#include "core/util/error.hpp"
#include "core/util/strings.hpp"
#include "core/util/table.hpp"
#include "hpcg/testcase.hpp"
#include "hpgmg/testcase.hpp"
#include "suite/builtin_suite.hpp"

namespace rebench::cli {
namespace {

int listSystems() {
  const SystemRegistry systems = builtinSystems();
  AsciiTable table("configured systems:");
  table.setHeader({"system:partition", "processor", "nodes", "scheduler",
                   "launcher", "model"});
  for (const std::string& name : systems.systemNames()) {
    const SystemConfig& sys = systems.get(name);
    for (const PartitionConfig& part : sys.partitions) {
      table.addRow({sys.name + ":" + part.name, part.processor.model,
                    std::to_string(part.numNodes),
                    std::string(schedulerName(part.scheduler)),
                    std::string(launcherName(part.launcher)),
                    part.machineModel.empty() ? "(native)"
                                              : part.machineModel});
    }
  }
  std::cout << table.render();
  return 0;
}

int listPackages() {
  const PackageRepository repo = builtinRepository();
  AsciiTable table("package recipes:");
  table.setHeader({"package", "newest", "versions", "description"});
  for (const std::string& name : repo.packageNames()) {
    const PackageRecipe& recipe = repo.get(name);
    table.addRow({name,
                  recipe.versions().empty()
                      ? "-"
                      : recipe.versions().front().toString(),
                  std::to_string(recipe.versions().size()),
                  recipe.description()});
  }
  std::cout << table.render();
  return 0;
}

int showSpec(const Args& args) {
  const SystemRegistry systems = builtinSystems();
  const PackageRepository repo = builtinRepository();
  // --env-file lets a user concretize against a hand-authored system
  // environment (see `rebench env` for the format) without recompiling.
  SystemEnvironment environment;
  if (auto envFile = args.text("env-file")) {
    environment = parseEnvironmentConfig(readNamedFile(*envFile));
  } else {
    environment = systems.resolve(args.text("system").value_or("local"))
                      .first->environment;
  }
  Concretizer concretizer(repo, environment);
  const ConcretizationResult result =
      concretizer.concretize(Spec::parse(args.positionals().front()));
  std::cout << result.root->tree();
  if (args.flag("trace")) {
    std::cout << "\ntrace:\n";
    for (const std::string& line : result.trace) {
      std::cout << "  " << line << "\n";
    }
  }
  return 0;
}

/// Builds the run-mode test from a normalized invocation (directly from
/// the CLI flags, or re-hydrated by `replay` and `serve`).  A malformed
/// -S value is a UsageError naming the setting.
RegressionTest buildTest(const store::CampaignInvocation& inv) {
  auto toInt = [](const std::string& key, const std::string& value) {
    return parseInteger<int>("-S " + key, value);
  };
  if (inv.benchmark == "babelstream") {
    babelstream::BabelstreamTestOptions options;
    if (inv.ntimes > 0) options.ntimes = inv.ntimes;
    for (const auto& [key, value] : inv.settings) {
      if (key == "model") options.model = value;
      if (key == "array_size") {
        options.arraySize = parseInteger<std::size_t>("-S " + key, value);
      }
    }
    return babelstream::makeBabelstreamTest(options);
  }
  if (inv.benchmark == "hpcg") {
    hpcg::HpcgTestOptions options;
    for (const auto& [key, value] : inv.settings) {
      if (key == "operator") options.variant = hpcg::variantFromName(value);
      if (key == "num_tasks") options.numTasks = toInt(key, value);
      if (key == "grid") options.gridSize = toInt(key, value);
      if (key == "multigrid") options.multigrid = value == "1" || value == "true";
    }
    return hpcg::makeHpcgTest(options);
  }
  if (inv.benchmark == "hpgmg") {
    hpgmg::HpgmgTestOptions options;
    for (const auto& [key, value] : inv.settings) {
      if (key == "num_tasks") options.numTasks = toInt(key, value);
      if (key == "num_tasks_per_node") {
        options.numTasksPerNode = toInt(key, value);
      }
      if (key == "num_cpus_per_task") {
        options.numCpusPerTask = toInt(key, value);
      }
      if (key == "log2_box_dim") options.log2BoxDim = toInt(key, value);
      if (key == "boxes_per_rank") {
        options.targetBoxesPerRank = toInt(key, value);
      }
    }
    return hpgmg::makeHpgmgTest(options);
  }
  throw UsageError("--benchmark must be babelstream, hpcg or hpgmg (got '" +
                   inv.benchmark + "')");
}

/// The tests an invocation runs: run mode's one benchmark test, or suite
/// mode's selection from the builtin suite (a `suite.select` span when a
/// tracer is given).  `run`, `suite`, `replay` and the serve daemon all
/// select here, so a mode no campaign records (a hand-edited manifest or
/// submission) is refused here too.
std::vector<RegressionTest> selectTests(const store::CampaignInvocation& inv,
                                        obs::Tracer* tracer,
                                        obs::MetricsRegistry* metrics) {
  if (inv.mode == "run") return {buildTest(inv)};
  if (inv.mode != "suite") {
    throw Error("campaign mode must be run or suite (got '" + inv.mode + "')");
  }
  return builtinSuite().select(inv.tag, inv.namePattern, inv.excludePattern,
                               tracer, metrics);
}

int showEnv(const Args& args) {
  const SystemRegistry systems = builtinSystems();
  const auto [sys, part] =
      systems.resolve(args.text("system").value_or("local"));
  std::cout << sys->environment.renderConfig();
  return 0;
}

int audit(const Args& args) {
  const auto path = args.text("perflog");
  if (!path) throw UsageError("--perflog required");
  HygieneOptions options;
  options.requireReferences = args.flag("strict");
  const PerfLog::LenientParse parsed = PerfLog::readFileLenient(*path);
  auto findings = auditPerflogFile(*path, parsed, options);
  if (auto manifestPath = args.text("manifest")) {
    const store::CampaignManifest manifest =
        store::CampaignManifest::read(*manifestPath);
    const auto stale = auditAgainstManifest(parsed.entries, manifest);
    findings.insert(findings.end(), stale.begin(), stale.end());
  }
  std::cout << renderHygieneReport(findings);
  return findings.empty() ? 0 : 1;
}

/// Observability state for one CLI invocation; tracing is active when
/// --trace DIR was given (one trace.jsonl per invocation lands in DIR),
/// metrics collection also when --metrics-out FILE asked for an
/// OpenMetrics export without a trace.
struct TraceSession {
  std::optional<std::string> dir;
  std::optional<std::string> metricsOut;
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;

  explicit TraceSession(const Args& args)
      : dir(args.text("trace")), metricsOut(args.text("metrics-out")) {}
  bool active() const { return dir.has_value(); }

  /// Hooks the tracer and registry into PipelineOptions or ServeOptions.
  template <typename Options>
  void attach(Options& options) {
    if (active()) options.tracer = &tracer;
    if (active() || metricsOut.has_value()) options.metrics = &metrics;
  }
  /// Trace bytes are serialized exactly once per campaign (before any
  /// artifact is stored), so the --trace file and the manifest's "trace"
  /// artifact hash describe the same bytes.
  std::string serialize() { return tracer.toJsonl(&metrics); }
  void write(const std::string& bytes) {
    if (!active()) return;
    createDirectories(*dir);
    const std::string path =
        (std::filesystem::path(*dir) / "trace.jsonl").string();
    writeFileAtomic(path, bytes, Durability::kBuffered);
    std::cout << "trace written to " << path << "\n";
  }

  /// --metrics-out: the registry plus per-(test, target, fom) aggregates
  /// as OpenMetrics text.  Registry merge order and aggregate order are
  /// both canonical, so these bytes are identical at every --jobs width.
  void writeMetrics(std::span<const history::FomAggregate> foms) {
    if (!metricsOut.has_value()) return;
    std::vector<obs::MetricSample> samples;
    auto labelsFor = [](const history::FomAggregate& fom) {
      return std::map<std::string, std::string>{
          {"test", fom.test}, {"target", fom.target}, {"fom", fom.fom}};
    };
    // Grouped by family ("rebench_fom_stat", then "..._repeats", then
    // the inference gauges "..._ci_halfwidth" / "..._ess") because the
    // renderer emits one # TYPE header per run of equal family names.
    for (const history::FomAggregate& fom : foms) {
      for (const auto& [stat, value] :
           {std::pair<const char*, double>{"mean", fom.mean},
            {"min", fom.min},
            {"max", fom.max}}) {
        auto labels = labelsFor(fom);
        labels["stat"] = stat;
        samples.push_back({"rebench_fom_stat", std::move(labels), value});
      }
    }
    for (const history::FomAggregate& fom : foms) {
      samples.push_back({"rebench_fom_repeats", labelsFor(fom),
                         static_cast<double>(fom.repeats)});
    }
    for (const history::FomAggregate& fom : foms) {
      samples.push_back(
          {"rebench_fom_ci_halfwidth", labelsFor(fom), fom.ciHalfwidth});
    }
    for (const history::FomAggregate& fom : foms) {
      samples.push_back({"rebench_fom_ess", labelsFor(fom), fom.ess});
    }
    // Family-sorted so the extras section obeys the same lexicographic
    // order as the registry dump (metrics_lint checks this); the sort is
    // stable, keeping the canonical per-family sample order.
    std::stable_sort(samples.begin(), samples.end(),
                     [](const obs::MetricSample& a,
                        const obs::MetricSample& b) {
                       return a.family < b.family;
                     });
    writeFileAtomic(*metricsOut, obs::renderOpenMetrics(metrics, samples),
                    Durability::kBuffered);
    std::cout << "metrics written to " << *metricsOut << "\n";
  }
};

/// Checks an option's value with `parse`: its ParseError becomes a
/// command-line error naming the option, so a malformed value exits 2.
template <typename Parse>
void checkValue(std::string_view option, Parse parse) {
  try {
    parse();
  } catch (const ParseError& e) {
    throw UsageError(std::string(option) + ": " + e.what());
  }
}

/// Normalizes the run/suite/submit options into the invocation record a
/// campaign manifest stores (and `rebench replay` re-executes).  Absent
/// options keep their "unset" sentinels, which the rows' bounds exclude.
store::CampaignInvocation invocationFromArgs(const Args& args,
                                             const std::string& mode) {
  store::CampaignInvocation inv;
  inv.mode = mode;
  inv.system = args.text("system").value_or("local");
  inv.account = args.text("account").value_or("ec999");
  inv.repeats = args.integer("repeats").value_or(1);
  inv.benchmark = args.text("benchmark").value_or("");
  inv.ntimes = args.integer("ntimes").value_or(-1);
  inv.settings = args.settings();
  inv.tag = args.text("tag").value_or("");
  inv.namePattern = args.text("n").value_or("");
  inv.excludePattern = args.text("x").value_or("");
  inv.faults = args.text("faults").value_or("");
  if (!inv.faults.empty()) {
    checkValue("--faults", [&] { loadFaultConfig(inv.faults); });
  }
  inv.retries = args.integer("retries").value_or(-1);
  inv.backoffBase = args.number("backoff-base").value_or(-1.0);
  inv.backoffMultiplier = args.number("backoff-mult").value_or(-1.0);
  inv.backoffMax = args.number("backoff-max").value_or(-1.0);
  inv.quarantineAfter = args.integer("quarantine-after").value_or(-1);
  inv.stageTimeout = args.number("stage-timeout").value_or(-1.0);
  inv.lanes = args.integer("lanes").value_or(-1);
  inv.ciHalfwidth = args.number("ci-halfwidth").value_or(-1.0);
  inv.minRepeats = args.integer("min-repeats").value_or(-1);
  inv.maxRepeats = args.integer("max-repeats").value_or(-1);
  inv.withStore = args.text("store").has_value();
  inv.cache = !args.flag("no-cache");
  inv.probe = args.text("probe").value_or("");
  if (inv.maxRepeats > 0 && inv.maxRepeats < inv.minRepeats) {
    throw UsageError("--max-repeats must be >= --min-repeats");
  }
  return inv;
}

/// Store state for one CLI invocation; active when --store DIR was given.
/// Owns the object store, writes the campaign manifest into it and
/// prints the cache-hit summary.
struct StoreSession {
  std::optional<store::ObjectStore> store;
  bool cache = true;
  bool coldStart = true;
  std::string manifestHash;  // set by writeManifest

  explicit StoreSession(const Args& args) : cache(!args.flag("no-cache")) {
    if (auto dir = args.text("store")) {
      store.emplace(*dir);
      coldStart = std::filesystem::is_empty(std::filesystem::path(*dir) /
                                            "objects");
    }
  }
  bool active() const { return store.has_value(); }

  void attach(PipelineOptions& options) {
    if (!active()) return;
    options.store = &*store;
    options.cacheBuilds = cache;
  }

  /// Records the finished campaign: artifacts and the manifest go into
  /// the object store, and refs/manifests/latest names the manifest.
  /// The trace artifact is only pinned
  /// when this campaign started cache-cold (or caching was off): warm
  /// cache state changes the store.* spans, so those trace bytes would
  /// not be reproducible by a from-scratch replay.
  void writeManifest(const store::CampaignInvocation& inv,
                     std::span<const TestRunResult> results,
                     const PerfLog& perflog, const std::string* traceBytes) {
    if (!active()) return;
    const service::ManifestWrite written = service::writeCampaignManifest(
        *store, inv, results, perflog, traceBytes, coldStart || !cache);
    manifestHash = written.hash;
    std::cout << "manifest written to " << written.path << "\n";
  }

  /// Appends one history record per (test, target, fom) aggregate to the
  /// store's hash-chained history (see core/history).  Runs after
  /// writeManifest so records can cite the manifest hash; runs after
  /// trace serialization so history store traffic never lands in the
  /// campaign's trace bytes (the manifest hashes those).
  void appendHistory(std::span<const history::FomAggregate> foms,
                     std::span<const TestRunResult> results,
                     const SystemRegistry& systems) {
    if (!active() || foms.empty()) return;
    const service::ExecutedRecord outcome = service::summarizeCampaignOutcome(
        results, foms, manifestHash, /*perflogHash=*/"");
    // skipIfCited=false: on the CLI path repeated identical campaigns
    // are distinct observations (the serve daemon passes true).
    const service::HistoryAppendResult appended =
        service::appendCampaignHistory(*store, outcome, systems,
                                       /*skipIfCited=*/false);
    std::cout << "history: appended " << appended.records
              << " record(s) in segment " << appended.segment << "\n";
  }

  void printSummary(const Pipeline& pipeline) {
    if (!active()) return;
    if (const store::BuildCache* buildCache = pipeline.buildCache()) {
      std::cout << "store: " << buildCache->stats().hits << " cache hit(s), "
                << buildCache->stats().misses << " rebuilt, "
                << buildCache->stats().singleFlightDeduped
                << " deduped by single-flight - "
                << store->objectCount() << " object(s), "
                << store->totalBytes() << " bytes in " << store->dir()
                << "\n";
    } else {
      std::cout << "store: build caching disabled (--no-cache)\n";
    }
  }
};

/// `rebench run` and `rebench suite`: one campaign through
/// service::executeCampaign, the path `serve` and `replay` take, so the
/// manifest replays byte-exact whichever process wrote it.
int runCampaign(const Args& args) {
  const std::string mode(args.subcommand());
  const bool suite = mode == "suite";
  const store::CampaignInvocation invocation = invocationFromArgs(args, mode);
  PipelineOptions options = service::pipelineOptionsFor(invocation);
  // Deliberately not part of the invocation/manifest: output bytes are
  // identical for every job count, so the manifest stays jobs-invariant
  // (and replay may use any worker count).
  if (suite) options.jobs = args.integer("jobs").value_or(1);
  TraceSession trace(args);
  trace.attach(options);
  // Before any store, journal or perflog is opened: a bad -S or an empty
  // selection touches no file.
  const std::vector<RegressionTest> tests =
      selectTests(invocation, options.tracer, options.metrics);
  if (tests.empty()) {
    std::cerr << "suite: no tests match the selection\n";
    return 2;
  }
  StoreSession storeSession(args);
  storeSession.attach(options);
  const SystemRegistry systems = builtinSystems();
  const PackageRepository repo = builtinRepository();
  Pipeline pipeline(systems, repo, options);
  PerfLog perflog(args.text("perflog").value_or(""));

  std::optional<RunJournal> journal;
  if (auto resumeDir = suite ? args.text("resume") : std::nullopt) {
    journal.emplace(*resumeDir);
    if (journal->corruptLines() > 0) {
      std::cerr << "suite: journal had " << journal->corruptLines()
                << " corrupt line(s), ignored\n";
    }
  }

  const std::vector<std::string> targets{invocation.system};
  CampaignReport report;
  const service::CampaignExecution execution = service::executeCampaign(
      pipeline, tests, targets, invocation, &perflog,
      journal ? &*journal : nullptr, &report);
  const std::vector<TestRunResult>& results = execution.results;
  const bool verbose = !suite && args.flag("verbose");
  for (const TestRunResult& result : results) {
    const char* marker = result.passed       ? " OK "
                         : result.quarantined ? "QUAR"
                                              : "FAIL";
    std::cout << "[" << marker << "] " << result.testName << " @ "
              << result.system << ":" << result.partition;
    // Quarantined runs and concretize failures have no environment.
    if (!result.environ.empty()) std::cout << " (" << result.environ << ")";
    std::cout << "\n";
    if (verbose && result.concreteSpec != nullptr) {
      std::cout << "  spec:   " << result.concreteSpec->shortForm() << "\n";
      std::cout << "  launch: " << result.launchCommand << "\n";
    }
    if (!result.passed) {
      std::cout << "  " << result.failure.stage << " ["
                << failureClassName(result.failure.klass)
                << "]: " << result.failure.detail;
      if (result.attempts > 1) {
        std::cout << " (after " << result.attempts << " attempts)";
      }
      std::cout << "\n";
      continue;
    }
    for (const auto& [fom, value] : result.foms) {
      std::cout << "  " << str::padRight(fom, 8) << " = "
                << str::fixed(value, 2) << "\n";
    }
    if (!result.telemetry.empty()) {
      std::cout << "  energy   = "
                << str::fixed(result.telemetry.energyJoules(), 0) << " J ("
                << str::fixed(result.telemetry.meanPowerWatts(), 0)
                << " W mean, " << result.contentionFlags.size()
                << " contended samples)\n";
    }
  }
  const CampaignSummary summary = summarizeCampaign(results, &report);
  std::cout << renderCampaignSummary(summary, &report);
  if (options.jobs > 1) {
    std::cout << "executor: " << report.executed << " campaign(s) on "
              << options.jobs << " worker(s), " << report.uniqueBuilds
              << " unique build(s), " << report.dedupedBuilds
              << " deduped; simulated " << str::fixed(
                     report.simulatedSerialSeconds, 1)
              << "s serial -> " << str::fixed(
                     report.simulatedMakespanSeconds, 1)
              << "s makespan (" << report.workerLanesTouched
              << " worker lane(s) touched)\n";
  }
  for (const infer::FomDecision& d : execution.inference.decisions) {
    std::cout << "infer: " << d.test << " @ " << d.target << " " << d.fom
              << ": mean " << str::fixed(d.estimate.mean, 2) << " +/- "
              << str::fixed(d.estimate.ciHalfwidth, 2) << " ("
              << str::fixed(d.estimate.ciRelative * 100.0, 2)
              << "% rel, ess " << str::fixed(d.estimate.ess, 1)
              << ") after " << d.estimate.n << " repeat(s) in " << d.rounds
              << " round(s)" << (d.converged ? "" : " [hit --max-repeats]")
              << "\n";
  }
  if (perflog.size() > 0 && args.text("perflog")) {
    std::cout << perflog.size() << " perflog entries appended to "
              << *args.text("perflog") << "\n";
  }
  const std::string traceBytes = trace.active() ? trace.serialize() : "";
  const auto fomAggregates = history::aggregateFoms(results);
  storeSession.writeManifest(invocation, results, perflog,
                             trace.active() ? &traceBytes : nullptr);
  storeSession.appendHistory(fomAggregates, results, systems);
  storeSession.printSummary(pipeline);
  trace.write(traceBytes);
  trace.writeMetrics(fomAggregates);
  return summary.failed == 0 && summary.quarantined == 0 ? 0 : 1;
}

/// Whether `dir` holds a store.  Read-only commands check this first, so
/// a mistyped DIR does not turn into a new store.
bool isStore(const std::string& dir) {
  return std::filesystem::exists(std::filesystem::path(dir) / "objects");
}

/// The manifest `replay` re-executes, and where it was read from: a
/// store's object (a verified read, by hash or through
/// refs/manifests/latest) or a file (named by its hash, it must hash to
/// that name).
std::pair<store::CampaignManifest, std::string> replayedManifest(
    const Args& args) {
  const auto storeDir = args.text("store");
  if (!storeDir) {
    if (args.positionals().empty()) {
      throw UsageError("missing <manifest> (or --store DIR)");
    }
    const std::string& path = args.positionals().front();
    return {store::CampaignManifest::read(path), path};
  }
  if (!isStore(*storeDir)) throw UsageError("no store at " + *storeDir);
  store::ObjectStore store(*storeDir);
  std::string hash;
  if (!args.positionals().empty()) {
    hash = args.positionals().front();
    if (!store::ObjectStore::isHash(hash)) {
      throw UsageError("<hash> must be 16 lowercase hex digits, got '" +
                       hash + "'");
    }
  } else if (auto latest = store.ref(store::kLatestManifestRef)) {
    hash = *latest;
  } else {
    throw Error("no manifest in the store at '" + *storeDir + "': refs/" +
                std::string(store::kLatestManifestRef) +
                " is unset or names a missing object");
  }
  return {store::CampaignManifest::load(store, hash), store.objectPath(hash)};
}

/// A new directory of this process's own under temp_directory_path()
/// (mkdtemp), removed with its contents when the guard goes out of scope,
/// however `replay` exits.  Concurrent replays of one manifest each get
/// their own.
class ReplayScratch {
 public:
  ReplayScratch() {
    std::string path =
        (std::filesystem::temp_directory_path() / "rebench-replay-XXXXXX")
            .string();
    if (::mkdtemp(path.data()) == nullptr) {
      throw Error("cannot create a replay scratch directory '" + path +
                  "': " + std::strerror(errno));
    }
    path_ = std::move(path);
  }
  ~ReplayScratch() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ReplayScratch(const ReplayScratch&) = delete;
  ReplayScratch& operator=(const ReplayScratch&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// `rebench replay <manifest>` or `replay --store DIR [<hash>]` —
/// re-executes the recorded invocation from scratch and diffs the
/// regenerated artifact bytes against the hashes the manifest pinned.
/// Exit 0 only when every artifact is byte-exact; any divergence means
/// the campaign is not reproducible from its manifest (code, environment
/// or configuration drifted), and a manifest that fails verification
/// exits 1 before anything runs.
int replay(const Args& args) {
  const auto [manifest, manifestPath] = replayedManifest(args);
  const store::CampaignInvocation& invocation = manifest.invocation;
  bool wantTrace = false;
  for (const store::ArtifactRecord& artifact : manifest.artifacts) {
    if (artifact.name == "trace") wantTrace = true;
  }

  const SystemRegistry systems = builtinSystems();
  const PackageRepository repo = builtinRepository();
  PipelineOptions options = service::pipelineOptionsFor(invocation);
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  if (wantTrace) {
    options.tracer = &tracer;
    options.metrics = &metrics;
  }
  const std::vector<RegressionTest> tests =
      selectTests(invocation, options.tracer, options.metrics);
  // The original campaign only pinned its trace when it started cache-
  // cold, so a fresh throwaway store reproduces the same store.* spans;
  // replay never reuses prior state (that would let a stale artifact
  // masquerade as a reproduction).
  std::optional<ReplayScratch> scratch;
  std::optional<store::ObjectStore> scratchStore;
  if (invocation.withStore && invocation.cache) {
    scratch.emplace();
    scratchStore.emplace(scratch->path());
    options.store = &*scratchStore;
  }

  Pipeline pipeline(systems, repo, options);
  PerfLog perflog;
  const std::vector<std::string> targets{invocation.system};
  service::executeCampaign(pipeline, tests, targets, invocation, &perflog,
                           nullptr, nullptr);

  std::map<std::string, std::string> replayed;
  replayed["perflog"] = service::replayedPerflogArtifact(manifest, perflog);
  if (wantTrace) replayed["trace"] = tracer.toJsonl(&metrics);

  const store::ReplayComparison comparison =
      store::compareArtifacts(manifest, replayed);
  std::cout << "replaying " << manifestPath << " (" << invocation.mode
            << " @ " << invocation.system << ", "
            << manifest.runs.size() << " recorded run(s))\n";
  std::cout << store::renderReplayReport(comparison);
  return comparison.allExact() ? 0 : 1;
}

/// --chrome FILE on trace-report/profile: exports the catapult JSON.
/// The scheduled-lanes process group needs a profile; traces without
/// profilable spans (e.g. spec traces) export the recorded timeline only.
void writeChromeTrace(const obs::TraceFile& trace, const std::string& path,
                      const postproc::TraceProfile* profile) {
  postproc::TraceProfile empty;
  if (profile == nullptr) {
    try {
      empty = postproc::profileTrace(trace);
    } catch (const Error&) {
    }
    profile = &empty;
  }
  writeFileAtomic(path, postproc::renderChromeTrace(trace, *profile),
                  Durability::kBuffered);
  // stderr, so the report on stdout stays byte-comparable across
  // invocations that name their export file differently.
  std::cerr << "chrome trace written to " << path << "\n";
}

int traceReport(const Args& args) {
  const obs::TraceFile trace =
      obs::readTraceFile(args.positionals().front());
  const std::vector<std::string> issues = obs::lintTrace(trace);
  for (const std::string& issue : issues) {
    std::cerr << "trace-report: warning: " << issue << "\n";
  }
  if (args.flag("json")) {
    std::cout << "{\"schema\":\"rebench.trace_report/1\",\"spans\":"
              << trace.spans.size() << ",\"events\":" << trace.events.size()
              << ",\"stages\":" << stageTableJson(trace)
              << ",\"metrics\":" << metricsJson(trace) << "}\n";
  } else {
    std::cout << renderStageTable(trace);
    if (args.flag("tree")) {
      std::cout << "\n" << renderTraceTree(trace);
    }
    std::cout << "\n" << renderMetricsReport(trace);
  }
  if (auto chromePath = args.text("chrome")) {
    writeChromeTrace(trace, *chromePath, nullptr);
  }
  return 0;
}

/// `rebench profile` — the trace profiling engine.  Plain mode
/// reconstructs the canonical lane schedule of a campaign trace and
/// prints the Gantt/utilization view plus the critical path; `--diff A B`
/// aligns two traces by span name-path instead and exits 1 when the
/// candidate regressed beyond --threshold.
int profileCommand(const Args& args) {
  if (auto baseline = args.text("diff")) {
    // Parsed as `--diff A` (option) + `B` (the operand).
    const obs::TraceFile a = obs::readTraceFile(*baseline);
    const obs::TraceFile b = obs::readTraceFile(args.positionals().front());
    const double threshold = args.number("threshold").value_or(0.05);
    const postproc::TraceDiff diff = postproc::diffTraces(a, b, threshold);
    if (args.flag("json")) {
      std::cout << "{\"schema\":\"rebench.profile_diff/1\",\"diff\":"
                << postproc::diffJson(diff) << "}\n";
    } else {
      std::cout << postproc::renderDiff(diff);
    }
    return diff.regressions() == 0 ? 0 : 1;
  }

  const obs::TraceFile trace =
      obs::readTraceFile(args.positionals().front());
  for (const std::string& issue : obs::lintTrace(trace)) {
    std::cerr << "profile: warning: " << issue << "\n";
  }
  const postproc::TraceProfile profile = postproc::profileTrace(trace);
  const postproc::CriticalPathReport critical =
      postproc::extractCriticalPath(trace, profile);
  if (args.flag("json")) {
    std::cout << "{\"schema\":\"rebench.profile/1\",\"profile\":"
              << postproc::profileJson(profile)
              << ",\"critical_path\":" << postproc::criticalPathJson(critical)
              << ",\"stages\":" << stageTableJson(trace)
              << ",\"metrics\":" << metricsJson(trace) << "}\n";
  } else {
    std::cout << postproc::renderProfile(profile) << "\n"
              << postproc::renderCriticalPath(critical);
  }
  if (auto chromePath = args.text("chrome")) {
    writeChromeTrace(trace, *chromePath, &profile);
  }
  return 0;
}

int report(const Args& args) {
  const auto path = args.text("perflog");
  if (!path) throw UsageError("--perflog required");
  DataFrame frame;
  if (const auto cacheDir = args.text("frame-cache")) {
    // Columnar cache path: same bytes out, but repeat reads of a large
    // unchanged perflog skip the parse entirely (content-hash keyed,
    // verified read — corruption degrades to a re-parse).
    store::ObjectStore cache(*cacheDir);
    frame = analysisFrameFromTable(loadOrConvertPerflog(cache, *path).table);
  } else {
    frame = perflogToDataFrame(PerfLog::readFile(*path));
  }
  if (auto fom = args.text("fom")) {
    frame = frame.filterEquals("fom", *fom);
  }
  if (frame.empty()) {
    std::cout << "(no matching entries)\n";
    return 0;
  }
  AsciiTable table("perflog report:");
  table.setHeader({"system", "partition", "test", "fom", "value", "unit",
                   "result"});
  for (std::size_t i = 0; i < frame.rowCount(); ++i) {
    table.addRow({frame.strings("system")[i], frame.strings("partition")[i],
                  frame.strings("test")[i], frame.strings("fom")[i],
                  str::fixed(frame.numeric("value")[i], 2),
                  frame.strings("unit")[i], frame.strings("result")[i]});
  }
  std::cout << table.render();

  if (args.flag("stats")) {
    // H&B-style reporting: per (system, test, fom) summary over repeats.
    std::cout << "\nstatistics per series (Hoefler-Belli reporting):\n";
    std::map<std::string, std::vector<double>> series;
    for (std::size_t i = 0; i < frame.rowCount(); ++i) {
      // Summary rows are already statistics; folding them into the
      // per-repeat series would double-count the mean.
      if (frame.strings("result")[i] == "summary") continue;
      const std::string key = frame.strings("system")[i] + "/" +
                              frame.strings("test")[i] + "/" +
                              frame.strings("fom")[i];
      series[key].push_back(frame.numeric("value")[i]);
    }
    for (const auto& [key, values] : series) {
      const SummaryStats stats = summarize(values);
      std::cout << "  " << key << ": " << renderStats(stats);
      if (!isReportable(stats)) std::cout << "  [NOT REPORTABLE]";
      std::cout << "\n";
    }
  }

  if (args.flag("plot")) {
    std::vector<std::string> labels;
    std::vector<double> values;
    for (std::size_t i = 0; i < frame.rowCount(); ++i) {
      if (frame.strings("result")[i] == "summary") continue;
      labels.push_back(frame.strings("system")[i] + "/" +
                       frame.strings("fom")[i]);
      values.push_back(frame.numeric("value")[i]);
    }
    std::cout << "\n" << renderBarChart(labels, values, {.width = 40});
  }
  return 0;
}

int compare(const Args& args) {
  const auto before = args.text("before");
  const auto after = args.text("after");
  if (!before || !after) throw UsageError("--before and --after required");
  const double threshold = args.number("threshold").value_or(0.05);

  std::optional<store::ObjectStore> frameCache;
  if (const auto cacheDir = args.text("frame-cache")) {
    frameCache.emplace(*cacheDir);
  }
  auto collect = [&frameCache](const std::string& path) {
    const std::vector<PerfLogEntry> entries =
        frameCache
            ? tableToPerflogEntries(loadOrConvertPerflog(*frameCache, path).table)
            : PerfLog::readFile(path);
    std::map<std::string, std::vector<double>> series;
    for (const PerfLogEntry& entry : entries) {
      // Adaptive campaigns append result=summary aggregate rows; only
      // the raw per-repeat observations feed the median comparison.
      if (entry.result == "error" || entry.result == "summary") continue;
      series[entry.system + ":" + entry.partition + "/" + entry.testName +
             "/" + entry.fomName]
          .push_back(entry.value);
    }
    return series;
  };
  const auto beforeSeries = collect(*before);
  const auto afterSeries = collect(*after);

  AsciiTable table("performance comparison (" + *before + " -> " + *after +
                   "):");
  table.setHeader({"series", "before (median)", "after (median)", "delta",
                   "verdict"});
  int regressions = 0;
  for (const auto& [key, beforeValues] : beforeSeries) {
    auto it = afterSeries.find(key);
    if (it == afterSeries.end()) {
      table.addRow({key, str::fixed(summarize(beforeValues).median, 2),
                    "(missing)", "-", "DROPPED"});
      ++regressions;
      continue;
    }
    const double b = summarize(beforeValues).median;
    const double a = summarize(it->second).median;
    const double delta = b != 0.0 ? (a - b) / b : 0.0;
    std::string verdict = "ok";
    if (delta < -threshold) {
      verdict = "REGRESSION";
      ++regressions;
    } else if (delta > threshold) {
      verdict = "improved";
    }
    table.addRow({key, str::fixed(b, 2), str::fixed(a, 2),
                  str::fixed(delta * 100.0, 1) + "%", verdict});
  }
  std::cout << table.render();
  return regressions == 0 ? 0 : 1;
}

/// `rebench history`: the records of a store's hash-chained history or
/// of a perflog, filtered by [test [target]], then the trend view or the
/// regression gate over them.
int history(const Args& args) {
  const std::string test =
      args.positionals().empty() ? "" : args.positionals()[0];
  const std::string target =
      args.positionals().size() < 2 ? "" : args.positionals()[1];
  std::vector<history::HistoryRecord> records;
  if (const auto storeDir = args.text("store")) {
    if (!isStore(*storeDir)) {
      std::cerr << "history: no store at " << *storeDir << "\n";
      return 2;
    }
    store::ObjectStore store(*storeDir);
    records = history::HistoryIndex(store).query(test, target);
  } else if (const auto path = args.text("perflog")) {
    std::vector<PerfLogEntry> entries;
    if (const auto cacheDir = args.text("frame-cache")) {
      store::ObjectStore cache(*cacheDir);
      entries =
          tableToPerflogEntries(loadOrConvertPerflog(cache, *path).table);
    } else {
      entries = PerfLog::readFile(*path);
    }
    records = history::selectRecords(history::recordsFromPerflog(entries),
                                     test, target);
  } else {
    throw UsageError("--store DIR or --perflog F required");
  }

  if (args.flag("check")) {
    if (records.empty()) {
      std::cerr << "history: no matching records to gate\n";
      return 2;
    }
    history::GateOptions gate;
    gate.window =
        static_cast<std::size_t>(args.integer("window").value_or(5));
    gate.threshold = args.number("threshold").value_or(0.05);
    const std::vector<history::GateResult> verdicts =
        history::checkRegression(records, gate);
    int regressions = 0;
    for (const history::GateResult& verdict : verdicts) {
      if (verdict.regression) ++regressions;
    }
    if (args.flag("json")) {
      std::cout << "{\"schema\":\"rebench.history_gate/1\",\"window\":"
                << gate.window << ",\"threshold\":"
                << str::fixed(gate.threshold, 6)
                << ",\"regressions\":" << regressions << ",\"series\":[";
      bool first = true;
      for (const history::GateResult& verdict : verdicts) {
        if (!first) std::cout << ",";
        first = false;
        std::cout << "{\"series\":" << obs::json::quote(verdict.series)
                  << ",\"insufficient\":"
                  << (verdict.insufficient ? "true" : "false")
                  << ",\"regression\":"
                  << (verdict.regression ? "true" : "false")
                  << ",\"latest\":" << obs::formatMetricValue(verdict.latest)
                  << ",\"baseline\":"
                  << obs::formatMetricValue(verdict.baseline)
                  << ",\"delta\":" << obs::formatMetricValue(verdict.delta)
                  << ",\"baseline_ci\":"
                  << obs::formatMetricValue(verdict.baselineCi)
                  << ",\"latest_ci\":"
                  << obs::formatMetricValue(verdict.latestCi)
                  << ",\"latest_ess\":"
                  << obs::formatMetricValue(verdict.latestEss)
                  << ",\"significant\":"
                  << (verdict.significant ? "true" : "false")
                  << ",\"changepoint\":"
                  << (verdict.changepoint ? "true" : "false")
                  << ",\"changepoint_index\":" << verdict.changepointIndex
                  << ",\"justification\":"
                  << obs::json::quote(verdict.justification) << "}";
      }
      std::cout << "]}\n";
      return regressions > 0 ? 1 : 0;
    }
    for (const history::GateResult& verdict : verdicts) {
      if (verdict.insufficient) {
        std::cout << "[ -- ] " << verdict.series << ": "
                  << verdict.justification << "\n";
        continue;
      }
      std::cout << "[" << (verdict.regression ? "FAIL" : " OK ") << "] "
                << verdict.series << ": " << verdict.justification << "\n";
    }
    if (regressions > 0) {
      std::cout << regressions << " regression(s) detected\n";
      return 1;
    }
    return 0;
  }

  history::RenderOptions options;
  options.json = args.flag("json");
  options.window =
      static_cast<std::size_t>(args.integer("window").value_or(5));
  std::cout << history::renderHistory(records, options);
  return 0;
}

/// `rebench submit` — drops one campaign invocation into a serve queue
/// (tmp + atomic rename; idempotent by content hash).
int submitCommand(const Args& args) {
  const auto queueDir = args.text("queue");
  if (!queueDir) throw UsageError("--queue DIR required");
  const std::string mode = args.text("benchmark") ? "run" : "suite";
  store::CampaignInvocation inv = invocationFromArgs(args, mode);
  // Submissions always execute against the daemon's store; only build
  // reuse stays configurable.
  inv.withStore = true;
  const service::Submission sub = service::enqueueSubmission(*queueDir, inv);
  std::cout << "submitted " << sub.id << " (" << mode << " @ " << inv.system
            << ") -> " << sub.path << "\n";
  return 0;
}

/// `rebench serve` — the crash-safe continuous-benchmarking daemon (see
/// service/service.hpp and DESIGN.md §14).
int serveCommand(const Args& args) {
  const auto queueDir = args.text("queue");
  if (queueDir && args.flag("request-drain")) {
    service::requestDrain(*queueDir);
    std::cout << "serve: drain requested for " << *queueDir << "\n";
    return 0;
  }
  if (queueDir && args.flag("clear-drain")) {
    service::clearDrainRequest(*queueDir);
    std::cout << "serve: drain request cleared for " << *queueDir << "\n";
    return 0;
  }
  const auto storeDir = args.text("store");
  if (!queueDir || !storeDir) throw UsageError("--queue and --store required");
  const std::string listen = args.text("listen").value_or("");
  if (!listen.empty()) {
    checkValue("--listen", [&] { telemetry::validateListenAddress(listen); });
  }
  const SystemRegistry systems = builtinSystems();
  const PackageRepository repo = builtinRepository();
  TraceSession trace(args);

  service::ServeOptions options;
  options.queueDir = *queueDir;
  options.storeDir = *storeDir;
  options.once = args.flag("once");
  options.jobs = args.integer("jobs").value_or(1);
  options.quarantineAfter = args.integer("quarantine-after").value_or(3);
  options.stageTimeout = args.number("stage-timeout").value_or(-1.0);
  options.submissionTimeout =
      args.number("submission-timeout").value_or(-1.0);
  options.crashAfter = args.text("crash-after").value_or("");
  options.listen = listen;
  trace.attach(options);
  options.log = &std::cout;

  // SIGTERM/SIGINT = graceful drain: finish the submission in flight,
  // snapshot health, exit.
  std::signal(SIGTERM, [](int) { service::Service::requestShutdown(); });
  std::signal(SIGINT, [](int) { service::Service::requestShutdown(); });
  service::Service daemon(
      systems, repo, std::move(options),
      [](const store::CampaignInvocation& inv) {
        return selectTests(inv, nullptr, nullptr);
      });
  service::ServeReport report;
  try {
    report = daemon.run();
  } catch (const service::QueueBusyError& e) {
    std::cerr << "rebench serve: " << e.what() << "\n";
    return 2;
  }
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGINT, SIG_DFL);

  if (report.crashed) {
    // The crash-after test hook: behave like a killed process — no
    // summary, no trace, distinctive exit code for the harness.
    std::cout << "serve: crashed (crash-after hook)\n";
    return 3;
  }
  const std::string traceBytes = trace.active() ? trace.serialize() : "";
  trace.write(traceBytes);
  trace.writeMetrics({});
  if (!report.endpointAddress.empty()) {
    std::cout << "serve: endpoint " << report.endpointAddress << " answered "
              << report.endpointRequests << " request(s)\n";
  }
  std::cout << "serve: " << report.processed
            << " submission(s) processed - " << report.cached << " cached, "
            << report.executed << " executed (" << report.clean << " clean, "
            << report.regressed << " regressed), " << report.failed
            << " failed, " << report.quarantined << " quarantined, "
            << report.degraded << " degraded\n";
  if (report.drained) {
    std::cout << "serve: drained, " << report.queueDepth
              << " submission(s) remaining in queue\n";
  }
  return 0;
}

/// QUEUE/endpoint.addr, written by a daemon with --listen ("" when no
/// live endpoint is advertised).
std::string readEndpointAddress(const std::string& queueDir) {
  const std::string addr =
      readFileIfPresent(queueDir + "/endpoint.addr").value_or("");
  return std::string(str::trim(addr.substr(0, addr.find('\n'))));
}

/// Prints the scalar fields of a health object (live /health or the
/// health.json snapshot) in a fixed order, skipping absent keys.
void printHealthFields(const obs::json::Value& health) {
  static constexpr std::array<std::string_view, 17> kKeys = {
      "seq",         "uptime_seconds", "processed",
      "cached",      "executed",       "clean",
      "regressed",   "failed",         "quarantined",
      "degraded",    "malformed",      "watchdog_fires",
      "queue_depth", "runcache_hits",  "runcache_misses",
      "watchdog_arms", "verdicts"};
  for (const std::string_view key : kKeys) {
    const std::string name(key);
    if (!health.contains(name)) continue;
    const double value = health.numberOr(name, 0.0);
    std::cout << "  " << str::padRight(name, 16) << " ";
    if (value == static_cast<double>(static_cast<long long>(value))) {
      std::cout << static_cast<long long>(value) << "\n";
    } else {
      std::cout << str::fixed(value, 3) << "\n";
    }
  }
  for (const std::string_view key :
       {std::string_view("inflight_submission"),
        std::string_view("inflight_stage")}) {
    const std::string name(key);
    const std::string value = health.stringOr(name, "");
    if (!value.empty()) {
      std::cout << "  " << str::padRight(name, 16) << " " << value << "\n";
    }
  }
}

/// Summarizes the newest QUEUE/flightrec-<seq>.jsonl: event/drop counts
/// from the meta line plus the last recorded event, which a post-mortem
/// reads next to the journal's claimed state.
void printFlightRecordSummary(const std::string& queueDir) {
  namespace fs = std::filesystem;
  std::string newest;
  unsigned long long newestSeq = 0;
  for (const auto& entry : fs::directory_iterator(queueDir)) {
    // Only a complete flightrec-<digits>.jsonl: a crash mid-dump leaves
    // the atomic writer's flightrec-<seq>.jsonl.tmp.<pid>.<n> behind.
    const std::string name = entry.path().filename().string();
    if (!name.starts_with("flightrec-") || !name.ends_with(".jsonl")) {
      continue;
    }
    unsigned long long seq = 0;
    try {
      seq = str::parseWhole<unsigned long long>(
          std::string_view(name).substr(10, name.size() - 16),
          "flight record seq");
    } catch (const ParseError&) {
      continue;
    }
    if (newest.empty() || seq > newestSeq) {
      newestSeq = seq;
      newest = entry.path().string();
    }
  }
  if (newest.empty()) return;
  std::string meta;
  std::string last;
  for (const std::string& line :
       str::split(readFileIfPresent(newest).value_or(""), '\n')) {
    if (str::trim(line).empty()) continue;
    if (meta.empty()) {
      meta = line;
    } else {
      last = line;
    }
  }
  if (meta.empty()) return;
  try {
    const obs::json::Value header = obs::json::parse(meta);
    std::cout << "flight record: "
              << fs::path(newest).filename().string() << " ("
              << header.integerOr<long long>("events", 0)
              << " event(s), "
              << header.integerOr<long long>("dropped", 0)
              << " dropped)\n";
    if (!last.empty()) {
      const obs::json::Value event = obs::json::parse(last);
      std::cout << "  last event: seq "
                << event.integerOr<long long>("seq", 0) << " "
                << event.stringOr("kind", "?") << "/"
                << event.stringOr("stage", "?");
      const std::string submission = event.stringOr("submission", "");
      if (!submission.empty()) std::cout << " (" << submission << ")";
      std::cout << "\n";
    }
  } catch (const Error& e) {
    std::cout << "flight record: " << newest << " unparseable: " << e.what()
              << "\n";
  }
}

/// `rebench status` — live TTY view of a serve queue: health via the
/// --listen endpoint when one is advertised (QUEUE/endpoint.addr),
/// falling back to the health.json snapshot; plus the newest flight
/// record.  --fetch PATH prints one endpoint response verbatim (the
/// in-test HTTP client); --follow streams /verdicts as they are filed.
int statusCommand(const Args& args) {
  const auto queueDir = args.text("queue");
  if (!queueDir) throw UsageError("--queue DIR required");
  const std::string addr = readEndpointAddress(*queueDir);

  if (const auto fetch = args.text("fetch")) {
    if (addr.empty()) {
      std::cerr << "status: no live endpoint (" << *queueDir
                << "/endpoint.addr missing)\n";
      return 2;
    }
    std::cout << telemetry::httpGet(addr, *fetch);
    return 0;
  }

  if (args.flag("follow")) {
    if (addr.empty()) {
      std::cerr << "status: --follow needs a live endpoint (" << *queueDir
                << "/endpoint.addr missing)\n";
      return 2;
    }
    std::uint64_t since = 0;
    while (true) {
      std::string body;
      try {
        body = telemetry::httpGet(
            addr, "/verdicts?since=" + std::to_string(since));
      } catch (const Error&) {
        std::cout << "status: endpoint gone (daemon exited)\n";
        return 0;
      }
      std::istringstream lines(body);
      std::string line;
      while (std::getline(lines, line)) {
        if (str::trim(line).empty()) continue;
        std::cout << line << "\n" << std::flush;
        try {
          const obs::json::Value verdict = obs::json::parse(line);
          since =
              std::max(since, verdict.integerOr<std::uint64_t>("seq", 0));
        } catch (const Error&) {
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
  }

  bool printed = false;
  if (!addr.empty()) {
    try {
      const std::string body = telemetry::httpGet(addr, "/health");
      std::cout << "status: live endpoint at " << addr << "\n";
      printHealthFields(obs::json::parse(str::trim(body)));
      printed = true;
    } catch (const Error& e) {
      std::cout << "status: stale endpoint.addr (" << addr
                << " unreachable: " << e.what() << ")\n";
    }
  }
  if (!printed) {
    const std::string healthPath =
        (std::filesystem::path(*queueDir) / "health.json").string();
    if (const auto text = readFileIfPresent(healthPath)) {
      std::cout << "status: snapshot from " << healthPath
                << " (no live endpoint)\n";
      printHealthFields(obs::json::parse(str::trim(*text)));
      printed = true;
    }
  }
  if (!printed) {
    std::cout << "status: no health information in " << *queueDir
              << " (daemon never ran?)\n";
  }
  printFlightRecordSummary(*queueDir);
  return printed ? 0 : 1;
}

int dispatch(const Args& args) {
  if (args.subcommand() == "list-systems") return listSystems();
  if (args.subcommand() == "list-packages") return listPackages();
  if (args.subcommand() == "spec") return showSpec(args);
  if (args.subcommand() == "env") return showEnv(args);
  if (args.subcommand() == "audit") return audit(args);
  if (args.subcommand() == "run") return runCampaign(args);
  if (args.subcommand() == "suite") return runCampaign(args);
  if (args.subcommand() == "replay") return replay(args);
  if (args.subcommand() == "report") return report(args);
  if (args.subcommand() == "trace-report") return traceReport(args);
  if (args.subcommand() == "profile") return profileCommand(args);
  if (args.subcommand() == "history") return history(args);
  if (args.subcommand() == "compare") return compare(args);
  if (args.subcommand() == "submit") return submitCommand(args);
  if (args.subcommand() == "serve") return serveCommand(args);
  if (args.subcommand() == "status") return statusCommand(args);
  throw InternalError("no handler for " + std::string(args.subcommand()));
}

}  // namespace
}  // namespace rebench::cli

/// Exit status: 0 ok; 1 a failed run, regression, audit finding, replay
/// divergence or any other error (I/O included); 2 a command-line error,
/// reported with the subcommand's generated usage, or serve on a queue
/// another daemon holds; 3 serve's crash hook.
int main(int argc, char** argv) {
  using namespace rebench::cli;
  const std::string name = argc > 1 && findCommand(argv[1]) ? argv[1] : "";
  try {
    return dispatch(Args::parse(argc, argv));
  } catch (const UsageError& e) {
    std::cerr << "rebench" << (name.empty() ? "" : " ") << name << ": "
              << e.what() << "\n" << usage(name);
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "rebench: " << e.what() << "\n";
    return 1;
  }
}
