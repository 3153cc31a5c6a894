#include "workloads.hpp"

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <set>
#include <sstream>
#include <streambuf>

#include "core/history/history.hpp"
#include "core/pkg/recipe.hpp"
#include "core/service/journal.hpp"
#include "core/service/queue.hpp"
#include "core/service/record.hpp"
#include "core/service/service.hpp"
#include "core/store/object_store.hpp"
#include "core/store/run_cache.hpp"
#include "core/sysconfig/system_config.hpp"
#include "core/util/error.hpp"
#include "inputs.hpp"
#include "sysprobe.hpp"
#include "traced_serve.hpp"

namespace rebench::e2e {

namespace fs = std::filesystem;

namespace {

/// Set-up samples taken before each repetition; setup_s is their
/// median.  Spread over the run, they see the host the way the timed
/// phases do, not only in the moment before the first one.
constexpr int kSetupSamplesPerRep = 4;

/// Work per repetition.  Each repetition takes a few seconds at most, so
/// a run holds enough of them for their median to outvote the ones that
/// meet a slow stretch of a shared host.
struct Sizes {
  int submissions = 100;      // serve_cold / serve_cached queue length
  int restarts = 4;           // serve_cached daemon restarts per repetition
  int historySeries = 200;    // history_check
  int historySegments = 1000;  // 10x the segments serve_cold appends
  // Every check appends one index line per segment it reads, so the
  // tenth check replays ten times the index the first one does.
  int checks = 10;
};

Sizes sizesFor(bool quick) {
  if (!quick) return {};
  return {24, 2, 40, 200, 5};
}

/// A log stream that timestamps every line: ServeOptions::log gets one
/// "<id> <verdict>" line per verdict, so the gaps between stamps are the
/// per-verdict service times.
class StampBuf : public std::streambuf {
 public:
  std::vector<double> stamps;
  std::vector<std::string> lines;

 protected:
  int_type overflow(int_type ch) override {
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      put(traits_type::to_char_type(ch));
    }
    return ch;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) put(s[i]);
    return n;
  }

 private:
  void put(char c) {
    if (c != '\n') {
      current_ += c;
      return;
    }
    stamps.push_back(nowSeconds());
    lines.push_back(std::move(current_));
    current_.clear();
  }
  std::string current_;
};

struct RepOutcome {
  double wallSeconds = 0.0;
  int ops = 0;
  std::vector<double> latenciesMs;
  int failed = 0;
  std::vector<std::string> failures;

  void fail(const std::string& why) {
    ++failed;
    if (failures.size() < 5) failures.push_back(why);
  }
};

std::vector<double> gapsMs(double start, const std::vector<double>& stamps) {
  std::vector<double> gaps;
  for (double stamp : stamps) {
    gaps.push_back((stamp - start) * 1e3);
    start = stamp;
  }
  return gaps;
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

class Workload {
 public:
  Workload(const RunConfig& config, const Sizes& sizes)
      : config_(config),
        sizes_(sizes),
        systems_(builtinSystems()),
        repo_(builtinRepository()) {}
  virtual ~Workload() = default;

  /// Builds inputs, references and the snapshot of the initial state.
  virtual void setUp() = 0;
  /// Puts the initial state in place (outside any timed phase).
  virtual void restore() = 0;

  /// One setup_s sample: the start-up calls the entry point makes on the
  /// workload's initial state before its first op.
  double sampleSetup() {
    clearStartup();
    settleFilesystem(config_.workDir);
    const double start = nowSeconds();
    startup();
    return nowSeconds() - start;
  }

  /// The timed phase.
  virtual RepOutcome timed(LayerTrace* trace) = 0;
  /// Output checks; failures count against the repetition's ops.
  virtual void check(RepOutcome& rep) = 0;
  /// Directories whose growth is the workload's disk footprint.
  virtual std::vector<std::string> stateDirs() const { return {storeDir()}; }

  std::string storeDir() const { return path("store"); }
  std::string indexPath() const { return path("store/index.jsonl"); }

 protected:
  /// Start-up calls, timed as direct calls.
  virtual void startup() = 0;
  /// Opening an existing store or journal only reads it, so samples can
  /// follow each other; a workload that starts empty deletes here what
  /// the previous sample created.
  virtual void clearStartup() {}

  std::string path(const std::string& name) const {
    return (fs::path(config_.workDir) / name).string();
  }

  const RunConfig& config_;
  const Sizes sizes_;
  const SystemRegistry systems_;
  const PackageRepository repo_;
};

// ---- serve drains ---------------------------------------------------------

/// What one drain left behind: verdict bytes per submission plus the
/// history head and the run-cache refs its verdicts cite.
struct DrainDigest {
  std::map<std::string, std::string> verdicts;
  std::map<std::string, std::string> runcacheRefs;
  std::string head;
};

DrainDigest digestDrain(const std::string& queueDir,
                        const std::string& storeDir,
                        const std::vector<std::string>& ids) {
  DrainDigest digest;
  const store::ObjectStore store(storeDir);
  for (const std::string& id : ids) {
    const std::string path = service::verdictPath(queueDir, id);
    if (!fs::exists(path)) continue;
    const std::string bytes = readFile(path);
    digest.verdicts[id] = bytes;
    const std::string key = service::Verdict::parse(bytes).key;
    digest.runcacheRefs[id] =
        store.ref(store::RunCache::refName(key)).value_or("");
  }
  digest.head = store.ref(history::kHeadRef).value_or("");
  return digest;
}

class ServeWorkload : public Workload {
 public:
  using Workload::Workload;

  std::vector<std::string> stateDirs() const override {
    return {storeDir(), queueDir()};
  }

 protected:
  std::string queueDir() const { return path("queue"); }

  /// The daemon's start-up: registries, store and journal replay, and
  /// the queue scan it begins with.
  void startup() override {
    const SystemRegistry systems = builtinSystems();
    const PackageRepository repo = builtinRepository();
    const store::ObjectStore store(storeDir());
    const service::ServiceJournal journal(queueDir());
    service::scanQueue(queueDir());
  }

  void enqueueInto(const std::string& queueDir) {
    for (const store::CampaignInvocation& inv :
         serveSubmissions(config_.seed, sizes_.submissions)) {
      ids_.push_back(service::enqueueSubmission(queueDir, inv).id);
    }
  }

  /// One daemon start over the live queue and store, untraced through
  /// Service::run or traced through the copy of its submission path.
  void drain(LayerTrace* trace, std::ostream& log) {
    const service::TestResolver resolver = makeResolver(trace);
    if (trace != nullptr) {
      tracedServeRun(*trace, systems_, repo_, queueDir(), storeDir(), resolver,
                     log);
      return;
    }
    service::ServeOptions options;
    options.queueDir = queueDir();
    options.storeDir = storeDir();
    options.once = true;
    options.jobs = 1;
    options.log = &log;
    service::Service(systems_, repo_, options, resolver).run();
  }

  RepOutcome timedDrains(LayerTrace* trace, int restarts) {
    RepOutcome rep;
    rep.ops = restarts * static_cast<int>(ids_.size());
    StampBuf buf;
    std::ostream log(&buf);
    const double start = nowSeconds();
    try {
      for (int i = 0; i < restarts; ++i) drain(trace, log);
    } catch (const Error& e) {
      rep.fail(std::string("drain threw: ") + e.what());
    }
    rep.wallSeconds = nowSeconds() - start;
    rep.latenciesMs = gapsMs(start, buf.stamps);
    lines_ = std::move(buf.lines);
    return rep;
  }

  std::vector<std::string> ids_;
  std::vector<std::string> lines_;  // progress lines of the last repetition
};

class ServeCold : public ServeWorkload {
 public:
  using ServeWorkload::ServeWorkload;

  void setUp() override { enqueueInto(path("initial/queue")); }

  void restore() override {
    restoreTree(path("initial/queue"), queueDir());
    removeTree(storeDir());
  }

  void clearStartup() override {
    removeTree(storeDir());
    fs::remove(service::ServiceJournal::pathFor(queueDir()));
  }

  RepOutcome timed(LayerTrace* trace) override { return timedDrains(trace, 1); }

  void check(RepOutcome& rep) override {
    const DrainDigest digest = digestDrain(queueDir(), storeDir(), ids_);
    if (!reference_) reference_ = digest;
    for (const std::string& id : ids_) {
      const auto verdict = digest.verdicts.find(id);
      if (verdict == digest.verdicts.end()) {
        rep.fail("no verdict for " + id);
      } else if (service::Verdict::parse(verdict->second).verdict.rfind(
                     "failed:", 0) == 0) {
        rep.fail("failed verdict for " + id + ": " + verdict->second);
      } else if (verdict->second != reference_->verdicts.at(id)) {
        rep.fail("verdict bytes differ from the first repetition for " + id);
      } else if (digest.runcacheRefs.at(id) != reference_->runcacheRefs.at(id)) {
        rep.fail("runcache ref differs from the first repetition for " + id);
      }
    }
    if (digest.head != reference_->head) {
      rep.fail("history/head differs from the first repetition");
    }
  }

 private:
  std::optional<DrainDigest> reference_;
};

class ServeCached : public ServeWorkload {
 public:
  using ServeWorkload::ServeWorkload;

  /// The initial state is the answered queue and warm store of a
  /// serve_cold-style drain.
  void setUp() override {
    removeTree(queueDir());
    removeTree(storeDir());
    enqueueInto(queueDir());
    std::ostringstream log;
    drain(nullptr, log);
    for (const std::string& id : ids_) {
      const service::Verdict verdict = service::Verdict::parse(
          readFile(service::verdictPath(queueDir(), id)));
      if (verdict.verdict.rfind("ran:", 0) != 0) {
        throw Error("set-up drain answered " + id + " with " + verdict.verdict);
      }
      manifests_[id] = verdict.manifestHash;
    }
    restoreTree(queueDir(), path("initial/queue"));
    restoreTree(storeDir(), path("initial/store"));
  }

  void restore() override {
    restoreTree(path("initial/queue"), queueDir());
    restoreTree(path("initial/store"), storeDir());
  }

  RepOutcome timed(LayerTrace* trace) override {
    return timedDrains(trace, sizes_.restarts);
  }

  void check(RepOutcome& rep) override {
    int answered = 0;
    for (const std::string& line : lines_) {
      ++answered;
      const std::size_t space = line.find(' ');
      const std::string id = line.substr(0, space);
      if (manifests_.count(id) == 0 ||
          line.compare(space + 1, 6, "cached") != 0) {
        rep.fail("not answered from the run cache: " + line);
      }
    }
    for (; answered < rep.ops; ++answered) rep.fail("missing verdict line");
    for (const std::string& id : ids_) {
      const service::Verdict verdict = service::Verdict::parse(
          readFile(service::verdictPath(queueDir(), id)));
      if (verdict.verdict != "cached" ||
          verdict.manifestHash != manifests_.at(id)) {
        rep.fail("verdict for " + id + " does not cite its first manifest");
      }
    }
  }

 private:
  std::map<std::string, std::string> manifests_;  // from the set-up drain
};

// ---- history checks -------------------------------------------------------

class HistoryCheck : public Workload {
 public:
  using Workload::Workload;

  void setUp() override {
    removeTree(path("initial/store"));
    planted_ = buildSyntheticHistory(path("initial/store"), config_.seed,
                                     sizes_.historySeries,
                                     sizes_.historySegments);
  }

  void restore() override { restoreTree(path("initial/store"), storeDir()); }

  /// `rebench history --store` before its query: registries and store.
  void startup() override {
    const SystemRegistry systems = builtinSystems();
    const PackageRepository repo = builtinRepository();
    const store::ObjectStore store(storeDir());
  }

  RepOutcome timed(LayerTrace* trace) override {
    RepOutcome rep;
    rep.ops = sizes_.checks;
    regressed_.assign(static_cast<std::size_t>(sizes_.checks), {});
    const double start = nowSeconds();
    for (int i = 0; i < sizes_.checks; ++i) {
      const double begin = nowSeconds();
      try {
        regressed_[static_cast<std::size_t>(i)] = checkOnce(i, trace);
      } catch (const Error& e) {
        rep.fail("check " + std::to_string(i) + " threw: " + e.what());
      }
      rep.latenciesMs.push_back((nowSeconds() - begin) * 1e3);
    }
    rep.wallSeconds = nowSeconds() - start;
    return rep;
  }

  void check(RepOutcome& rep) override {
    for (std::size_t i = 0; i < regressed_.size(); ++i) {
      if (regressed_[i] != planted_) {
        rep.fail("check " + std::to_string(i) + " flagged " +
                 std::to_string(regressed_[i].size()) + " series, planted " +
                 std::to_string(planted_.size()));
      }
    }
  }

 private:
  /// What `rebench history --store DIR --check --window 5 --threshold
  /// 0.05` does; returns the series it flags.
  std::set<std::string> checkOnce(int check, LayerTrace* trace) {
    if (trace != nullptr) trace->setOp("check-" + std::to_string(check));
    Span root(trace, "cli.history");
    std::optional<store::ObjectStore> store;
    {
      Span span(trace, "store.open");
      store.emplace(storeDir());
    }
    const history::HistoryIndex index(*store);
    std::vector<history::HistoryRecord> records;
    historyCall(trace, "history.index_query", indexPath(),
                [&] { records = index.query(""); });
    std::vector<history::GateResult> gates;
    {
      Span span(trace, "infer.check_regression");
      gates = history::checkRegression(records, history::GateOptions{5, 0.05});
    }
    std::set<std::string> flagged;
    for (const history::GateResult& gate : gates) {
      if (gate.regression) flagged.insert(gate.series);
    }
    return flagged;
  }

  std::set<std::string> planted_;
  std::vector<std::set<std::string>> regressed_;  // last repetition
};

std::unique_ptr<Workload> makeWorkload(const RunConfig& config,
                                       const Sizes& sizes) {
  if (config.workload == "serve_cold") {
    return std::make_unique<ServeCold>(config, sizes);
  }
  if (config.workload == "serve_cached") {
    return std::make_unique<ServeCached>(config, sizes);
  }
  if (config.workload == "history_check") {
    return std::make_unique<HistoryCheck>(config, sizes);
  }
  throw Error("unknown workload '" + config.workload + "'");
}

double stateBytes(const Workload& workload) {
  double bytes = 0.0;
  for (const std::string& dir : workload.stateDirs()) {
    bytes += static_cast<double>(treeBytes(dir));
  }
  return bytes;
}

}  // namespace

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names = {"serve_cold", "serve_cached",
                                                 "history_check"};
  return names;
}

WorkloadResult runWorkload(const RunConfig& config,
                           const std::string& traceFile) {
  removeTree(config.workDir);
  fs::create_directories(config.workDir);
  // Write back whatever an earlier run left dirty, so this run's
  // fsyncs do not pay for it.
  settleFilesystem(config.workDir);
  const std::unique_ptr<Workload> workload =
      makeWorkload(config, sizesFor(config.quick));
  WorkloadResult result;
  result.name = config.workload;
  const double setUpStart = nowSeconds();
  workload->setUp();
  result.setUpSeconds = nowSeconds() - setUpStart;

  std::optional<LayerTrace> trace;
  if (config.trace) trace.emplace();
  std::vector<double> untracedWall;
  std::vector<double> tracedWall;
  auto measure = [&](LayerTrace* tracing) {
    workload->restore();
    settleFilesystem(config.workDir);
    const double before = stateBytes(*workload);
    const std::uint64_t indexOffset = fileSize(workload->indexPath());
    resetPeakRss();
    if (tracing != nullptr) tracing->beginPhase();
    const IoCounters ioBefore = readIo();
    RepOutcome rep = workload->timed(tracing);
    const IoCounters ioAfter = readIo();
    const double peakRss = peakRssMb();
    if (tracing != nullptr) {
      tracing->endPhase(rep.ops);
      tracing->count("store.index_lines",
                     static_cast<double>(
                         countLinesFrom(workload->indexPath(), indexOffset)));
    }
    const double diskKb = (stateBytes(*workload) - before) / 1024.0;
    try {
      workload->check(rep);
    } catch (const std::exception& e) {
      rep.fail(std::string("output check threw: ") + e.what());
    }
    result.attempted += rep.ops;
    result.failed += std::min(rep.failed, rep.ops);
    for (const std::string& why : rep.failures) {
      if (result.failures.size() < 10) result.failures.push_back(why);
    }
    if (tracing != nullptr) {
      tracedWall.push_back(rep.wallSeconds);
      return;
    }
    ++result.reps;
    untracedWall.push_back(rep.wallSeconds);
    result.opsPerS.push_back(rep.ops / rep.wallSeconds);
    result.p50Ms.push_back(percentile(rep.latenciesMs, 0.5));
    result.p95Ms.push_back(percentile(rep.latenciesMs, 0.95));
    const double ops = std::max(1, rep.ops);
    result.peakRssMb.push_back(peakRss);
    result.readKbPerOp.push_back(
        static_cast<double>(ioAfter.rchar - ioBefore.rchar) / 1024.0 / ops);
    result.writeKbPerOp.push_back(
        static_cast<double>(ioAfter.wchar - ioBefore.wchar) / 1024.0 / ops);
    result.diskKbPerOp.push_back(diskKb / ops);
  };

  // Repetitions fill --seconds: the next one starts only if one as long
  // as the last still ends inside the budget.
  const double start = nowSeconds();
  double last = 0.0;
  do {
    const double begin = nowSeconds();
    workload->restore();
    for (int i = 0; i < (config.quick ? 3 : kSetupSamplesPerRep); ++i) {
      result.setupS.push_back(workload->sampleSetup());
    }
    measure(nullptr);
    if (trace) measure(&*trace);
    last = nowSeconds() - begin;
  } while (!config.quick && nowSeconds() - start + last <= config.seconds);

  if (trace) {
    result.traced = true;
    result.layers = trace->summarize(median(tracedWall) / median(untracedWall),
                                     median(result.diskKbPerOp));
    if (!traceFile.empty()) trace->write(traceFile);
  }
  removeTree(config.workDir);
  return result;
}

void emitServeQueue(const std::string& queueDir, std::uint64_t seed) {
  for (const store::CampaignInvocation& inv :
       serveSubmissions(seed, sizesFor(true).submissions)) {
    service::enqueueSubmission(queueDir, inv);
  }
}

int drainQueue(const std::string& queueDir, const std::string& storeDir) {
  service::ServeOptions options;
  options.queueDir = queueDir;
  options.storeDir = storeDir;
  options.once = true;
  options.jobs = 1;
  const SystemRegistry systems = builtinSystems();
  const PackageRepository repo = builtinRepository();
  return service::Service(systems, repo, options, makeResolver(nullptr))
      .run()
      .failed;
}

}  // namespace rebench::e2e
