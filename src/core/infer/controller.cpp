#include "core/infer/controller.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>

#include "core/framework/pipeline.hpp"
#include "core/obs/metrics.hpp"
#include "core/obs/trace.hpp"
#include "core/util/strings.hpp"

namespace rebench::infer {

namespace {

/// Accumulated state for one (test, target) pair across rounds.
struct PairState {
  std::string test;
  std::string target;  // "system:partition"
  std::vector<TestRunResult> results;  // repeat-ascending
  /// fom -> passing-run samples in repeat order (map = sorted foms).
  std::map<std::string, std::vector<double>> samples;
  int executedRepeats = 0;  // repeats scheduled so far
  int rounds = 0;
  bool converged = false;
  bool exhausted = false;  // budget spent or no data will ever come
};

bool seriesConverged(const SeriesEstimate& est, double target) {
  return est.n >= 2 && !est.drift && est.ciRelative <= target;
}

/// Accumulates one round's executor accounting into the caller's
/// report; makespan/serial seconds are additive across rounds because
/// rounds are sequential barriers.
void foldReport(CampaignReport* into, const CampaignReport& round) {
  if (into == nullptr) return;
  into->executed += round.executed;
  for (const auto& [outcome, tuples] : round.journaledOutcomes) {
    into->journaledOutcomes[outcome] += tuples;
  }
  into->quarantined += round.quarantined;
  for (const std::string& key : round.quarantinedKeys) {
    into->quarantinedKeys.push_back(key);
  }
  into->uniqueBuilds += round.uniqueBuilds;
  into->dedupedBuilds += round.dedupedBuilds;
  into->simulatedSerialSeconds += round.simulatedSerialSeconds;
  into->simulatedMakespanSeconds += round.simulatedMakespanSeconds;
  into->workerLanesTouched =
      std::max(into->workerLanesTouched, round.workerLanesTouched);
}

}  // namespace

int nextWindowGrowth(const SeriesEstimate& worst, double targetRelHalfwidth,
                     int executed) {
  int extra = 1;
  if (worst.n < 2 || !std::isfinite(worst.ciRelative)) {
    extra = std::max(1, 2 - worst.n);
  } else if (worst.ciRelative > targetRelHalfwidth) {
    // Half-width shrinks ~1/sqrt(n): project the total sample count
    // that reaches the target and schedule the difference.
    const double factor = worst.ciRelative / targetRelHalfwidth;
    const int required =
        static_cast<int>(std::ceil(static_cast<double>(worst.n) * factor *
                                   factor));
    extra = std::max(1, required - worst.n);
  }
  if (worst.drift) extra = std::max(extra, worst.n);
  // At most double per round: early noisy estimates wildly overshoot.
  return std::clamp(extra, 1, std::max(1, executed));
}

std::vector<TestRunResult> runAdaptive(
    Pipeline& pipeline, std::span<const RegressionTest> tests,
    std::span<const std::string> targets, const InferenceOptions& options,
    PerfLog* perflog, RunJournal* journal, CampaignReport* report,
    ControllerReport* controller) {
  const double target = options.ciHalfwidth;
  const int minRepeats = std::max(1, options.minRepeats);
  const int maxRepeats = std::max(minRepeats, options.maxRepeats);

  std::vector<PairState> pairs;  // canonical first-seen order
  std::map<std::string, std::size_t> pairIndex;
  std::map<std::string, RepeatWindow> windows;
  std::optional<RepeatWindow> defaultWindow = RepeatWindow{0, minRepeats};
  int rounds = 0;
  std::size_t totalRuns = 0;

  while (true) {
    CampaignReport roundReport;
    const std::vector<TestRunResult> roundResults = pipeline.runWindows(
        tests, targets, windows, defaultWindow, perflog, journal,
        &roundReport);
    foldReport(report, roundReport);
    ++rounds;

    std::map<std::string, int> roundCounts;
    for (const TestRunResult& result : roundResults) {
      const std::string key = result.testName + "@" + result.system + ":" +
                              result.partition;
      auto it = pairIndex.find(key);
      if (it == pairIndex.end()) {
        it = pairIndex.emplace(key, pairs.size()).first;
        PairState state;
        state.test = result.testName;
        state.target = result.system + ":" + result.partition;
        pairs.push_back(std::move(state));
      }
      PairState& state = pairs[it->second];
      if (result.passed) {
        for (const auto& [fom, value] : result.foms) {
          state.samples[fom].push_back(value);
        }
      }
      state.results.push_back(result);
      ++roundCounts[key];
      ++totalRuns;
    }

    // Decide each pair that participated this round (round 0: all).
    windows.clear();
    for (auto& [key, index] : pairIndex) {
      PairState& state = pairs[index];
      if (state.converged || state.exhausted) continue;
      const auto counted = roundCounts.find(key);
      if (counted == roundCounts.end()) {
        // Window requested but nothing came back (journal-resumed
        // repeats): no new data will ever arrive for it, stop here.
        if (defaultWindow == std::nullopt) state.exhausted = true;
        continue;
      }
      state.executedRepeats += counted->second;
      ++state.rounds;

      if (state.samples.empty()) {
        state.exhausted = true;  // every run failed or was quarantined
        continue;
      }
      SeriesEstimate worst;
      bool haveWorst = false;
      bool allConverged = true;
      for (const auto& [fom, values] : state.samples) {
        const SeriesEstimate est = estimateSeries(values);
        if (!seriesConverged(est, target)) {
          allConverged = false;
          if (!haveWorst || est.ciRelative > worst.ciRelative ||
              (est.drift && !worst.drift)) {
            worst = est;
            haveWorst = true;
          }
        }
      }
      if (allConverged && state.executedRepeats >= minRepeats) {
        state.converged = true;
        continue;
      }
      if (state.executedRepeats >= maxRepeats) {
        state.exhausted = true;
        continue;
      }
      const int extra = nextWindowGrowth(worst, target,
                                         state.executedRepeats);
      const int end =
          std::min(maxRepeats, state.executedRepeats + extra);
      windows[key] = RepeatWindow{state.executedRepeats, end};
    }
    defaultWindow = std::nullopt;
    if (windows.empty()) break;
    if (roundResults.empty() && rounds > 1) break;  // resume starvation
  }

  // Canonical re-assembly: pairs in first-seen (target, test) order,
  // repeats ascending inside each pair — the exact order a fixed-repeat
  // runAll would have produced, so manifests and history agree.
  std::vector<TestRunResult> all;
  for (const PairState& state : pairs) {
    for (const TestRunResult& result : state.results) all.push_back(result);
  }

  obs::Tracer* tracer = pipeline.tracer();
  obs::MetricsRegistry* metrics = pipeline.metrics();
  std::vector<FomDecision> decisions;
  for (const PairState& state : pairs) {
    const TestRunResult* provenance = nullptr;
    for (const TestRunResult& result : state.results) {
      if (result.passed) {
        provenance = &result;
        break;
      }
    }
    for (const auto& [fom, values] : state.samples) {
      FomDecision decision;
      decision.test = state.test;
      decision.target = state.target;
      decision.fom = fom;
      decision.estimate = estimateSeries(values);
      decision.rounds = state.rounds;
      decision.converged = state.converged;
      const SeriesEstimate& est = decision.estimate;

      if (perflog != nullptr && provenance != nullptr) {
        PerfLogEntry entry;
        entry.system = provenance->system;
        entry.partition = provenance->partition;
        entry.environ = provenance->environ;
        entry.testName = state.test;
        if (provenance->concreteSpec != nullptr) {
          entry.spec = provenance->concreteSpec->shortForm();
          entry.specHash = provenance->concreteSpec->dagHash();
        }
        entry.binaryId = provenance->build.binaryId;
        entry.jobId = std::to_string(provenance->jobId);
        entry.fomName = fom;
        entry.value = est.mean;
        for (const RegressionTest& test : tests) {
          if (test.name != state.test) continue;
          for (const PerfPattern& pattern : test.perfPatterns) {
            if (pattern.fomName == fom) entry.unit = pattern.unit;
          }
        }
        entry.result = "summary";
        entry.extras["repeats"] = std::to_string(est.n);
        entry.extras["ci_halfwidth"] = str::fixed(est.ciHalfwidth, 6);
        entry.extras["ci_rel"] = str::fixed(est.ciRelative, 6);
        entry.extras["ess"] = str::fixed(est.ess, 3);
        entry.extras["autocorr"] = str::fixed(est.autocorr, 6);
        entry.extras["converged"] = state.converged ? "true" : "false";
        entry.timestamp = pipeline.nextTimestamp();
        perflog->append(entry);
      }

      if (tracer != nullptr) {
        tracer->beginSpan("infer.controller");
        tracer->setAttr("test", state.test);
        tracer->setAttr("target", state.target);
        tracer->setAttr("fom", fom);
        tracer->setAttr("repeats", std::to_string(est.n));
        tracer->setAttr("ess", str::fixed(est.ess, 3));
        tracer->setAttr("ci_halfwidth", str::fixed(est.ciHalfwidth, 6));
        tracer->setAttr("ci_rel", str::fixed(est.ciRelative, 6));
        tracer->setAttr("mean", str::fixed(est.mean, 6));
        tracer->setAttr("converged", state.converged ? "true" : "false");
        tracer->setAttr("rounds", std::to_string(state.rounds));
        tracer->endSpan();
      }
      if (metrics != nullptr) {
        const std::string suffix =
            state.test + "/" + state.target + "/" + fom;
        metrics->gauge("infer.ci_halfwidth/" + suffix).set(est.ciHalfwidth);
        metrics->gauge("infer.ess/" + suffix).set(est.ess);
        metrics->counter(state.converged ? "infer.converged"
                                         : "infer.capped")
            .inc();
      }
      decisions.push_back(std::move(decision));
    }
  }
  if (metrics != nullptr) {
    metrics->counter("infer.rounds").inc(static_cast<std::uint64_t>(rounds));
    metrics->counter("infer.runs").inc(
        static_cast<std::uint64_t>(totalRuns));
  }
  if (controller != nullptr) {
    controller->decisions = std::move(decisions);
    controller->rounds = rounds;
    controller->totalRuns = totalRuns;
  }
  return all;
}

}  // namespace rebench::infer
