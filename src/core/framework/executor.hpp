// Parallel campaign executor — stage-overlapped execution of independent
// (test, target, repeat) campaigns with deterministic, byte-identical
// output.
//
// Pipeline::runWindows (and so runAll, one window of numRepeats repeats
// per pair) delegates here for every job count.  Campaigns are
// enumerated in canonical suite order (targets → matching tests →
// repeats) and executed on up to `jobs` workers; each campaign records
// into its *own* tracer/metrics/perflog shard, and the shards are merged
// back in canonical order once execution finishes.  Perflog, trace and
// manifest bytes are therefore independent of the job count and of the
// actual interleaving — parallelism never leaks into artefacts.
//
// Three mechanisms make that hold under adversarial scheduling:
//
//  * Single-flight builds.  A pre-pass concretizes every campaign
//    silently and groups campaigns by provenance cache key.  The first
//    live user of a cold key is its *leader* (builds once, publishes);
//    the rest are *followers* (block on the publication).  A leader that
//    is skipped or crashes abandons the key, which wakes followers to
//    re-elect.  Keys already verified in the store are *cached* — plain
//    lookups, no coordination.
//
//  * Canonical reconciliation.  Circuit-breaker decisions, journal
//    records and report counters are folded at a frontier that advances
//    strictly in suite order; campaigns that executed speculatively but
//    would have been quarantined under the canonical schedule are
//    discarded and replaced by synthesized quarantine results.
//
//  * Role repair.  When a speculative leader is later discarded, the
//    canonical leader (first accepted user of the key) re-executes with
//    a forced leader role so its shard carries leader-shaped bytes.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/framework/pipeline.hpp"

namespace rebench {

class CampaignExecutor {
 public:
  /// `pipeline` and `windows` must outlive the executor; `jobs` < 1
  /// reads as 1.  The windows are Pipeline::runWindows's.
  CampaignExecutor(Pipeline& pipeline, int jobs,
                   const std::map<std::string, RepeatWindow>& windows,
                   std::optional<RepeatWindow> defaultWindow);

  /// Executes the campaign; semantics and output bytes match
  /// Pipeline::runWindows's contract for every job count.
  std::vector<TestRunResult> run(std::span<const RegressionTest> tests,
                                 std::span<const std::string> targets,
                                 PerfLog* perflog, RunJournal* journal,
                                 CampaignReport* report);

 private:
  struct Unit {
    std::size_t index = 0;
    const RegressionTest* test = nullptr;
    std::string target;
    std::string systemName;
    std::string partitionName;
    std::string pairKey;       // "test@system:partition"
    std::string partitionKey;  // "system:partition"
    int repeat = 0;
    std::string buildKey;  // provenance cache key; empty = no coordination

    enum class Status { kPending, kRunning, kDone, kSkipped };
    Status status = Status::kPending;
    bool crashed = false;      // skipped by exception, not by the breaker
    bool quarantined = false;  // canonical decision, set at reconcile time
    std::string openKey;       // breaker key that quarantined this unit
    CampaignExecContext::BuildRole executedRole =
        CampaignExecContext::BuildRole::kDirect;
    std::string workerSpanId;  // shard id of the exec.worker span
    int observedLane = -1;     // ThreadPool lane that ran us (diagnostic)

    // Per-campaign observability shards, merged canonically afterwards.
    std::unique_ptr<obs::Tracer> tracer;
    std::unique_ptr<obs::MetricsRegistry> metrics;
    std::vector<PerfLogEntry> perfBuffer;
    TestRunResult result;
  };

  void enumerate(std::span<const RegressionTest> tests,
                 std::span<const std::string> targets);
  void classifyBuildKeys();
  /// Stamps the canonical virtual-lane schedule (`lane`, `sim_seconds`)
  /// onto each executed unit's exec.worker span — the attribute contract
  /// `rebench profile` and trace_lint consume.  Runs single-threaded
  /// after the pool drains, before shards are absorbed; the schedule is
  /// a greedy list schedule over options.profileLanes virtual lanes in
  /// canonical order, so the stamps are independent of --jobs.
  void stampProfileLanes();
  void executeUnit(Unit& unit);
  void runUnit(Unit& unit, bool forceLeader);
  void repairLeaderRoles();
  /// Advances the canonical frontier over finished units, replaying the
  /// circuit breaker and writing journal/report entries in suite order.
  void reconcileLocked();
  bool allowedLocked(const Unit& unit) const;
  CampaignExecContext::BuildRole roleForLocked(const Unit& unit) const;

  Pipeline& pipeline_;
  int jobs_;
  const std::map<std::string, RepeatWindow>& windows_;
  std::optional<RepeatWindow> defaultWindow_;

  std::mutex mutex_;
  std::vector<Unit> units_;
  std::size_t frontier_ = 0;
  CircuitBreaker pairBreaker_;
  CircuitBreaker partitionBreaker_;
  store::SingleFlight singleFlight_;
  std::map<std::string, std::vector<std::size_t>> users_;  // key -> units
  std::set<std::string> warmKeys_;
  PerfLog* perflog_ = nullptr;
  RunJournal* journal_ = nullptr;
  CampaignReport* report_ = nullptr;
};

}  // namespace rebench
