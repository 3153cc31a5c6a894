// Build planning and execution records (Principles 2, 3 and 4).
//
// A BuildPlan is the topologically-ordered list of package builds implied by
// a concretized spec.  Executing the plan produces a BuildRecord whose hash
// chain proves *which* binary a benchmark ran: rebuilding on every run
// (Principle 3) makes drift between "the binary we measured" and "the steps
// we documented" detectable instead of silent.
#pragma once

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/spec/spec.hpp"

namespace rebench {

/// One package build in dependency order.
struct BuildStep {
  std::string packageName;
  std::string specShortForm;
  std::string specHash;
  bool external = false;  // externals are loaded, not built
  /// The reproducible command this step corresponds to.
  std::string command;
};

struct BuildPlan {
  std::string rootSpec;        // short form of the root
  std::string rootHash;        // DAG hash of the root
  std::vector<BuildStep> steps;  // dependencies strictly before dependents

  /// Stable fingerprint over all steps.
  std::string planHash() const;

  /// Renders a shell-script-like document a human could replay (P4).
  std::string renderScript() const;
};

/// Derives the plan for a concretized root spec.
BuildPlan makeBuildPlan(const ConcreteSpec& root);

/// Outcome of executing a BuildPlan.
struct BuildRecord {
  std::string rootHash;
  std::string planHash;
  /// Identity of the produced binary == hash(plan, toolchain).  Two builds
  /// agree on binaryId iff the reproduction steps were identical.
  std::string binaryId;
  double buildSeconds = 0.0;  // simulated cost
  int stepsExecuted = 0;
  int stepsReusedFromCache = 0;
};

/// Executes build plans.  `rebuildEveryRun` mirrors Principle 3; turning it
/// off enables the paper's implicit counterfactual (stale-binary drift),
/// which bench/ablation_rebuild quantifies.  Verified reuse, where any
/// spec/environment/recipe drift forces a rebuild, is store::BuildCache's.
class Builder {
 public:
  explicit Builder(bool rebuildEveryRun = true)
      : rebuildEveryRun_(rebuildEveryRun) {}

  BuildRecord build(const BuildPlan& plan);

 private:
  bool rebuildEveryRun_;
  // One builder is shared by all concurrent campaign workers.
  std::mutex mutex_;
  /// planHash -> record; filled and read only when !rebuildEveryRun_.
  std::map<std::string, BuildRecord> cache_;
};

/// Deterministic simulated cost of building one package (seconds).
double simulatedBuildCost(const BuildStep& step);

}  // namespace rebench
