#include "core/pkg/build_plan.hpp"

#include <set>

#include "core/util/hash.hpp"
#include "core/util/rng.hpp"

namespace rebench {

namespace {

void appendSteps(const ConcreteSpec& node, std::set<std::string>& seen,
                 std::vector<BuildStep>& steps) {
  if (seen.contains(node.dagHash())) return;
  seen.insert(node.dagHash());
  for (const auto& [name, dep] : node.dependencies) {
    appendSteps(*dep, seen, steps);
  }
  BuildStep step;
  step.packageName = node.name;
  step.specShortForm = node.shortForm();
  step.specHash = node.dagHash();
  step.external = node.external;
  step.command = node.external
                     ? "module load " + node.externalOrigin
                     : "spack install --reuse " + node.shortForm();
  steps.push_back(std::move(step));
}

}  // namespace

std::string BuildPlan::planHash() const {
  Hasher h;
  h.update(rootHash);
  for (const BuildStep& step : steps) {
    h.update(step.specHash).update(step.command);
  }
  return h.hex();
}

std::string BuildPlan::renderScript() const {
  std::string out = "# reproducible build of " + rootSpec + "\n";
  out += "# dag hash: " + rootHash + "\n";
  for (const BuildStep& step : steps) {
    out += step.command + "   # " + step.specShortForm + "\n";
  }
  return out;
}

BuildPlan makeBuildPlan(const ConcreteSpec& root) {
  BuildPlan plan;
  plan.rootSpec = root.shortForm();
  plan.rootHash = root.dagHash();
  std::set<std::string> seen;
  appendSteps(root, seen, plan.steps);
  return plan;
}

double simulatedBuildCost(const BuildStep& step) {
  if (step.external) return 0.05;  // "module load" is near-free
  // Deterministic per-package cost in [10, 130) seconds of simulated time.
  Rng rng = Rng::fromKey("build-cost:" + step.specHash);
  return 10.0 + 120.0 * rng.uniform();
}

BuildRecord Builder::build(const BuildPlan& plan) {
  const std::string key = plan.planHash();
  if (!rebuildEveryRun_) {
    std::lock_guard lock(mutex_);
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      BuildRecord cached = it->second;
      cached.stepsExecuted = 0;
      cached.stepsReusedFromCache = static_cast<int>(plan.steps.size());
      cached.buildSeconds = 0.0;
      return cached;
    }
  }
  BuildRecord record;
  record.rootHash = plan.rootHash;
  record.planHash = key;
  double total = 0.0;
  for (const BuildStep& step : plan.steps) {
    total += simulatedBuildCost(step);
    ++record.stepsExecuted;
  }
  record.buildSeconds = total;
  record.binaryId = Hasher{}.update("binary").update(key).hex();
  if (!rebuildEveryRun_) {
    std::lock_guard lock(mutex_);
    cache_[key] = record;
  }
  return record;
}

}  // namespace rebench
