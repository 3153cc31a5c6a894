// Experiment E9 — ablation of Principle 3 ("rebuild every run").
//
// The paper argues that cached binaries silently decouple the measured
// binary from the documented build steps.  This bench quantifies three
// workflows: always rebuilding, naively caching on the build plan alone
// (what ad-hoc scripts do), and the framework's content-addressed store
// with *verified reuse* — cache keys cover the concretized spec, the
// system environment fingerprint and the build plan, so a compiler
// module update invalidates the cache instead of hiding drift.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <iostream>
#include <optional>

#include "core/concretizer/concretizer.hpp"
#include "core/pkg/build_plan.hpp"
#include "core/store/build_cache.hpp"
#include "core/store/object_store.hpp"
#include "core/sysconfig/system_config.hpp"
#include "core/util/strings.hpp"
#include "core/util/table.hpp"

namespace {

using namespace rebench;

std::string freshStoreDir(const char* name) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  return dir.string();
}

/// The store's verified reuse, as the pipeline's build stage takes it: a
/// lookup keyed on spec DAG + environment fingerprint + plan, else a
/// build that is inserted.
BuildRecord verifiedBuild(store::BuildCache& cache, Builder& builder,
                          const BuildPlan& plan,
                          const std::string& envFingerprint) {
  const std::string key = store::BuildCache::cacheKey(
      plan.rootHash, envFingerprint, plan.planHash());
  if (std::optional<BuildRecord> hit =
          cache.lookup(key, plan, nullptr, nullptr)) {
    return *hit;
  }
  const BuildRecord record = builder.build(plan);
  cache.insert(key, record, nullptr);
  return record;
}

void BM_BuildPlanExecution(benchmark::State& state) {
  const PackageRepository repo = builtinRepository();
  const SystemRegistry systems = builtinSystems();
  Concretizer concretizer(repo, systems.get("archer2").environment);
  const auto root = concretizer.concretize(Spec::parse("hpgmg%gcc")).root;
  const BuildPlan plan = makeBuildPlan(*root);
  Builder builder(/*rebuildEveryRun=*/true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(builder.build(plan));
  }
}
BENCHMARK(BM_BuildPlanExecution);

// A cache hit still pays for a verified read: the blob is fetched from
// disk and rehashed before the record is trusted.
void BM_BuildCacheHit(benchmark::State& state) {
  const PackageRepository repo = builtinRepository();
  const SystemRegistry systems = builtinSystems();
  const SystemEnvironment& env = systems.get("archer2").environment;
  Concretizer concretizer(repo, env);
  const auto root = concretizer.concretize(Spec::parse("hpgmg%gcc")).root;
  const BuildPlan plan = makeBuildPlan(*root);

  store::ObjectStore objectStore(freshStoreDir("rebench-bench-store"));
  store::BuildCache cache(objectStore);
  const std::string fingerprint =
      store::BuildCache::environmentFingerprint(env);
  Builder builder(/*rebuildEveryRun=*/true);
  verifiedBuild(cache, builder, plan, fingerprint);  // warm the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(verifiedBuild(cache, builder, plan, fingerprint));
  }
}
BENCHMARK(BM_BuildCacheHit);

void reproduceAblation() {
  const PackageRepository repo = builtinRepository();
  const SystemRegistry systems = builtinSystems();

  // Phase 1: the original environment.
  SystemConfig csd3 = systems.get("csd3");
  Concretizer before(repo, csd3.environment);
  const auto specBefore = before.concretize(Spec::parse("hpgmg%gcc")).root;
  const BuildPlan planBefore = makeBuildPlan(*specBefore);

  Builder rebuilding(/*rebuildEveryRun=*/true);
  Builder naiveCaching(/*rebuildEveryRun=*/false);
  store::ObjectStore objectStore(freshStoreDir("rebench-ablation-store"));
  store::BuildCache cache(objectStore);
  Builder verified(/*rebuildEveryRun=*/true);
  const std::string fpBefore =
      store::BuildCache::environmentFingerprint(csd3.environment);

  const int kRuns = 10;
  double rebuildCost = 0.0, naiveCost = 0.0, verifiedCost = 0.0;
  for (int i = 0; i < kRuns; ++i) {
    rebuildCost += rebuilding.build(planBefore).buildSeconds;
    naiveCost += naiveCaching.build(planBefore).buildSeconds;
    verifiedCost +=
        verifiedBuild(cache, verified, planBefore, fpBefore).buildSeconds;
  }

  // Phase 2: the system's gcc module is upgraded (11.2.0 -> 12.1.0) and
  // the openmpi external is rebuilt against it — a routine maintenance
  // window on a real service.
  csd3.environment.compilers = {
      CompilerEntry{"gcc", Version::parse("12.1.0"), "gcc/12.1.0"}};
  for (ExternalEntry& ext : csd3.environment.externals) {
    if (ext.name == "openmpi") {
      ext.version = Version::parse("4.1.4");
      ext.origin = "openmpi/4.1.4";
      ext.compilerVersion = Version::parse("12.1.0");
    }
  }
  Concretizer after(repo, csd3.environment);
  const auto specAfter = after.concretize(Spec::parse("hpgmg%gcc")).root;
  const BuildPlan planAfter = makeBuildPlan(*specAfter);
  const std::string fpAfter =
      store::BuildCache::environmentFingerprint(csd3.environment);

  const BuildRecord freshRecord = rebuilding.build(planAfter);
  // The naive cached workflow never re-concretizes: it happily reuses
  // the old binary, which no longer matches the system it runs on.
  const BuildRecord staleRecord = naiveCaching.build(planBefore);
  // The store workflow re-concretizes (cheap) and keys reuse on spec +
  // environment + plan: the maintenance window changes the key, the
  // lookup misses, and the binary is rebuilt for the current system.
  const BuildRecord verifiedRecord =
      verifiedBuild(cache, verified, planAfter, fpAfter);

  AsciiTable table("Ablation (Principle 3): rebuild-every-run vs cached "
                   "binaries, hpgmg%gcc on csd3");
  table.setHeader(
      {"metric", "rebuild-every-run", "naive cache", "verified store"});
  table.addRow({"simulated build cost, 10 runs (s)",
                str::fixed(rebuildCost, 1), str::fixed(naiveCost, 1),
                str::fixed(verifiedCost, 1)});
  table.addRow({"binary id after maintenance",
                freshRecord.binaryId.substr(0, 12) + "...",
                staleRecord.binaryId.substr(0, 12) + "...",
                verifiedRecord.binaryId.substr(0, 12) + "..."});
  table.addRow({"matches current environment",
                freshRecord.rootHash == planAfter.rootHash ? "yes" : "NO",
                staleRecord.rootHash == planAfter.rootHash ? "yes" : "NO",
                verifiedRecord.rootHash == planAfter.rootHash ? "yes" : "NO"});
  std::cout << "\n" << table.render();

  std::cout << "\nDrift detection: spec DAG hash " << planBefore.rootHash
            << " (before) vs " << planAfter.rootHash
            << " (after maintenance).\n";
  if (staleRecord.rootHash != planAfter.rootHash) {
    std::cout << "The naively cached binary is provably stale: a perflog "
                 "entry carrying its binary id can no longer be reproduced "
                 "from the current system environment.\n";
  }
  std::cout << "Verified store: " << cache.stats().hits << " hit(s), "
            << cache.stats().misses
            << " miss(es); the post-maintenance lookup missed, so reuse "
               "cost "
            << str::fixed(verifiedCost / kRuns, 1)
            << " s/run (amortized) without ever serving a stale binary.\n";
  std::cout << "Object store holds " << objectStore.objectCount()
            << " build record(s) in " << objectStore.dir() << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  reproduceAblation();
  return 0;
}
