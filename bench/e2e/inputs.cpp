#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <utility>

#include "babelstream/testcase.hpp"
#include "core/framework/suite.hpp"
#include "core/history/history.hpp"
#include "core/store/object_store.hpp"
#include "core/util/error.hpp"
#include "core/util/hash.hpp"
#include "core/util/rng.hpp"
#include "hpcg/testcase.hpp"
#include "hpgmg/testcase.hpp"
#include "layer_trace.hpp"
#include "suite/builtin_suite.hpp"

namespace rebench::e2e {

namespace {

using Invocations = std::vector<store::CampaignInvocation>;

const std::vector<std::string> kModels = {"omp", "kokkos", "std-data",
                                          "std-indices", "std-ranges"};
// csr-opt is left out: it fails on four of the six systems.
const std::vector<std::string> kHpcgOperators = {"csr", "matrix-free",
                                                 "lfric"};
// Tags whose every test passes on all six systems.
const std::vector<std::string> kSuiteTags = {
    "osu", "hpgmg", "omp", "kokkos", "std-data", "std-indices", "std-ranges"};

/// What `rebench submit` records (the system is dealt out later).
store::CampaignInvocation submitted(const std::string& mode) {
  store::CampaignInvocation inv;
  inv.mode = mode;
  inv.withStore = true;
  inv.cache = true;
  return inv;
}

store::CampaignInvocation runOf(const std::string& benchmark, int repeats) {
  store::CampaignInvocation inv = submitted("run");
  inv.benchmark = benchmark;
  inv.repeats = repeats;
  return inv;
}

void makeAdaptive(store::CampaignInvocation& inv, int minRepeats) {
  inv.ciHalfwidth = 0.02;
  inv.minRepeats = minRepeats;
  inv.maxRepeats = 16;
}

/// One stratum of the serve mix: its work variants (system unset) and
/// its share of a 200-submission queue.
struct Stratum {
  Invocations variants;
  int per200 = 0;
};

std::vector<Stratum> serveStrata() {
  Stratum runs{{}, 80}, hpcg{{}, 40}, hpgmg{{}, 16};
  Stratum adaptive{{}, 20}, adaptiveHpcg{{}, 14}, adaptiveHpgmg{{}, 8};
  Stratum tags{{}, 22};
  for (const std::string& model : kModels) {
    for (int ntimes : {10, 20, 40, 80}) {
      store::CampaignInvocation inv = runOf("babelstream", 1);
      inv.ntimes = ntimes;
      inv.settings = {{"model", model}};
      for (int repeats : {1, 2, 3}) {
        inv.repeats = repeats;
        runs.variants.push_back(inv);
      }
      inv.repeats = 1;
      makeAdaptive(inv, 3);
      adaptive.variants.push_back(inv);
    }
  }
  for (const std::string& op : kHpcgOperators) {
    for (int repeats : {1, 2, 3}) {
      store::CampaignInvocation inv = runOf("hpcg", repeats);
      inv.settings = {{"operator", op}};
      hpcg.variants.push_back(inv);
    }
    for (int minRepeats : {3, 4}) {
      store::CampaignInvocation inv = runOf("hpcg", 1);
      inv.settings = {{"operator", op}};
      makeAdaptive(inv, minRepeats);
      adaptiveHpcg.variants.push_back(inv);
    }
  }
  for (int repeats : {1, 2, 3}) {
    hpgmg.variants.push_back(runOf("hpgmg", repeats));
    store::CampaignInvocation inv = runOf("hpgmg", 1);
    makeAdaptive(inv, repeats + 2);
    adaptiveHpgmg.variants.push_back(inv);
  }
  for (const std::string& tag : kSuiteTags) {
    for (int repeats : {1, 2, 3}) {
      store::CampaignInvocation inv = submitted("suite");
      inv.tag = tag;
      inv.repeats = repeats;
      tags.variants.push_back(inv);
    }
  }
  return {runs, hpcg, hpgmg, adaptive, adaptiveHpcg, adaptiveHpgmg, tags};
}

/// The CLI's buildTest: settings map onto the benchmark's test options.
RegressionTest buildTest(const store::CampaignInvocation& inv) {
  if (inv.benchmark == "babelstream") {
    babelstream::BabelstreamTestOptions options;
    if (inv.ntimes > 0) options.ntimes = inv.ntimes;
    for (const auto& [key, value] : inv.settings) {
      if (key == "model") options.model = value;
      if (key == "array_size") options.arraySize = std::stoull(value);
    }
    return babelstream::makeBabelstreamTest(options);
  }
  if (inv.benchmark == "hpcg") {
    hpcg::HpcgTestOptions options;
    for (const auto& [key, value] : inv.settings) {
      if (key == "operator") options.variant = hpcg::variantFromName(value);
      if (key == "num_tasks") options.numTasks = std::stoi(value);
      if (key == "grid") options.gridSize = std::stoi(value);
      if (key == "multigrid") options.multigrid = value == "1" || value == "true";
    }
    return hpcg::makeHpcgTest(options);
  }
  if (inv.benchmark == "hpgmg") {
    hpgmg::HpgmgTestOptions options;
    for (const auto& [key, value] : inv.settings) {
      if (key == "num_tasks") options.numTasks = std::stoi(value);
      if (key == "num_tasks_per_node") options.numTasksPerNode = std::stoi(value);
      if (key == "num_cpus_per_task") options.numCpusPerTask = std::stoi(value);
      if (key == "log2_box_dim") options.log2BoxDim = std::stoi(value);
      if (key == "boxes_per_rank") options.targetBoxesPerRank = std::stoi(value);
    }
    return hpgmg::makeHpgmgTest(options);
  }
  throw ParseError("--benchmark must be babelstream, hpcg or hpgmg (got '" +
                   inv.benchmark + "')");
}

/// Benchmark family of each builtin-suite test (its first tag).
const std::map<std::string, std::string>& suiteFamilies() {
  static const std::map<std::string, std::string> families = [] {
    std::map<std::string, std::string> byName;
    const TestSuite suite = builtinSuite();
    for (const TaggedTest& tagged : suite.all()) {
      byName[tagged.test.name] = tagged.tags.empty() ? "" : tagged.tags.front();
    }
    return byName;
  }();
  return families;
}

void recordPayload(RegressionTest& test, const std::string& family,
                   LayerTrace* trace) {
  if (!test.run) return;
  test.run = [body = std::move(test.run), family,
              trace](const RunContext& context) {
    trace->noteThreads(threadCount());
    const double start = trace->now();
    RunOutput output = body(context);
    trace->notePayload(family, start, trace->now());
    return output;
  };
}

}  // namespace

const std::vector<std::string>& benchSystems() {
  static const std::vector<std::string> systems = {
      "archer2", "csd3", "noctua2", "cosma8", "isambard-macs:cascadelake",
      "isambard:xci"};
  return systems;
}

std::vector<store::CampaignInvocation> serveSubmissions(std::uint64_t seed,
                                                        int count) {
  const std::vector<Stratum> strata = serveStrata();
  std::vector<int> sizes;
  int assigned = 0;
  for (const Stratum& stratum : strata) {
    const int size = std::max(
        1, static_cast<int>(std::lround(stratum.per200 * count / 200.0)));
    sizes.push_back(size);
    assigned += size;
  }
  sizes.front() += count - assigned;
  // Item i of a stratum is variant i mod V on a system dealt round-robin,
  // so every seed queues the same work.  The seed picks the project
  // account of each submission, which changes its hash and therefore the
  // order the daemon scans the queue in.
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x5E27E);
  const std::vector<std::string>& systems = benchSystems();
  Invocations out;
  for (std::size_t s = 0; s < strata.size(); ++s) {
    const Invocations& variants = strata[s].variants;
    const std::size_t size = static_cast<std::size_t>(sizes[s]);
    if (size > variants.size() * systems.size()) {
      throw Error("serve stratum too small for the requested queue length");
    }
    for (std::size_t i = 0; i < size; ++i) {
      const std::size_t variant = i % variants.size();
      const std::size_t round = i / variants.size();
      store::CampaignInvocation inv = variants[variant];
      inv.system = systems[(variant + round) % systems.size()];
      inv.account = "ec" + std::to_string(100 + rng.below(900));
      out.push_back(std::move(inv));
    }
  }
  return out;
}

service::TestResolver makeResolver(LayerTrace* trace) {
  return [trace](const store::CampaignInvocation& inv) {
    std::vector<RegressionTest> tests;
    if (inv.mode == "run") {
      tests.push_back(buildTest(inv));
    } else {
      const TestSuite suite = builtinSuite();
      tests = suite.select(inv.tag, inv.namePattern, inv.excludePattern,
                           nullptr, nullptr);
    }
    if (trace != nullptr) {
      for (RegressionTest& test : tests) {
        const std::string family = inv.mode == "run"
                                       ? inv.benchmark
                                       : suiteFamilies().at(test.name);
        recordPayload(test, family, trace);
      }
    }
    return tests;
  };
}

std::set<std::string> buildSyntheticHistory(const std::string& storeDir,
                                            std::uint64_t seed, int series,
                                            int segments) {
  constexpr int kRecordsPerSegment = 5;
  static const std::vector<std::string> kTargets = {
      "archer2:compute",           "csd3:cclake",  "noctua2:normal",
      "cosma8:compute", "isambard-macs:cascadelake", "isambard:xci"};
  static const std::vector<std::string> kFoms = {"Copy", "Triad", "GFLOPs",
                                                 "DOF/s"};
  if (series % kRecordsPerSegment != 0 ||
      segments * kRecordsPerSegment % series != 0) {
    throw Error("synthetic history sizes must tile whole segments");
  }
  const int rounds = segments * kRecordsPerSegment / series;
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x415709);

  struct Series {
    history::HistoryRecord base;
    double level = 0.0;
    double drop = 0.0;  // 0 = not planted
  };
  std::vector<Series> all(static_cast<std::size_t>(series));
  for (int i = 0; i < series; ++i) {
    Series& s = all[static_cast<std::size_t>(i)];
    const int test = i / static_cast<int>(kFoms.size());
    s.base.test = "e2e_synthetic_" + std::to_string(test);
    s.base.target = kTargets[static_cast<std::size_t>(test) % kTargets.size()];
    s.base.fom = kFoms[static_cast<std::size_t>(i) % kFoms.size()];
    s.base.envFingerprint = Hasher{}.update(s.base.target).hex();
    s.base.specHash = Hasher{}.update(s.base.test).hex();
    s.base.repeats = 3;
    s.base.ess = 3.0;
    s.level = rng.uniform(10.0, 1000.0);
  }
  std::vector<int> order(static_cast<std::size_t>(series));
  for (int i = 0; i < series; ++i) order[static_cast<std::size_t>(i)] = i;
  std::set<std::string> planted;
  for (int i = 0; i < series / 10; ++i) {
    const std::size_t j = static_cast<std::size_t>(i) + rng.below(order.size() - i);
    std::swap(order[static_cast<std::size_t>(i)], order[j]);
    Series& s = all[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])];
    s.drop = rng.uniform(0.15, 0.30);
    planted.insert(s.base.test + "|" + s.base.target + "|" + s.base.fom);
  }

  store::ObjectStore store(storeDir);
  history::HistoryIndex index(store);
  for (int round = 0; round < rounds; ++round) {
    const std::string manifest =
        Hasher{}.update(seed).update(static_cast<std::uint64_t>(round)).hex();
    for (int first = 0; first < series; first += kRecordsPerSegment) {
      std::vector<history::HistoryRecord> records;
      for (int i = first; i < first + kRecordsPerSegment; ++i) {
        const Series& s = all[static_cast<std::size_t>(i)];
        // Noise stays within +-1.5%, far inside the 5% gate threshold.
        double mean = s.level * (1.0 + 0.005 * std::clamp(rng.normal(), -3.0, 3.0));
        if (round == rounds - 1) mean *= 1.0 - s.drop;
        history::HistoryRecord record = s.base;
        record.manifestHash = manifest;
        record.mean = mean;
        record.min = mean * 0.99;
        record.max = mean * 1.01;
        record.ci = mean * 0.004;
        record.simTimestamp = 60.0 * round;
        records.push_back(std::move(record));
      }
      index.appendSegment(records);
    }
  }
  return planted;
}

}  // namespace rebench::e2e
