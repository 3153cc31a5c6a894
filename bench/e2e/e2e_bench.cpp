// e2e_bench — end-to-end benchmark of rebench's user-facing paths.
//
//   e2e_bench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//             [--trace-dir DIR] [--work DIR] [--results FILE] [--quick]
//   e2e_bench --check-against BASELINE CANDIDATE
//   e2e_bench --emit-queue DIR [--seed N]
//   e2e_bench --drain QUEUE STORE
//
// The measuring form runs each workload in this process, prints every
// metric by name with its unit, checks the outputs and ends with one
// JSON line {"correct", "attempted", "failed", "metrics"}.  --trace 1
// alternates untraced and traced repetitions and reports the per-layer
// metrics instead; --trace-dir DIR also writes DIR/<workload>.jsonl for
// `rebench trace-report`.  --check-against compares two results files
// with the bounds in ./BENCHMARK.json.  --emit-queue writes the quick
// serve_cold queue and --drain answers a queue with the in-process
// daemon; the smoke test uses both to hold the benchmark's resolver to
// the CLI's.  Exit status: 0 when every check passed, 1 when one failed,
// 2 on a usage error.
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/util/error.hpp"
#include "report.hpp"
#include "sysprobe.hpp"
#include "workloads.hpp"

namespace {

namespace e2e = rebench::e2e;

int usage(const std::string& why) {
  std::cerr << "e2e_bench: " << why << "\n"
            << "usage: e2e_bench [--workload NAME|all] [--seed N] "
               "[--seconds S] [--trace 0|1] [--trace-dir DIR] [--work DIR] "
               "[--results FILE] [--quick]\n"
               "       e2e_bench --check-against BASELINE CANDIDATE\n"
               "       e2e_bench --emit-queue DIR [--seed N]\n"
               "       e2e_bench --drain QUEUE STORE\n";
  return 2;
}

struct Options {
  std::string workload = "all";
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  std::string traceDir;
  std::string workDir = ".bench_work";
  std::string resultsFile;
  bool quick = false;
  std::vector<std::string> checkAgainst;
  std::string emitQueue;
  std::vector<std::string> drain;
};

/// Parses argv; returns an error message or "" on success.
std::string parse(int argc, char** argv, Options& options) {
  std::vector<std::string> args(argv + 1, argv + argc);
  auto value = [&](std::size_t& i) -> const std::string& {
    if (i + 1 >= args.size()) throw rebench::Error(args[i] + " needs a value");
    return args[++i];
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--workload") {
      options.workload = value(i);
    } else if (arg == "--seed") {
      options.seed = std::stoull(value(i));
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value(i));
      if (options.seconds < 0.0) return "--seconds must be >= 0";
    } else if (arg == "--trace") {
      const std::string& flag = value(i);
      if (flag != "0" && flag != "1") return "--trace expects 0 or 1";
      options.trace = flag == "1";
    } else if (arg == "--trace-dir") {
      options.traceDir = value(i);
    } else if (arg == "--work") {
      options.workDir = value(i);
    } else if (arg == "--results") {
      options.resultsFile = value(i);
    } else if (arg == "--quick") {
      options.quick = true;
    } else if (arg == "--check-against") {
      options.checkAgainst = {value(i), value(i)};
    } else if (arg == "--emit-queue") {
      options.emitQueue = value(i);
    } else if (arg == "--drain") {
      options.drain = {value(i), value(i)};
    } else {
      return "unknown argument '" + arg + "'";
    }
  }
  return "";
}

int measure(const Options& options) {
  std::vector<std::string> workloads;
  if (options.workload == "all") {
    workloads = e2e::workloadNames();
  } else {
    workloads = {options.workload};
  }
  for (const std::string& name : workloads) {
    bool known = false;
    for (const std::string& candidate : e2e::workloadNames()) {
      known = known || candidate == name;
    }
    if (!known) return usage("unknown workload '" + name + "'");
  }
  if (!options.traceDir.empty()) {
    std::filesystem::create_directories(options.traceDir);
  }

  std::vector<e2e::WorkloadResult> results;
  for (const std::string& name : workloads) {
    e2e::RunConfig config;
    config.workload = name;
    config.seed = options.seed;
    config.seconds = options.seconds;
    config.trace = options.trace;
    config.quick = options.quick;
    config.workDir = options.workDir + "/" + name;
    const std::string traceFile =
        options.traceDir.empty() ? ""
                                 : options.traceDir + "/" + name + ".jsonl";
    results.push_back(e2e::runWorkload(config, traceFile));
    e2e::printReport(std::cout, results.back());
    if (!traceFile.empty()) {
      std::cout << " trace written to " << traceFile << "\n";
    }
  }
  if (!options.resultsFile.empty()) {
    std::ofstream out(options.resultsFile);
    out << e2e::resultsJson(results, e2e::fingerprint(options.workDir),
                            options.seed);
    if (!out) throw rebench::Error("cannot write " + options.resultsFile);
  }
  std::cout << e2e::summaryLine(results) << std::endl;
  for (const e2e::WorkloadResult& result : results) {
    if (result.failed > 0) return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Payload kernels run on the process-global pool, one worker per CPU
  // unless REBENCH_THREADS says otherwise.  On a host that lends the
  // benchmark a few shared cores, those workers time the scheduler, and
  // which of them happened to run a kernel decides how much freed heap
  // their malloc arenas keep (5 MB more in some runs).  One worker keeps
  // kernels on the calling thread.  Set before anything builds the pool.
  ::setenv("REBENCH_THREADS", "1", 1);
  Options options;
  try {
    if (const std::string error = parse(argc, argv, options); !error.empty()) {
      return usage(error);
    }
    if (!options.checkAgainst.empty()) {
      return e2e::checkAgainst(std::cout, options.checkAgainst[0],
                               options.checkAgainst[1], "BENCHMARK.json");
    }
    if (!options.emitQueue.empty()) {
      e2e::emitServeQueue(options.emitQueue, options.seed);
      return 0;
    }
    if (!options.drain.empty()) {
      const int failed = e2e::drainQueue(options.drain[0], options.drain[1]);
      return failed == 0 ? 0 : 1;
    }
    return measure(options);
  } catch (const std::exception& e) {
    std::cerr << "e2e_bench: " << e.what() << "\n";
    return 1;
  }
}
