// The three end-to-end workloads and the loop that measures them.
//
// Every workload is a closed loop with one client.  A repetition restores
// the workload's initial state (outside the timed phase), runs a fixed
// number of ops through the entry points users hit, then checks the
// outputs.  Repetitions continue while another fits in the run's time
// budget.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "layer_trace.hpp"

namespace rebench::e2e {

/// Names accepted by --workload, in the order `all` runs them.
const std::vector<std::string>& workloadNames();

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;  // time budget of the repetition loop
  bool trace = false;     // alternate untraced and traced repetitions
  bool quick = false;     // small sizes, one repetition (smoke test)
  std::string workDir;
};

struct WorkloadResult {
  std::string name;
  int attempted = 0;  // ops attempted in measured repetitions
  int failed = 0;     // ops that threw, got a wrong verdict or failed a check
  std::vector<std::string> failures;  // first few failure messages
  double setUpSeconds = 0.0;  // inputs, initial-state snapshot, references
  int reps = 0;       // untraced repetitions
  // Per untraced repetition:
  std::vector<double> opsPerS;
  std::vector<double> p50Ms;
  std::vector<double> p95Ms;
  std::vector<double> peakRssMb;  // VmHWM over the timed phase
  std::vector<double> readKbPerOp;   // /proc/self/io rchar
  std::vector<double> writeKbPerOp;  // /proc/self/io wchar
  std::vector<double> diskKbPerOp;
  std::vector<double> setupS;  // set-up samples
  bool traced = false;
  LayerSummary layers;  // traced runs only
};

/// Runs one workload.  With config.trace, writes the spans to
/// `traceFile` when it is non-empty.
WorkloadResult runWorkload(const RunConfig& config,
                           const std::string& traceFile);

/// Writes the quick serve_cold queue for `seed` (the smoke test drains
/// it with both the CLI and the in-process daemon).
void emitServeQueue(const std::string& queueDir, std::uint64_t seed);

/// `Service::run` (once, jobs 1) over `queueDir` with the benchmark's
/// resolver; returns the number of failed:* verdicts.
int drainQueue(const std::string& queueDir, const std::string& storeDir);

}  // namespace rebench::e2e
