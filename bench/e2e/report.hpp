// Metrics, results files and comparisons for the end-to-end benchmark.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sysprobe.hpp"
#include "workloads.hpp"

namespace rebench::e2e {

inline constexpr const char* kResultsSchema = "rebench.bench_e2e/1";

/// One reported metric: a median with its quartiles over `n` samples.
struct Metric {
  std::string name;
  std::string unit;
  std::string better;  // "higher" | "lower"
  double value = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  std::size_t n = 0;
  std::vector<double> values;  // per repetition or sample
};

/// The gated end-to-end metrics of an untraced run (BENCHMARK.json's
/// end_to_end list; every workload has each).
std::vector<Metric> endToEndMetrics(const WorkloadResult& result);
/// The per-layer metrics of a traced run.
std::vector<Metric> perLayerMetrics(const WorkloadResult& result);

/// Human-readable report: every metric by name with its unit, the check
/// outcome and, for traced runs, the self-time table.
void printReport(std::ostream& out, const WorkloadResult& result);

/// The one-line JSON the benchmark ends its output with.
std::string summaryLine(const std::vector<WorkloadResult>& results);

/// Results file (schema rebench.bench_e2e/1) for one invocation.
std::string resultsJson(const std::vector<WorkloadResult>& results,
                        const Fingerprint& fingerprint, std::uint64_t seed);

/// Compares two results files with the bounds in BENCHMARK.json: one row
/// per (workload, metric).  A gated metric is marked worse when the
/// candidate's median is beyond the bound in the bad direction (setup_s:
/// and beyond 5 ms), else unresolved when either quartile spread is
/// wider than that and not every candidate value beats every baseline
/// value, else within; the others are marked ungated.  Returns 1 when
/// any metric is worse, else 0.
int checkAgainst(std::ostream& out, const std::string& baselinePath,
                 const std::string& candidatePath,
                 const std::string& benchmarkJsonPath);

}  // namespace rebench::e2e
