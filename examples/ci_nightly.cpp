// The CI pipeline of the paper's conclusion, end to end: a simulated week
// of nightly suite runs across systems, appending to per-system perflogs,
// followed by the analysis battery — hygiene audit, summary statistics,
// and the regression gate `rebench history --perflog --check` runs — that
// §4 wants running "as part of a CI pipeline ... to measure and track
// performance over time".
//
//   $ ./ci_nightly
#include <cstdio>
#include <filesystem>
#include <iostream>

#include "core/framework/pipeline.hpp"
#include "core/history/history.hpp"
#include "core/postproc/hygiene.hpp"
#include "core/postproc/stats.hpp"
#include "core/util/rng.hpp"
#include "core/util/strings.hpp"
#include "suite/builtin_suite.hpp"

using namespace rebench;

int main() {
  const SystemRegistry systems = builtinSystems();
  const PackageRepository repo = builtinRepository();
  Pipeline pipeline(systems, repo);

  // Tonight's selection: the OpenMP BabelStream row, like the §3.1 demo.
  const std::vector<RegressionTest> tests = builtinSuite().select("omp");
  const std::string perflogPath =
      (std::filesystem::temp_directory_path() / "ci_nightly.log").string();
  std::remove(perflogPath.c_str());
  PerfLog perflog(perflogPath);

  const int kNights = 7;
  std::cout << "running " << tests.size() << " test(s) x 2 systems x "
            << kNights << " nights...\n";
  for (int night = 0; night < kNights; ++night) {
    for (const char* target : {"archer2", "csd3"}) {
      for (const RegressionTest& test : tests) {
        // Each night is a fresh repeat: fresh run-to-run noise.
        pipeline.runOne(test, target, &perflog, night);
      }
    }
  }

  const std::vector<PerfLogEntry> entries = PerfLog::readFile(perflogPath);
  std::cout << "\n1. hygiene audit (Bailey / Hoefler-Belli):\n";
  std::cout << renderHygieneReport(auditPerflog(entries));

  std::cout << "\n2. per-series statistics (night-to-night variability):\n";
  const std::vector<history::HistoryRecord> records =
      history::recordsFromPerflog(entries);
  for (const auto& [key, series] : history::groupSeries(records)) {
    if (series.front().fom != "Triad") continue;
    std::vector<double> values;
    for (const history::HistoryRecord& record : series) {
      values.push_back(record.mean / 1.0e3);  // GB/s
    }
    std::cout << "  " << key << ": " << renderStats(summarize(values))
              << " GB/s\n";
  }

  std::cout << "\n3. regression gate (tonight against the nights before):\n";
  int regressions = 0;
  for (const history::GateResult& verdict :
       history::checkRegression(records, {})) {
    if (!verdict.regression) continue;
    ++regressions;
    std::cout << "  REGRESSION " << verdict.series << ": "
              << verdict.justification << "\n";
  }
  if (regressions == 0) {
    std::cout << "  no regressions across " << kNights
              << " nights — the gate passes.\n";
  }

  std::cout << "\nperflog retained at " << perflogPath
            << " — feed it to `rebench report/history/audit/compare`.\n";
  return regressions == 0 ? 0 : 1;
}
