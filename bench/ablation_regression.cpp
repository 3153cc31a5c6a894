// Experiment E11 (extension, paper §4) — cross-system performance
// regression testing as a CI pipeline.
//
// Simulates a nightly CI run of BabelStream across three systems over 30
// "days".  On day 20 one system suffers a silent platform degradation
// (a BIOS/firmware change halving its sustained bandwidth fraction) —
// invisible to correctness tests.  Each night the perflog's records go
// through the history gate (checkRegression), which must fail csd3 on its
// first degraded night; over the whole 30 nights the EDM changepoint scan
// pins the shift to that day.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <iostream>
#include <utility>

#include "babelstream/testcase.hpp"
#include "core/framework/pipeline.hpp"
#include "core/history/history.hpp"
#include "core/infer/changepoint_edm.hpp"
#include "core/util/rng.hpp"
#include "core/util/strings.hpp"
#include "core/util/table.hpp"

namespace {

using namespace rebench;

void BM_GateOverLongHistory(benchmark::State& state) {
  std::vector<PerfLogEntry> rows;
  Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    PerfLogEntry entry;
    entry.timestamp = "T" + std::to_string(i);
    entry.system = "archer2";
    entry.partition = "compute";
    entry.testName = "t";
    entry.fomName = "Triad";
    entry.value = 100.0 * rng.noiseFactor(0.01);
    entry.result = "pass";
    rows.push_back(entry);
  }
  const auto records = history::recordsFromPerflog(rows);
  for (auto _ : state) {
    benchmark::DoNotOptimize(history::checkRegression(records, {}));
  }
}
BENCHMARK(BM_GateOverLongHistory);

void reproduceCiScenario() {
  const SystemRegistry systems = builtinSystems();
  const PackageRepository repo = builtinRepository();
  Pipeline pipeline(systems, repo);

  const int kDays = 30;
  const int kDegradationDay = 20;
  std::vector<PerfLogEntry> rows;
  std::vector<int> dayOfRow;
  std::string csd3Target;

  AsciiTable alarms("CI gate alarms over 30 nightly runs:");
  alarms.setHeader({"series", "day", "latest", "baseline", "delta"});
  std::vector<std::pair<std::string, int>> raised;  // (series, day)
  for (int day = 0; day < kDays; ++day) {
    for (const char* target : {"archer2", "csd3", "noctua2"}) {
      babelstream::BabelstreamTestOptions options;
      options.model = "omp";
      options.ntimes = 20;
      PerfLog log;
      const TestRunResult result = pipeline.runOne(
          babelstream::makeBabelstreamTest(options), target, &log);
      if (!result.passed) continue;
      for (const std::string& line : log.lines()) {
        PerfLogEntry entry = PerfLogEntry::parse(line);
        if (entry.fomName != "Triad") continue;
        entry.timestamp = "day" + std::to_string(day);
        // Day-to-day machine-room noise...
        Rng noise = Rng::fromKey("ci:" + std::string(target) + ":" +
                                 std::to_string(day));
        entry.value *= noise.noiseFactor(0.012);
        // ...and csd3's silent degradation after its maintenance window.
        if (std::string(target) == "csd3") {
          csd3Target = entry.system + ":" + entry.partition;
          if (day >= kDegradationDay) entry.value *= 0.88;
        }
        rows.push_back(std::move(entry));
        dayOfRow.push_back(day);
      }
    }
    // Tonight's gate: the newest record of each series against the
    // rolling baseline of the nights before it.
    for (const history::GateResult& verdict :
         history::checkRegression(history::recordsFromPerflog(rows), {})) {
      if (!verdict.regression) continue;
      raised.emplace_back(verdict.series, day);
      alarms.addRow({verdict.series, std::to_string(day),
                     str::fixed(verdict.latest, 0),
                     str::fixed(verdict.baseline, 0),
                     str::fixed(verdict.delta * 100.0, 1) + "%"});
    }
  }
  std::cout << "\n" << alarms.render();

  const std::vector<history::HistoryRecord> records =
      history::recordsFromPerflog(rows);
  const std::string csd3Series = "BabelstreamTest_omp|" + csd3Target + "|Triad";
  const auto firstCsd3 =
      std::find_if(raised.begin(), raised.end(), [&](const auto& alarm) {
        return alarm.first == csd3Series;
      });
  const bool caught =
      firstCsd3 != raised.end() && firstCsd3->second == kDegradationDay;
  const auto falseAlarms =
      std::count_if(raised.begin(), raised.end(), [&](const auto& alarm) {
        return alarm.first != csd3Series;
      });
  std::cout << "\nInjected 12% degradation on csd3 at day "
            << kDegradationDay << ": "
            << (caught ? "DETECTED on the first degraded run"
                       : "NOT DETECTED")
            << "; other systems raised " << falseAlarms
            << " false alarms.\n";

  std::cout << "\nEDM changepoints over " << kDays << " nights:\n";
  for (const auto& [key, series] : history::groupSeries(records)) {
    std::vector<double> means;
    for (const history::HistoryRecord& record : series) {
      means.push_back(record.mean);
    }
    std::cout << "  " << key << ":";
    const auto flags = infer::detectChangepointsEdm(means);
    if (flags.empty()) std::cout << " none";
    for (const infer::EdmChangepoint& flag : flags) {
      std::cout << " day " << dayOfRow[series[flag.index].seq] << " (median "
                << str::fixed(flag.medianBefore, 0) << " -> "
                << str::fixed(flag.medianAfter, 0) << ")";
    }
    std::cout << "\n";
  }

  std::cout << "\n"
            << history::renderHistory(
                   history::selectRecords(records, "", csd3Target), {});
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  reproduceCiScenario();
  return 0;
}
