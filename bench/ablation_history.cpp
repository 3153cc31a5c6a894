// Experiment E16 (extension) — longitudinal performance history.
//
// A synthetic 100k-record history (1000 hash-chained segments of 100
// records each, 4 interleaved FOM series with a seeded mean shift at
// 60%) is pushed through the history subsystem end to end: segment
// serialization/parse, store-backed append (put + head-ref
// compare-and-swap), full-chain query, and the EDM changepoint scan that
// marks the trend view and justifies the gate.  The microbenchmarks
// quantify per-stage cost; reproduceAblation() checks the invariants
// `rebench history` rests on — global sequence numbers stay monotone and
// the seeded regime shift is flagged once, at its point — then writes
// BENCH_history.json, the first point of the repo's perf trajectory
// (ROADMAP item 4).
#include <benchmark/benchmark.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/history/history.hpp"
#include "core/infer/changepoint_edm.hpp"
#include "core/store/object_store.hpp"
#include "core/util/strings.hpp"

namespace {

using namespace rebench;
namespace fs = std::filesystem;

constexpr int kSegments = 1000;
constexpr int kRecordsPerSegment = 100;
constexpr int kSeries = 4;
constexpr int kTotalRecords = kSegments * kRecordsPerSegment;
// Global record index where every series' mean drops from ~100 to ~80.
constexpr int kShiftAt = (kTotalRecords / kSeries) * 6 / 10;

/// Deterministic synthetic records: 4 series round-robin, small
/// in-regime wobble, one seeded mean shift per series.
std::vector<history::HistoryRecord> syntheticSegment(int segment) {
  std::vector<history::HistoryRecord> records;
  records.reserve(kRecordsPerSegment);
  for (int i = 0; i < kRecordsPerSegment; ++i) {
    const int global = segment * kRecordsPerSegment + i;
    const int series = global % kSeries;
    const int point = global / kSeries;
    history::HistoryRecord record;
    record.test = "E16Synthetic" + std::to_string(series);
    record.target = "archer2:compute";
    record.fom = "Triad";
    record.manifestHash = "0123456789abcdef";
    record.envFingerprint = "fedcba9876543210";
    record.specHash = "00ff00ff00ff00ff";
    const double base = point < kShiftAt ? 100.0 : 80.0;
    record.mean = base + 0.1 * static_cast<double>(point % 7);
    record.min = record.mean - 0.5;
    record.max = record.mean + 0.5;
    record.repeats = 3;
    record.simTimestamp = static_cast<double>(global) * 12.5;
    records.push_back(std::move(record));
  }
  return records;
}

/// Scratch store directory, wiped on (re)use.
std::string scratchDir(const std::string& suffix) {
  const fs::path dir =
      fs::temp_directory_path() / ("rebench-bench-history-" + suffix);
  fs::remove_all(dir);
  return dir.string();
}

void BM_SerializeSegment(benchmark::State& state) {
  const auto records = syntheticSegment(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(history::serializeSegment(records, "", 0, 0));
  }
}
BENCHMARK(BM_SerializeSegment);

void BM_ParseSegment(benchmark::State& state) {
  const std::string blob =
      history::serializeSegment(syntheticSegment(0), "", 0, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(history::parseSegment(blob));
  }
}
BENCHMARK(BM_ParseSegment);

void BM_AppendSegment(benchmark::State& state) {
  store::ObjectStore store(scratchDir("append"));
  history::HistoryIndex index(store);
  int segment = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        index.appendSegment(syntheticSegment(segment++ % kSegments)));
  }
}
BENCHMARK(BM_AppendSegment)->Unit(benchmark::kMillisecond);

void BM_Changepoint(benchmark::State& state) {
  std::vector<double> series;
  series.reserve(kTotalRecords / kSeries);
  for (int point = 0; point < kTotalRecords / kSeries; ++point) {
    const double base = point < kShiftAt ? 100.0 : 80.0;
    series.push_back(base + 0.1 * static_cast<double>(point % 7));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(infer::detectChangepointsEdm(series));
  }
}
BENCHMARK(BM_Changepoint)->Unit(benchmark::kMillisecond);

void reproduceAblation() {
  using Clock = std::chrono::steady_clock;
  int passed = 0;
  int failed = 0;
  auto check = [&](bool ok, const std::string& what) {
    std::cout << (ok ? "PASS" : "FAIL") << ": " << what << "\n";
    (ok ? passed : failed) += 1;
  };

  const std::string dir = scratchDir("ablation");
  store::ObjectStore store(dir);
  history::HistoryIndex index(store);

  const auto appendStart = Clock::now();
  for (int segment = 0; segment < kSegments; ++segment) {
    index.appendSegment(syntheticSegment(segment));
  }
  const double appendSeconds =
      std::chrono::duration<double>(Clock::now() - appendStart).count();

  const auto queryStart = Clock::now();
  const auto all = index.readAll();
  const auto one = index.query("E16Synthetic0");
  const double querySeconds =
      std::chrono::duration<double>(Clock::now() - queryStart).count();

  bool monotone = all.size() == kTotalRecords;
  for (std::size_t i = 0; i < all.size(); ++i) {
    monotone = monotone && all[i].seq == i;
  }
  check(monotone, "100k records read back with monotone global sequence");
  check(one.size() == kTotalRecords / kSeries,
        "per-series query returns exactly its " +
            std::to_string(kTotalRecords / kSeries) + " records");

  std::vector<double> means;
  means.reserve(one.size());
  for (const auto& record : one) means.push_back(record.mean);
  const auto cpStart = Clock::now();
  const auto flags = infer::detectChangepointsEdm(means);
  const double cpSeconds =
      std::chrono::duration<double>(Clock::now() - cpStart).count();
  check(flags.size() == 1 && flags[0].index == kShiftAt &&
            flags[0].medianAfter < flags[0].medianBefore,
        "seeded mean shift at point " + std::to_string(kShiftAt) +
            " is the one EDM changepoint");

  std::ofstream out("BENCH_history.json");
  out << "{\"schema\":\"rebench.bench_history/1\","
      << "\"records\":" << kTotalRecords << ","
      << "\"segments\":" << kSegments << ","
      << "\"series\":" << kSeries << ","
      << "\"append_records_per_s\":"
      << str::fixed(kTotalRecords / appendSeconds, 1) << ","
      << "\"query_records_per_s\":"
      << str::fixed((all.size() + one.size()) / querySeconds, 1) << ","
      << "\"changepoint_points_per_s\":"
      << str::fixed(means.size() / cpSeconds, 1) << ","
      << "\"checks_passed\":" << passed << ","
      << "\"checks_failed\":" << failed << "}\n";
  std::cout << "BENCH_history.json written (append "
            << str::fixed(kTotalRecords / appendSeconds, 0)
            << " rec/s, query "
            << str::fixed((all.size() + one.size()) / querySeconds, 0)
            << " rec/s, changepoint "
            << str::fixed(means.size() / cpSeconds, 0) << " pts/s).\n";

  fs::remove_all(dir);
  fs::remove_all(scratchDir("append"));
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  reproduceAblation();
  return 0;
}
