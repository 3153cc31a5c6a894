#include "report.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <iomanip>
#include <map>
#include <ostream>
#include <sstream>

#include "core/obs/json.hpp"
#include "core/util/error.hpp"

namespace rebench::e2e {

namespace {

struct LayerMetricSpec {
  const char* name;
  const char* unit;
  const char* better;
};

// Per-layer metrics, in report order.  Times and counts are per op.
constexpr LayerMetricSpec kLayerMetrics[] = {
    {"service.queue_scan_ms", "ms", "lower"},
    {"service.queue_files_parsed", "count", "lower"},
    {"service.health_ms", "ms", "lower"},
    {"service.journal_ms", "ms", "lower"},
    {"service.journal_appends", "count", "lower"},
    {"service.verdict_write_ms", "ms", "lower"},
    {"service.run_key_ms", "ms", "lower"},
    {"service.self_ms", "ms", "lower"},
    {"store.open_ms", "ms", "lower"},
    {"store.index_lines", "count", "lower"},
    {"store.runcache_lookup_ms", "ms", "lower"},
    {"store.runcache_hit_ratio", "ratio", "higher"},
    {"store.runcache_insert_ms", "ms", "lower"},
    {"store.manifest_write_ms", "ms", "lower"},
    {"store.build_cache_hit_ratio", "ratio", "higher"},
    {"service.write_kb", "KB", "lower"},
    {"store.write_kb", "KB", "lower"},
    {"history.write_kb", "KB", "lower"},
    {"service.write_syscalls", "count", "lower"},
    {"store.write_syscalls", "count", "lower"},
    {"history.write_syscalls", "count", "lower"},
    {"history.append_ms", "ms", "lower"},
    {"history.gate_ms", "ms", "lower"},
    {"history.segments_read", "count", "lower"},
    {"history.query_ms", "ms", "lower"},
    {"infer.check_ms", "ms", "lower"},
    {"framework.campaign_ms", "ms", "lower"},
    {"framework.self_ms", "ms", "lower"},
    {"framework.runs", "count", "lower"},
    {"framework.deduped_builds", "count", "higher"},
    {"babelstream.payload_ms", "ms", "lower"},
    {"hpcg.payload_ms", "ms", "lower"},
    {"hpgmg.payload_ms", "ms", "lower"},
    {"osu.payload_ms", "ms", "lower"},
    {"bench.trace_overhead_ratio", "ratio", "lower"},
    {"bench.span_coverage", "ratio", "higher"},
    {"bench.disk_kb_per_op", "KB/op", "lower"},
    {"bench.peak_threads", "count", "lower"},
};

/// Least shift of setup_s that counts, whatever its bound: start-ups of a
/// few milliseconds or less move by more than any share between runs.
constexpr double kSetupFloorS = 0.005;

/// Shortest round-trip rendering: every digit as measured.
std::string num(double value) {
  if (!std::isfinite(value)) throw Error("non-finite metric value");
  char buffer[32];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof buffer, value);
  return std::string(buffer, end);
}

Metric spread(const char* name, const char* unit, const char* better,
              const std::vector<double>& values) {
  return {name,
          unit,
          better,
          percentile(values, 0.5),
          percentile(values, 0.25),
          percentile(values, 0.75),
          values.size(),
          values};
}

/// Ungated extras.  The timings move with the host more than any bound
/// the benchmark may set: on a 4-vCPU VM shared with other tenants, ten
/// runs of the same code spread latency_p50_ms by up to 47% of its
/// median (README, "Stability and run time").  Every timing is the
/// median of per-repetition values, so a repetition that meets a slow
/// stretch is outvoted; a stretch longer than the run is not.
/// fail_ratio is zero on a correct run, and disk growth may legitimately
/// reach zero on a read path.
std::vector<Metric> extraMetrics(const WorkloadResult& result) {
  const double attempted = std::max(1, result.attempted);
  Metric fail{"fail_ratio", "ratio", "lower", result.failed / attempted,
              0.0, 0.0, static_cast<std::size_t>(result.attempted), {}};
  fail.q1 = fail.q3 = fail.value;
  return {spread("ops_per_s", "ops/s", "higher", result.opsPerS),
          spread("latency_p50_ms", "ms", "lower", result.p50Ms),
          spread("latency_p95_ms", "ms", "lower", result.p95Ms),
          fail,
          spread("disk_kb_per_op", "KB/op", "lower", result.diskKbPerOp)};
}

void printMetric(std::ostream& out, const Metric& metric) {
  out << "  " << std::left << std::setw(30) << metric.name << std::right
      << std::setw(14) << std::setprecision(6) << metric.value << " "
      << std::left << std::setw(6) << metric.unit << std::right;
  if (metric.n > 1) {
    out << " [q1 " << std::setprecision(6) << metric.q1 << ", q3 "
        << metric.q3 << "; n=" << metric.n << "]";
  }
  out << "\n";
}

void metricJson(std::ostream& out, const Metric& metric) {
  out << obs::json::quote(metric.name) << ":{\"unit\":"
      << obs::json::quote(metric.unit) << ",\"better\":"
      << obs::json::quote(metric.better) << ",\"median\":" << num(metric.value)
      << ",\"q1\":" << num(metric.q1) << ",\"q3\":" << num(metric.q3)
      << ",\"n\":" << metric.n << ",\"values\":[";
  for (std::size_t i = 0; i < metric.values.size(); ++i) {
    out << (i > 0 ? "," : "") << num(metric.values[i]);
  }
  out << "]}";
}

std::string fixed(double value, int digits) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(digits) << value;
  return out.str();
}

}  // namespace

std::vector<Metric> endToEndMetrics(const WorkloadResult& result) {
  // The gated metrics: the I/O an op costs, which the program alone
  // decides, plus start-up time and memory.
  return {spread("read_kb_per_op", "KB/op", "lower", result.readKbPerOp),
          spread("write_kb_per_op", "KB/op", "lower", result.writeKbPerOp),
          spread("setup_s", "s", "lower", result.setupS),
          spread("peak_rss_mb", "MB", "lower", result.peakRssMb)};
}

std::vector<Metric> perLayerMetrics(const WorkloadResult& result) {
  std::vector<Metric> metrics;
  for (const LayerMetricSpec& spec : kLayerMetrics) {
    const double value = result.layers.metrics.at(spec.name);
    metrics.push_back(
        {spec.name, spec.unit, spec.better, value, value, value, 1, {value}});
  }
  return metrics;
}

void printReport(std::ostream& out, const WorkloadResult& result) {
  out << "== " << result.name << ": " << result.reps << " repetition(s), "
      << result.attempted << " op(s) attempted, " << result.failed
      << " failed; set-up took " << fixed(result.setUpSeconds, 2) << " s\n";
  for (const Metric& metric : endToEndMetrics(result)) printMetric(out, metric);
  for (const Metric& metric : extraMetrics(result)) printMetric(out, metric);
  if (result.traced) {
    out << " per-layer (traced run, per op):\n";
    for (const Metric& metric : perLayerMetrics(result)) {
      printMetric(out, metric);
    }
    out << " self time per op:\n";
    for (const SelfTimeRow& row : result.layers.selfTime) {
      out << "  " << std::left << std::setw(14) << row.layer << std::right
          << std::setw(12) << fixed(row.msPerOp, 4) << " ms"
          << std::setw(8) << fixed(row.share * 100.0, 1) << "%\n";
    }
  }
  for (const std::string& why : result.failures) {
    out << "  CHECK FAILED: " << why << "\n";
  }
  out << " checks: " << (result.failed == 0 ? "pass" : "FAIL") << "\n";
}

std::string summaryLine(const std::vector<WorkloadResult>& results) {
  int attempted = 0;
  int failed = 0;
  std::ostringstream metrics;
  bool first = true;
  for (const WorkloadResult& result : results) {
    attempted += result.attempted;
    failed += result.failed;
    const std::string prefix = results.size() > 1 ? result.name + "." : "";
    for (const Metric& metric : result.traced ? perLayerMetrics(result)
                                              : endToEndMetrics(result)) {
      metrics << (first ? "" : ",") << obs::json::quote(prefix + metric.name)
              << ":{\"value\":" << num(metric.value)
              << ",\"unit\":" << obs::json::quote(metric.unit) << "}";
      first = false;
    }
  }
  std::ostringstream out;
  out << "{\"correct\":" << (failed == 0 ? "true" : "false")
      << ",\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",\"metrics\":{" << metrics.str() << "}}";
  return out.str();
}

std::string resultsJson(const std::vector<WorkloadResult>& results,
                        const Fingerprint& fp, std::uint64_t seed) {
  std::ostringstream out;
  out << "{\"schema\":" << obs::json::quote(kResultsSchema)
      << ",\"fingerprint\":{\"nproc\":" << fp.nproc
      << ",\"cpu_model\":" << obs::json::quote(fp.cpuModel)
      << ",\"kernel\":" << obs::json::quote(fp.kernel)
      << ",\"filesystem\":" << obs::json::quote(fp.filesystem)
      << ",\"compiler\":" << obs::json::quote(fp.compiler)
      << ",\"build_type\":" << obs::json::quote(fp.buildType)
      << ",\"git_commit\":" << obs::json::quote(fp.gitCommit)
      << ",\"seed\":" << seed << "},\"runs\":1,\"workloads\":{";
  for (std::size_t w = 0; w < results.size(); ++w) {
    const WorkloadResult& result = results[w];
    out << (w > 0 ? "," : "") << obs::json::quote(result.name)
        << ":{\"attempted\":" << result.attempted
        << ",\"failed\":" << result.failed
        << ",\"repetitions\":" << result.reps << ",\"metrics\":{";
    std::vector<Metric> metrics = endToEndMetrics(result);
    for (const Metric& extra : extraMetrics(result)) metrics.push_back(extra);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      if (i > 0) out << ",";
      metricJson(out, metrics[i]);
    }
    out << "}";
    if (result.traced) {
      out << ",\"per_layer\":{";
      const std::vector<Metric> layers = perLayerMetrics(result);
      for (std::size_t i = 0; i < layers.size(); ++i) {
        if (i > 0) out << ",";
        metricJson(out, layers[i]);
      }
      out << "},\"self_time\":{";
      for (std::size_t i = 0; i < result.layers.selfTime.size(); ++i) {
        const SelfTimeRow& row = result.layers.selfTime[i];
        out << (i > 0 ? "," : "") << obs::json::quote(row.layer)
            << ":{\"ms_per_op\":" << num(row.msPerOp)
            << ",\"share\":" << num(row.share) << "}";
      }
      out << "}";
    }
    out << "}";
  }
  out << "}}\n";
  return out.str();
}

int checkAgainst(std::ostream& out, const std::string& baselinePath,
                 const std::string& candidatePath,
                 const std::string& benchmarkJsonPath) {
  const obs::json::Value bench = obs::json::parse(readFile(benchmarkJsonPath));
  const obs::json::Value base = obs::json::parse(readFile(baselinePath));
  const obs::json::Value cand = obs::json::parse(readFile(candidatePath));
  for (const obs::json::Value* doc : {&base, &cand}) {
    if (doc->stringOr("schema", "") != kResultsSchema) {
      throw Error("results file is not " + std::string(kResultsSchema));
    }
  }
  auto cell = [](const obs::json::Value& m) {
    return fixed(m.at("median").number, 4) + " [" +
           fixed(m.at("q1").number, 4) + ", " + fixed(m.at("q3").number, 4) +
           "]";
  };
  auto spreadOf = [](const obs::json::Value& m) {
    return m.at("q3").number - m.at("q1").number;
  };
  auto valuesOf = [](const obs::json::Value& m) {
    std::vector<double> values;
    for (const obs::json::Value& v : m.at("values").array) {
      values.push_back(v.number);
    }
    return values;
  };
  // Every candidate value better than every baseline value.
  auto allBetter = [&](const obs::json::Value& b, const obs::json::Value& c,
                       bool higherBetter) {
    const std::vector<double> bv = valuesOf(b);
    const std::vector<double> cv = valuesOf(c);
    if (bv.empty() || cv.empty()) return false;
    return higherBetter
               ? *std::min_element(cv.begin(), cv.end()) >
                     *std::max_element(bv.begin(), bv.end())
               : *std::max_element(cv.begin(), cv.end()) <
                     *std::min_element(bv.begin(), bv.end());
  };
  out << std::left << std::setw(15) << "workload" << std::setw(16) << "metric"
      << std::setw(34) << "baseline median [q1, q3]" << std::setw(34)
      << "candidate median [q1, q3]" << std::setw(9) << "delta"
      << "verdict\n";
  std::map<std::string, double> bounds;  // gated metric -> bound
  for (const obs::json::Value& spec : bench.at("end_to_end").array) {
    bounds[spec.at("name").text] = spec.at("bound").number;
  }
  int worse = 0;
  int unresolved = 0;
  for (const auto& [workload, baseWorkload] : base.at("workloads").object) {
    if (!cand.at("workloads").contains(workload)) continue;
    const obs::json::Value& candWorkload = cand.at("workloads").at(workload);
    for (const auto& [name, b] : baseWorkload.at("metrics").object) {
      if (!candWorkload.at("metrics").contains(name)) continue;
      const obs::json::Value& c = candWorkload.at("metrics").at(name);
      const double b0 = b.at("median").number;
      const double c0 = c.at("median").number;
      const double delta = b0 != 0.0 ? (c0 - b0) / b0 : 0.0;
      const bool higherBetter = b.at("better").text == "higher";
      std::string verdict = "ungated";
      if (const auto bound = bounds.find(name); bound != bounds.end()) {
        // The shift the metric may make in the bad direction, which is
        // also the widest quartile spread that can resolve it.
        double allowed = bound->second * std::fabs(b0);
        if (name == "setup_s") allowed = std::max(allowed, kSetupFloorS);
        const double worsening = higherBetter ? b0 - c0 : c0 - b0;
        verdict = "within";
        if (worsening > allowed) {
          verdict = "worse";
          ++worse;
        } else if ((spreadOf(b) > allowed || spreadOf(c) > allowed) &&
                   !allBetter(b, c, higherBetter)) {
          verdict = "unresolved";
          ++unresolved;
        }
      }
      out << std::left << std::setw(15) << workload << std::setw(16) << name
          << std::setw(34) << cell(b) << std::setw(34) << cell(c)
          << std::setw(9) << (fixed(delta * 100.0, 1) + "%") << verdict
          << "\n";
    }
  }
  out << worse << " worse, " << unresolved << " unresolved\n";
  return worse > 0 ? 1 : 0;
}

}  // namespace rebench::e2e
