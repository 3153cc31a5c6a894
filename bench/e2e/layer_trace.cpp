#include "layer_trace.hpp"

#include <algorithm>
#include <fstream>
#include <memory>
#include <unordered_map>

#include "core/obs/clock.hpp"

namespace rebench::e2e {

namespace {

using Intervals = std::vector<std::pair<double, double>>;

/// Length of the union of `intervals` clipped to [lo, hi].
double unionLength(Intervals intervals, double lo, double hi) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double cursor = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, cursor);
    end = std::min(end, hi);
    if (end > start) {
      covered += end - start;
      cursor = end;
    }
  }
  return covered;
}

std::string_view layerOf(std::string_view name) {
  return name.substr(0, name.find('.'));
}

std::uint64_t attrNumber(const obs::SpanRecord& span, const std::string& key) {
  const auto it = span.attrs.find(key);
  return it == span.attrs.end() ? 0 : std::stoull(it->second);
}

}  // namespace

Span::Span(LayerTrace* trace, std::string_view name)
    : trace_(trace),
      span_(trace != nullptr ? &trace->tracer() : nullptr, std::string(name)) {
  if (trace_ == nullptr) return;
  span_.attr("op", trace_->op());
  before_ = readIo();
}

Span::~Span() {
  if (trace_ == nullptr) return;
  const IoCounters after = readIo();
  span_.attr("wchar", std::to_string(after.wchar - before_.wchar));
  span_.attr("syscw", std::to_string(after.syscw - before_.syscw));
  span_.end();
}

void Span::attr(std::string_view key, std::string_view value) {
  span_.attr(key, value);
}

int countTouches(const std::string& indexPath, std::uint64_t offset) {
  std::ifstream in(indexPath, std::ios::binary);
  in.seekg(static_cast<std::streamoff>(offset));
  int touches = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"kind\":\"touch\"") != std::string::npos) ++touches;
  }
  return touches;
}

LayerTrace::LayerTrace() : tracer_(std::make_unique<obs::WallClock>()) {}

void LayerTrace::beginPhase() { phaseStart_ = now(); }

void LayerTrace::endPhase(int ops) {
  phases_.emplace_back(phaseStart_, now());
  ops_ += ops;
}

void LayerTrace::notePayload(const std::string& family, double start,
                             double end) {
  std::lock_guard lock(payloadMutex_);
  payloads_.push_back({family, start, end});
}

void LayerTrace::noteThreads(int threads) {
  std::lock_guard lock(payloadMutex_);
  peakThreads_ = std::max(peakThreads_, threads);
}

int LayerTrace::peakThreads() const {
  std::lock_guard lock(payloadMutex_);
  return peakThreads_;
}

LayerSummary LayerTrace::summarize(double overheadRatio,
                                   double diskKbPerOp) const {
  const std::vector<obs::SpanRecord>& spans = tracer_.spans();
  std::unordered_map<std::string, std::vector<std::size_t>> children;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (!spans[i].parent.empty()) children[spans[i].parent].push_back(i);
  }
  std::vector<Interval> payloads;
  {
    std::lock_guard lock(payloadMutex_);
    payloads = payloads_;
  }
  std::sort(payloads.begin(), payloads.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });

  std::map<std::string, double> totalMs;   // by span name
  std::map<std::string, double> calls;     // by span name
  std::map<std::string, double> selfMs;    // by layer
  std::map<std::string, double> writeKb;   // by layer, self
  std::map<std::string, double> writeCalls;
  double runcacheHits = 0.0;
  double queueFiles = 0.0;
  Intervals roots;
  for (const obs::SpanRecord& span : spans) {
    Intervals covered;
    std::uint64_t childWchar = 0;
    std::uint64_t childSyscw = 0;
    if (const auto it = children.find(span.id); it != children.end()) {
      for (std::size_t child : it->second) {
        covered.emplace_back(spans[child].start, spans[child].end);
        childWchar += attrNumber(spans[child], "wchar");
        childSyscw += attrNumber(spans[child], "syscw");
      }
    }
    if (span.name == "framework.campaign") {
      auto first = std::lower_bound(
          payloads.begin(), payloads.end(), span.start,
          [](const Interval& p, double t) { return p.start < t; });
      for (auto p = first; p != payloads.end() && p->start < span.end; ++p) {
        covered.emplace_back(p->start, p->end);
      }
    }
    const std::string layer(layerOf(span.name));
    totalMs[span.name] += span.duration() * 1e3;
    calls[span.name] += 1.0;
    selfMs[layer] +=
        (span.duration() - unionLength(covered, span.start, span.end)) * 1e3;
    const std::uint64_t wchar = attrNumber(span, "wchar");
    const std::uint64_t syscw = attrNumber(span, "syscw");
    writeKb[layer] +=
        static_cast<double>(wchar - std::min(wchar, childWchar)) / 1024.0;
    writeCalls[layer] +=
        static_cast<double>(syscw - std::min(syscw, childSyscw));
    if (span.name == "store.runcache_lookup" &&
        span.attrs.count("outcome") > 0 && span.attrs.at("outcome") == "hit") {
      runcacheHits += 1.0;
    }
    if (span.name == "service.queue_scan") {
      queueFiles += static_cast<double>(attrNumber(span, "files"));
    }
    if (span.parent.empty()) roots.emplace_back(span.start, span.end);
  }
  std::map<std::string, double> payloadMs;
  for (const Interval& p : payloads) {
    payloadMs[p.family] += (p.end - p.start) * 1e3;
  }

  double phaseSeconds = 0.0;
  double rootCovered = 0.0;
  for (const auto& [start, end] : phases_) {
    phaseSeconds += end - start;
    rootCovered += unionLength(roots, start, end);
  }
  const double ops = std::max(1, ops_);
  auto perOp = [&](const std::map<std::string, double>& table,
                   const std::string& key) {
    const auto it = table.find(key);
    return it == table.end() ? 0.0 : it->second / ops;
  };
  auto counter = [&](const std::string& key) { return perOp(counters_, key); };
  auto ratio = [](double part, double whole) {
    return whole > 0.0 ? part / whole : 0.0;
  };

  LayerSummary summary;
  std::map<std::string, double>& m = summary.metrics;
  m["service.queue_scan_ms"] = perOp(totalMs, "service.queue_scan");
  m["service.queue_files_parsed"] = queueFiles / ops;
  m["service.health_ms"] = perOp(totalMs, "service.health");
  m["service.journal_ms"] = perOp(totalMs, "service.journal");
  m["service.journal_appends"] = perOp(calls, "service.journal");
  m["service.verdict_write_ms"] = perOp(totalMs, "service.verdict_write");
  m["service.run_key_ms"] = perOp(totalMs, "service.run_key");
  m["service.self_ms"] = perOp(selfMs, "service");
  m["store.open_ms"] = perOp(totalMs, "store.open");
  m["store.index_lines"] = counter("store.index_lines");
  m["store.runcache_lookup_ms"] = perOp(totalMs, "store.runcache_lookup");
  const auto lookups = calls.find("store.runcache_lookup");
  m["store.runcache_hit_ratio"] =
      ratio(runcacheHits, lookups == calls.end() ? 0.0 : lookups->second);
  m["store.runcache_insert_ms"] = perOp(totalMs, "store.runcache_insert");
  m["store.manifest_write_ms"] = perOp(totalMs, "store.manifest_write");
  const auto hits = counters_.find("store.build_cache_hits");
  const auto misses = counters_.find("store.build_cache_misses");
  const double hitCount = hits == counters_.end() ? 0.0 : hits->second;
  const double missCount = misses == counters_.end() ? 0.0 : misses->second;
  m["store.build_cache_hit_ratio"] = ratio(hitCount, hitCount + missCount);
  for (const std::string layer : {"service", "store", "history"}) {
    m[layer + ".write_kb"] = perOp(writeKb, layer);
    m[layer + ".write_syscalls"] = perOp(writeCalls, layer);
  }
  m["history.append_ms"] = perOp(totalMs, "history.append_campaign");
  m["history.gate_ms"] = perOp(totalMs, "history.gate_campaign");
  m["history.segments_read"] = counter("history.segments_read");
  m["history.query_ms"] = perOp(totalMs, "history.index_query");
  m["infer.check_ms"] = perOp(totalMs, "infer.check_regression");
  m["framework.campaign_ms"] = perOp(totalMs, "framework.campaign");
  m["framework.self_ms"] = perOp(selfMs, "framework");
  m["framework.runs"] = counter("framework.runs");
  m["framework.deduped_builds"] = counter("framework.deduped_builds");
  for (const std::string family : {"babelstream", "hpcg", "hpgmg", "osu"}) {
    m[family + ".payload_ms"] = perOp(payloadMs, family);
  }
  m["bench.trace_overhead_ratio"] = overheadRatio;
  m["bench.span_coverage"] = ratio(rootCovered, phaseSeconds);
  m["bench.disk_kb_per_op"] = diskKbPerOp;
  m["bench.peak_threads"] = peakThreads();

  // Self-time table: span layers, payload busy time, and the phase time
  // no root span covers (the benchmark's own loop).
  const double phaseMsPerOp = phaseSeconds * 1e3 / ops;
  std::map<std::string, double> rows;
  for (const auto& [layer, ms] : selfMs) rows[layer] += ms / ops;
  for (const auto& [family, ms] : payloadMs) rows[family] += ms / ops;
  rows["bench"] += (phaseSeconds - rootCovered) * 1e3 / ops;
  for (const auto& [layer, ms] : rows) {
    summary.selfTime.push_back({layer, ms, ratio(ms, phaseMsPerOp)});
  }
  std::sort(summary.selfTime.begin(), summary.selfTime.end(),
            [](const SelfTimeRow& a, const SelfTimeRow& b) {
              return a.msPerOp > b.msPerOp;
            });
  return summary;
}

}  // namespace rebench::e2e
