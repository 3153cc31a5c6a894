// Wall-clock layer tracing for the end-to-end benchmark.
//
// The benchmark cannot see inside the program, so it records a span
// around every call it makes into a layer's public functions: an
// obs::Tracer on an obs::WallClock, one root span per op, one child per
// call.  A span is named "<layer>.<call>" and carries the op id plus the
// /proc/self/io write deltas of the call.  Payload bodies can run on
// executor workers (--jobs above 1), where the single-threaded tracer
// cannot follow, so their busy intervals go to a side table and count as
// children of the framework.campaign span they fall in.
//
// A layer's self time is the time its spans cover minus the part their
// children cover; summarize() turns the spans into the per-layer
// metrics and self-time table the benchmark reports.
#pragma once

#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/obs/trace.hpp"
#include "sysprobe.hpp"

namespace rebench::e2e {

class LayerTrace;

/// RAII span around one call into a layer.  Null-trace safe: with a null
/// LayerTrace every operation is a no-op, so one code path serves the
/// untraced and the traced run.
class Span {
 public:
  Span(LayerTrace* trace, std::string_view name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void attr(std::string_view key, std::string_view value);

 private:
  LayerTrace* trace_;
  obs::ScopedSpan span_;
  IoCounters before_;
};

/// One row of the self-time table.
struct SelfTimeRow {
  std::string layer;
  double msPerOp = 0.0;
  double share = 0.0;  // of the traced timed phases
};

struct LayerSummary {
  std::map<std::string, double> metrics;  // per-layer metric name -> value
  std::vector<SelfTimeRow> selfTime;      // descending by msPerOp
};

class LayerTrace {
 public:
  LayerTrace();

  obs::Tracer& tracer() { return tracer_; }
  /// Seconds on the tracer's wall clock; safe from any thread.
  double now() const { return tracer_.clock().peek(); }

  /// The op id every span opened from now on carries.
  void setOp(std::string op) { op_ = std::move(op); }
  const std::string& op() const { return op_; }

  /// Timed phase boundaries; `ops` completed in the phase.
  void beginPhase();
  void endPhase(int ops);

  /// Busy interval of one payload body (thread-safe).
  void notePayload(const std::string& family, double start, double end);
  /// Thread count seen as a payload starts (thread-safe).  The peak over
  /// these samples is a lower bound on the process's: it sees executor
  /// and kernel-pool workers, and the rank threads of payloads already
  /// running, but not those of the payload about to start.
  void noteThreads(int threads);
  int peakThreads() const;

  /// Adds to a counter reported per op (e.g. "store.index_lines").
  void count(const std::string& name, double value) { counters_[name] += value; }

  /// Per-layer metrics (per op unless a ratio) plus the self-time table.
  /// `overheadRatio` is the traced/untraced wall ratio measured by the
  /// caller; `diskKbPerOp` the store+queue growth per op.
  LayerSummary summarize(double overheadRatio, double diskKbPerOp) const;

  /// Writes the spans as a rebench trace (JSONL) for `rebench
  /// trace-report`.
  void write(const std::string& path) const { tracer_.writeFile(path); }

 private:
  struct Interval {
    std::string family;
    double start = 0.0;
    double end = 0.0;
  };

  obs::Tracer tracer_;
  std::string op_;
  std::vector<std::pair<double, double>> phases_;
  double phaseStart_ = 0.0;
  int ops_ = 0;
  mutable std::mutex payloadMutex_;
  std::vector<Interval> payloads_;  // guarded by payloadMutex_
  int peakThreads_ = 1;             // guarded by payloadMutex_
  std::map<std::string, double> counters_;
};

/// Segment reads the store recorded in its index from byte `offset` on
/// (every verified read appends a touch record).
int countTouches(const std::string& indexPath, std::uint64_t offset);

/// Runs a history-layer call inside span `name`.  With a trace it also
/// counts the segment reads the call made, in a bench.probe span so the
/// counting is not charged to any layer.
template <class Call>
void historyCall(LayerTrace* trace, std::string_view name,
                 const std::string& indexPath, Call&& call) {
  if (trace == nullptr) {
    call();
    return;
  }
  const std::uint64_t offset = fileSize(indexPath);
  {
    Span span(trace, name);
    call();
  }
  Span probe(trace, "bench.probe");
  trace->count("history.segments_read", countTouches(indexPath, offset));
}

}  // namespace rebench::e2e
