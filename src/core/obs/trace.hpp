// Span-based tracer (rebench::obs).
//
// One Tracer covers one pipeline invocation.  Spans form a tree with
// hierarchical, deterministic ids ("1", "1.2", "1.2.1"); events are
// point-in-time records attached to the innermost open span.  Time comes
// from a TraceClock — simulated (deterministic) for modelled runs, wall
// for native ones — so a trace of a simulated run is byte-identical
// across repeats.
//
// Serialization is schema-versioned JSONL: a meta line followed by one
// record per line in emission order (spans are emitted when they *end*,
// events when they occur, metrics at the end), which makes the record
// timestamps monotone — a property `tools/trace_lint` checks.
#pragma once

#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/obs/clock.hpp"
#include "core/obs/metrics.hpp"

namespace rebench::obs {

/// Trace schema identifier; bump the suffix on breaking record changes.
inline constexpr std::string_view kTraceSchema = "rebench.trace/1";

using AttrMap = std::map<std::string, std::string>;

/// A completed span.
struct SpanRecord {
  std::string id;      // hierarchical: "1", "1.2", "1.2.1", ...
  std::string parent;  // empty for roots
  std::string name;
  double start = 0.0;
  double end = 0.0;
  AttrMap attrs;

  double duration() const { return end - start; }
};

/// A point-in-time occurrence inside (or outside) a span.
struct EventRecord {
  std::string span;  // owning span id; empty when none was open
  std::string name;
  double time = 0.0;
  AttrMap attrs;
};

class Tracer {
 public:
  /// Defaults to a deterministic SimClock; pass a WallClock for native
  /// runs where host durations are wanted.
  explicit Tracer(std::unique_ptr<TraceClock> clock = nullptr);

  TraceClock& clock() { return *clock_; }
  const TraceClock& clock() const { return *clock_; }

  /// Opens a child of the innermost open span (or a new root) and returns
  /// its id.
  std::string beginSpan(std::string name);
  /// Sets an attribute on the innermost open span.
  void setAttr(std::string_view key, std::string_view value);
  /// Sets an attribute on a specific *open* span (ancestors included).
  void setAttrOn(std::string_view id, std::string_view key,
                 std::string_view value);
  /// Closes the innermost open span; returns the completed record.
  const SpanRecord& endSpan();

  /// Sets an attribute on a *completed* span (by id).  Post-hoc
  /// annotation is how the campaign executor stamps schedule-derived
  /// attributes (e.g. the canonical `lane`) that are only known once
  /// every campaign's duration is — call before serialization.  Throws
  /// InternalError when no completed span has that id.
  void annotateCompleted(std::string_view id, std::string_view key,
                         std::string_view value);

  /// Records an event now, attached to the innermost open span.
  void event(std::string name, AttrMap attrs = {});
  /// Records an event at (no earlier than) `time` — used by components
  /// with their own simulated timeline, e.g. the scheduler.  Advances the
  /// clock so later records stay monotone.
  void eventAt(double time, std::string name, AttrMap attrs = {});

  /// Splices a completed shard trace (all spans ended) into this tracer:
  /// the shard's roots are renumbered to follow ours, every record's time
  /// is offset by our current clock position, and our clock advances past
  /// the shard's end.  Absorbing shards in a canonical order therefore
  /// yields bytes independent of the order they were *recorded* in —
  /// the deterministic-merge primitive of the parallel campaign executor.
  /// Requires no open spans on either tracer.
  void absorb(const Tracer& shard);

  std::size_t openSpans() const { return stack_.size(); }
  /// Id of the innermost open span; empty when none is open.
  std::string currentSpanId() const;

  const std::vector<SpanRecord>& spans() const { return spans_; }
  const std::vector<EventRecord>& events() const { return events_; }

  // ---- JSONL serialization ----------------------------------------------
  /// Writes the trace (meta line, records in emission order, then the
  /// metrics dump when `metrics` is non-null).  Open spans are not
  /// written; end them first.
  void writeJsonl(std::ostream& out,
                  const MetricsRegistry* metrics = nullptr) const;
  std::string toJsonl(const MetricsRegistry* metrics = nullptr) const;
  /// Publishes the trace at `path` whole (writeFileAtomic): readers see
  /// the old file or the new one.  Throws rebench::Error on I/O failure.
  void writeFile(const std::string& path,
                 const MetricsRegistry* metrics = nullptr) const;

 private:
  struct OpenSpan {
    SpanRecord record;
    int childCount = 0;
  };
  // One entry per serialized line, in emission order: index into spans_
  // (kind==kSpan) or events_ (kind==kEvent).
  struct Emitted {
    enum class Kind { kSpan, kEvent } kind;
    std::size_t index;
  };

  std::unique_ptr<TraceClock> clock_;
  std::vector<OpenSpan> stack_;
  int rootCount_ = 0;
  std::vector<SpanRecord> spans_;    // completed, in end order
  std::vector<EventRecord> events_;  // in occurrence order
  std::vector<Emitted> emitted_;
};

/// RAII span guard, null-tracer safe: every operation is a no-op when the
/// tracer is null, so instrumented code needs no branches.
class ScopedSpan {
 public:
  /// When `durationHistogram` is non-null the span's duration is observed
  /// into it at end time.
  ScopedSpan(Tracer* tracer, std::string name,
             Histogram* durationHistogram = nullptr);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Sets an attribute on this span (valid while it is innermost).
  void attr(std::string_view key, std::string_view value);
  /// Ends the span early (idempotent).
  void end();

  const std::string& id() const { return id_; }

 private:
  Tracer* tracer_;
  Histogram* hist_;
  std::string id_;
  bool ended_ = false;
};

}  // namespace rebench::obs
