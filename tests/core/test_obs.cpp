// The observability subsystem: clocks, spans, metrics, JSONL round-trip
// and the structural lint.
#include <gtest/gtest.h>

#include "core/obs/json.hpp"
#include "core/obs/metrics.hpp"
#include "core/obs/trace.hpp"
#include "core/obs/trace_reader.hpp"
#include "core/util/error.hpp"
#include "core/util/strings.hpp"

namespace rebench::obs {
namespace {

// ---- clocks --------------------------------------------------------------

TEST(SimClock, ReadingsAreStrictlyIncreasing) {
  SimClock clock;
  const double a = clock.now();
  const double b = clock.now();
  const double c = clock.now();
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
}

TEST(SimClock, PeekHasNoSideEffect) {
  SimClock clock;
  clock.advance(5.0);
  EXPECT_DOUBLE_EQ(clock.peek(), 5.0);
  EXPECT_DOUBLE_EQ(clock.peek(), 5.0);
}

TEST(SimClock, AdvanceToNeverStepsBackwards) {
  SimClock clock;
  clock.advance(10.0);
  clock.advanceTo(3.0);  // behind: no-op
  EXPECT_DOUBLE_EQ(clock.peek(), 10.0);
  clock.advanceTo(12.5);
  EXPECT_DOUBLE_EQ(clock.peek(), 12.5);
}

TEST(SimClock, IsDeterministicAndKindSim) {
  SimClock a, b;
  for (int i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(a.now(), b.now());
  EXPECT_TRUE(a.deterministic());
  EXPECT_EQ(a.kind(), "sim");
}

TEST(WallClock, AdvancesOnItsOwnAndIsNotDeterministic) {
  WallClock clock;
  EXPECT_FALSE(clock.deterministic());
  EXPECT_EQ(clock.kind(), "wall");
  const double a = clock.now();
  clock.advance(100.0);  // simulated seconds are ignored
  EXPECT_LT(clock.peek(), 50.0);
  EXPECT_GE(clock.now(), a);
}

// ---- spans ---------------------------------------------------------------

TEST(Tracer, HierarchicalIdsFollowNesting) {
  Tracer tracer;
  EXPECT_EQ(tracer.beginSpan("root"), "1");
  EXPECT_EQ(tracer.beginSpan("childA"), "1.1");
  tracer.endSpan();
  EXPECT_EQ(tracer.beginSpan("childB"), "1.2");
  EXPECT_EQ(tracer.beginSpan("grandchild"), "1.2.1");
  tracer.endSpan();
  tracer.endSpan();
  tracer.endSpan();
  EXPECT_EQ(tracer.beginSpan("second root"), "2");
  tracer.endSpan();
  EXPECT_EQ(tracer.openSpans(), 0u);

  ASSERT_EQ(tracer.spans().size(), 5u);
  // Spans land in end order; parents carry the hierarchical prefix.
  EXPECT_EQ(tracer.spans()[0].id, "1.1");
  EXPECT_EQ(tracer.spans()[0].parent, "1");
  EXPECT_EQ(tracer.spans()[1].id, "1.2.1");
  EXPECT_EQ(tracer.spans()[1].parent, "1.2");
  EXPECT_EQ(tracer.spans()[4].id, "2");
  EXPECT_EQ(tracer.spans()[4].parent, "");
}

TEST(Tracer, SpanTimesNestWithinParents) {
  Tracer tracer;
  tracer.beginSpan("outer");
  tracer.beginSpan("inner");
  tracer.clock().advance(2.0);
  tracer.endSpan();
  tracer.endSpan();
  const SpanRecord& inner = tracer.spans()[0];
  const SpanRecord& outer = tracer.spans()[1];
  EXPECT_GE(inner.start, outer.start);
  EXPECT_LE(inner.end, outer.end);
  EXPECT_GT(inner.duration(), 2.0 - 1e-9);
}

TEST(Tracer, SetAttrOnReachesAncestors) {
  Tracer tracer;
  tracer.beginSpan("outer");
  tracer.beginSpan("inner");
  tracer.setAttrOn("1", "outcome", "fail");
  tracer.setAttr("local", "yes");
  tracer.endSpan();
  tracer.endSpan();
  EXPECT_EQ(tracer.spans()[0].attrs.at("local"), "yes");
  EXPECT_EQ(tracer.spans()[1].attrs.at("outcome"), "fail");
  EXPECT_THROW(tracer.setAttrOn("1", "k", "v"), InternalError);  // closed
}

TEST(Tracer, EventsAttachToInnermostOpenSpan) {
  Tracer tracer;
  tracer.beginSpan("root");
  tracer.event("first");
  tracer.beginSpan("child");
  tracer.event("second", {{"key", "value"}});
  tracer.endSpan();
  tracer.endSpan();
  ASSERT_EQ(tracer.events().size(), 2u);
  EXPECT_EQ(tracer.events()[0].span, "1");
  EXPECT_EQ(tracer.events()[1].span, "1.1");
  EXPECT_EQ(tracer.events()[1].attrs.at("key"), "value");
}

TEST(Tracer, EventAtBehindClockStaysMonotone) {
  Tracer tracer;
  tracer.beginSpan("root");
  tracer.clock().advance(10.0);
  tracer.event("late");
  tracer.eventAt(2.0, "early-by-its-own-timeline");
  tracer.endSpan();
  EXPECT_GT(tracer.events()[1].time, tracer.events()[0].time);
}

TEST(ScopedSpan, RaiiEndsOnScopeExitAndIsNullSafe) {
  Tracer tracer;
  {
    ScopedSpan outer(&tracer, "outer");
    outer.attr("k", "v");
    { ScopedSpan inner(&tracer, "inner"); }
    EXPECT_EQ(tracer.openSpans(), 1u);
  }
  EXPECT_EQ(tracer.openSpans(), 0u);
  ASSERT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.spans()[1].attrs.at("k"), "v");

  // Null tracer: every operation is a no-op.
  ScopedSpan null(nullptr, "nothing");
  null.attr("k", "v");
  null.end();
  EXPECT_EQ(null.id(), "");
}

TEST(ScopedSpan, EndIsIdempotentAndObservesHistogram) {
  Tracer tracer;
  Histogram hist({1.0, 60.0});
  {
    ScopedSpan span(&tracer, "stage", &hist);
    tracer.clock().advance(5.0);
    span.end();
    span.end();  // idempotent
  }
  EXPECT_EQ(tracer.spans().size(), 1u);
  EXPECT_EQ(hist.count(), 1u);
  EXPECT_EQ(hist.counts()[1], 1u);  // 5 s lands in (1, 60]
}

// ---- metrics -------------------------------------------------------------

TEST(Metrics, CounterAccumulates) {
  Counter counter;
  counter.inc();
  counter.inc(4);
  EXPECT_EQ(counter.value(), 5u);
}

TEST(Metrics, GaugeTracksMaximum) {
  Gauge gauge;
  gauge.set(3.0);
  gauge.set(7.0);
  gauge.set(2.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 2.0);
  EXPECT_DOUBLE_EQ(gauge.max(), 7.0);
}

TEST(Metrics, HistogramBucketsAreInclusiveUpperBounds) {
  Histogram hist({1.0, 10.0, 100.0});
  ASSERT_EQ(hist.counts().size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(hist.bucketFor(0.5), 0u);
  EXPECT_EQ(hist.bucketFor(1.0), 0u);  // boundary is inclusive ("le")
  EXPECT_EQ(hist.bucketFor(1.0000001), 1u);
  EXPECT_EQ(hist.bucketFor(10.0), 1u);
  EXPECT_EQ(hist.bucketFor(100.0), 2u);
  EXPECT_EQ(hist.bucketFor(1e9), 3u);  // overflow bucket

  hist.observe(0.5);
  hist.observe(1.0);
  hist.observe(50.0);
  hist.observe(1000.0);
  EXPECT_EQ(hist.counts()[0], 2u);
  EXPECT_EQ(hist.counts()[2], 1u);
  EXPECT_EQ(hist.counts()[3], 1u);
  EXPECT_EQ(hist.count(), 4u);
  EXPECT_DOUBLE_EQ(hist.sum(), 1051.5);
}

TEST(Metrics, RegistryReturnsStableHandles) {
  MetricsRegistry registry;
  Counter& a = registry.counter("x");
  a.inc();
  registry.counter("y").inc(10);  // may rebalance the map
  EXPECT_EQ(&registry.counter("x"), &a);
  EXPECT_EQ(registry.counter("x").value(), 1u);

  Histogram& h = registry.histogram("h", stageSecondsBounds());
  // Later lookups reuse the instrument; new bounds are ignored.
  const double other[] = {42.0};
  EXPECT_EQ(&registry.histogram("h", other), &h);
  EXPECT_EQ(h.bounds().size(), stageSecondsBounds().size());
}

// ---- JSON ----------------------------------------------------------------

TEST(Json, EscapeRoundTripsThroughParse) {
  const std::string nasty = "a\"b\\c\nd\te\rf\x01g";
  const json::Value parsed = json::parse(json::quote(nasty));
  ASSERT_TRUE(parsed.isString());
  EXPECT_EQ(parsed.text, nasty);
}

TEST(Json, ParseRejectsGarbage) {
  EXPECT_THROW(json::parse("{\"a\":}"), ParseError);
  EXPECT_THROW(json::parse("{} trailing"), ParseError);
  EXPECT_THROW(json::parse(""), ParseError);
  // A number is one whole token, not its numeric prefix.
  EXPECT_THROW(json::parse("{\"a\":1.2.3}"), ParseError);
  EXPECT_THROW(json::parse("{\"a\":1-2}"), ParseError);
  EXPECT_THROW(json::parse("{\"a\":12e}"), ParseError);
}

TEST(Json, EscapePassesUtf8ThroughUntouched) {
  // Multi-byte UTF-8 (é, 日本語, ✓) is not control or structural: the
  // writer must leave the bytes alone rather than \u-escaping them.
  const std::string utf8 = "r\xc3\xa9sum\xc3\xa9 \xe6\x97\xa5\xe6\x9c\xac "
                           "\xe2\x9c\x93";
  EXPECT_EQ(json::escape(utf8), utf8);
  const json::Value parsed = json::parse(json::quote(utf8));
  ASSERT_TRUE(parsed.isString());
  EXPECT_EQ(parsed.text, utf8);
}

TEST(Json, EscapeEmitsU00XXForBareControlCharacters) {
  // \n, \r, \t get their shorthands; every other C0 control character
  // (including \b and \f, which the writer does not shorthand) becomes a
  // four-digit \u00XX escape the parser maps straight back.
  EXPECT_EQ(json::escape("\x01"), "\\u0001");
  EXPECT_EQ(json::escape("\x1f"), "\\u001f");
  EXPECT_EQ(json::escape("\b\f"), "\\u0008\\u000c");
  EXPECT_EQ(json::escape("\n\r\t"), "\\n\\r\\t");
  const std::string controls = "a\x01b\x02\x03\x1f";
  const json::Value parsed = json::parse(json::quote(controls));
  ASSERT_TRUE(parsed.isString());
  EXPECT_EQ(parsed.text, controls);
  // The parser also accepts the \b and \f shorthands it never writes.
  EXPECT_EQ(json::parse("\"\\b\\f\"").text, "\b\f");
}

TEST(Json, EmbeddedNulSurvivesTheRoundTrip) {
  std::string withNul = "ab";
  withNul.push_back('\0');
  withNul += "cd";
  ASSERT_EQ(withNul.size(), 5u);
  EXPECT_EQ(json::escape(withNul), "ab\\u0000cd");
  const json::Value parsed = json::parse(json::quote(withNul));
  ASSERT_TRUE(parsed.isString());
  EXPECT_EQ(parsed.text.size(), 5u);
  EXPECT_EQ(parsed.text, withNul);
}

TEST(Json, LoneSurrogateBytesPassThroughAsRawBytes) {
  // WTF-8 encoding of the unpaired surrogate U+D800 (ED A0 80): invalid
  // UTF-8, but the writer treats strings as byte sequences — every byte
  // is >= 0x20, so the three bytes pass through and round-trip intact.
  const std::string lone = "x\xed\xa0\x80y";
  EXPECT_EQ(json::escape(lone), lone);
  const json::Value parsed = json::parse(json::quote(lone));
  ASSERT_TRUE(parsed.isString());
  EXPECT_EQ(parsed.text, lone);
}

TEST(Json, ParserRejectsEscapesTheWriterCannotProduce) {
  // The writer only emits \u00XX, so the parser declines multilingual
  // \uXXXX escapes instead of silently guessing at UTF-16 surrogates.
  EXPECT_EQ(json::parse("\"\\u00ff\"").text, "\xff");
  EXPECT_THROW(json::parse("\"\\u0100\""), ParseError);
  EXPECT_THROW(json::parse("\"\\ud800\""), ParseError);
  EXPECT_THROW(json::parse("\"\\uZZZZ\""), ParseError);
}

TEST(TraceJsonl, NastyAttrValuesSurviveTheTraceRoundTrip) {
  // The same edge cases, end to end through the tracer's JSONL writer
  // and trace_reader's parser — what perflog/trace consumers actually do.
  std::string nasty = "caf\xc3\xa9\n\x01";
  nasty.push_back('\0');
  nasty += "\xed\xa0\x80 end";
  Tracer tracer;
  {
    ScopedSpan span(&tracer, "escape_probe");
    span.attr("payload", nasty);
    tracer.event("note", {{"payload", nasty}});
  }
  const TraceFile trace = parseTraceJsonl(tracer.toJsonl());
  ASSERT_EQ(trace.spans.size(), 1u);
  ASSERT_EQ(trace.events.size(), 1u);
  EXPECT_EQ(trace.spans[0].attrs.at("payload"), nasty);
  EXPECT_EQ(trace.events[0].attrs.at("payload"), nasty);
}

// ---- JSONL round-trip ----------------------------------------------------

Tracer makeSampleTrace(MetricsRegistry* metrics) {
  Tracer tracer;
  {
    ScopedSpan root(&tracer, "test_run");
    root.attr("test", "Sample");
    {
      ScopedSpan child(&tracer, "build");
      tracer.clock().advance(30.0);
      tracer.event("step", {{"cmd", "make -j"}});
    }
    metrics->counter("pipeline.runs").inc();
    metrics->gauge("sched.queue_depth").set(2.0);
    metrics->histogram("stage", stageSecondsBounds()).observe(30.0);
  }
  return tracer;
}

TEST(TraceJsonl, RoundTripsSpansEventsAndMetrics) {
  MetricsRegistry metrics;
  const Tracer tracer = makeSampleTrace(&metrics);
  const TraceFile trace = parseTraceJsonl(tracer.toJsonl(&metrics));

  EXPECT_EQ(trace.schema, kTraceSchema);
  EXPECT_EQ(trace.clockKind, "sim");
  ASSERT_EQ(trace.spans.size(), 2u);
  EXPECT_EQ(trace.spans[0].name, "build");
  EXPECT_EQ(trace.spans[0].parent, "1");
  EXPECT_EQ(trace.spans[1].attrs.at("test"), "Sample");
  ASSERT_EQ(trace.events.size(), 1u);
  EXPECT_EQ(trace.events[0].attrs.at("cmd"), "make -j");
  EXPECT_EQ(trace.counters.at("pipeline.runs"), 1u);
  EXPECT_DOUBLE_EQ(trace.gauges.at("sched.queue_depth").max, 2.0);
  EXPECT_EQ(trace.histograms.at("stage").count, 1u);
  EXPECT_TRUE(lintTrace(trace).empty());
}

TEST(TraceJsonl, IdenticalOperationsSerializeByteIdentically) {
  MetricsRegistry m1, m2;
  const std::string a = makeSampleTrace(&m1).toJsonl(&m1);
  const std::string b = makeSampleTrace(&m2).toJsonl(&m2);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
}

// ---- lint ----------------------------------------------------------------

TEST(TraceLint, FlagsStructuralViolations) {
  TraceFile trace;
  trace.schema = "rebench.trace/999";  // unknown version
  trace.clockKind = "sim";
  SpanRecord span;
  span.id = "1";
  span.name = "backwards";
  span.start = 5.0;
  span.end = 1.0;  // end before start
  trace.spans.push_back(span);
  SpanRecord orphan;
  orphan.id = "7.1";
  orphan.parent = "7";  // no such parent
  orphan.name = "orphan";
  trace.spans.push_back(orphan);
  EventRecord event;
  event.span = "42";  // no such span
  event.name = "lost";
  trace.events.push_back(event);
  trace.timeline = {{"span", 5.0}, {"span", 0.0}};  // not monotone

  const std::vector<std::string> issues = lintTrace(trace);
  EXPECT_GE(issues.size(), 4u);
  const std::string all = str::join(issues, "\n");
  EXPECT_TRUE(str::contains(all, "schema"));
  EXPECT_TRUE(str::contains(all, "backwards"));
  EXPECT_TRUE(str::contains(all, "7.1"));
  EXPECT_TRUE(str::contains(all, "42"));
}

// Ids too long for any integer are lint issues naming their span, not
// aborts: a 23-digit root span id and a 20-digit endpoint status.
TEST(TraceLint, OutOfRangeIdsAreIssuesNotAborts) {
  const std::string root = "12345678901234567890123";
  const std::string text =
      "{\"schema\":\"rebench.trace/1\",\"kind\":\"meta\",\"tool\":"
      "\"rebench\",\"clock\":\"sim\"}\n"
      "{\"kind\":\"span\",\"id\":\"" + root +
      "\",\"parent\":\"\",\"name\":\"serve.endpoint\",\"start\":0,"
      "\"end\":1,\"attrs\":{\"route\":\"/health\",\"status\":"
      "\"20000000000000000000\"}}\n";
  const std::vector<std::string> issues = lintTrace(parseTraceJsonl(text));
  const std::string all = str::join(issues, "\n");
  EXPECT_TRUE(str::contains(all, "span '" + root + "' has a root id")) << all;
  EXPECT_TRUE(str::contains(all, "invalid status '20000000000000000000'"))
      << all;
}

// A counter's value, a histogram's count and each of its bucket counts
// are range-checked before their cast to std::uint64_t: -1 or 1e30 is a
// ParseError naming the trace line, not 18446744073709551615 or 0.
std::string traceWithMetric(const std::string& record) {
  return "{\"schema\":\"rebench.trace/1\",\"kind\":\"meta\",\"tool\":"
         "\"rebench\",\"clock\":\"sim\"}\n" +
         record + "\n";
}

void expectLineTwoRejected(const std::string& record) {
  try {
    (void)parseTraceJsonl(traceWithMetric(record));
    ADD_FAILURE() << "parsed: " << record;
  } catch (const ParseError& e) {
    EXPECT_TRUE(str::contains(e.what(), "trace line 2: ")) << e.what();
    EXPECT_TRUE(str::contains(e.what(), "out of range")) << e.what();
  }
}

TEST(TraceJsonl, OutOfRangeCounterValueThrows) {
  const std::string counter =
      "{\"kind\":\"counter\",\"name\":\"pipeline.runs\",\"value\":";
  EXPECT_EQ(parseTraceJsonl(traceWithMetric(counter + "7}"))
                .counters.at("pipeline.runs"),
            7u);
  expectLineTwoRejected(counter + "-1}");
  expectLineTwoRejected(counter + "1e30}");
}

std::string histogram(const std::string& count, const std::string& bucket) {
  return "{\"kind\":\"histogram\",\"name\":\"stage\",\"count\":" + count +
         ",\"sum\":1.000000,\"bounds\":[1.000000],\"counts\":[" + bucket +
         ",0]}";
}

TEST(TraceJsonl, OutOfRangeHistogramCountThrows) {
  EXPECT_EQ(parseTraceJsonl(traceWithMetric(histogram("3", "3")))
                .histograms.at("stage")
                .count,
            3u);
  expectLineTwoRejected(histogram("-1", "3"));
  expectLineTwoRejected(histogram("1e30", "3"));
}

TEST(TraceJsonl, OutOfRangeHistogramBucketCountThrows) {
  EXPECT_EQ(parseTraceJsonl(traceWithMetric(histogram("3", "3")))
                .histograms.at("stage")
                .counts,
            (std::vector<std::uint64_t>{3, 0}));
  expectLineTwoRejected(histogram("3", "-1"));
  expectLineTwoRejected(histogram("3", "1e30"));
}

TEST(TraceLint, CleanTracePasses) {
  Tracer tracer;
  {
    ScopedSpan root(&tracer, "root");
    ScopedSpan child(&tracer, "child");
    tracer.event("tick");
  }
  const TraceFile trace = parseTraceJsonl(tracer.toJsonl());
  EXPECT_TRUE(lintTrace(trace).empty());
}

// ---- absorb (the canonical-merge primitive) -------------------------------

TEST(TracerAbsorb, EmptyShardIsANoOp) {
  Tracer tracer;
  tracer.beginSpan("before");
  tracer.endSpan();
  const std::string before = tracer.toJsonl();

  Tracer empty;
  tracer.absorb(empty);
  EXPECT_EQ(tracer.toJsonl(), before);
  EXPECT_EQ(tracer.beginSpan("after"), "2");  // root numbering unchanged
  tracer.endSpan();
}

TEST(TracerAbsorb, RemapsDeeplyNestedShardRootsPastOurs) {
  Tracer tracer;
  tracer.beginSpan("host1");
  tracer.endSpan();
  tracer.beginSpan("host2");
  tracer.endSpan();

  Tracer shard;  // two roots, one deeply nested
  shard.beginSpan("shardroot1");
  shard.beginSpan("mid");
  shard.beginSpan("deep");
  shard.beginSpan("deeper");
  shard.endSpan();
  shard.endSpan();
  shard.endSpan();
  shard.endSpan();
  shard.beginSpan("shardroot2");
  shard.endSpan();

  tracer.absorb(shard);
  // Shard roots 1, 2 become 3, 4; nested ids keep their suffixes.
  std::map<std::string, std::string> parents;
  std::map<std::string, std::string> names;
  for (const SpanRecord& span : tracer.spans()) {
    parents[span.id] = span.parent;
    names[span.id] = span.name;
  }
  EXPECT_EQ(names.at("3"), "shardroot1");
  EXPECT_EQ(names.at("3.1.1.1"), "deeper");
  EXPECT_EQ(parents.at("3.1.1.1"), "3.1.1");
  EXPECT_EQ(names.at("4"), "shardroot2");
  // The merged trace is structurally clean.
  EXPECT_TRUE(lintTrace(parseTraceJsonl(tracer.toJsonl())).empty());
  // And the next root continues after the absorbed ones.
  EXPECT_EQ(tracer.beginSpan("next"), "5");
  tracer.endSpan();
}

TEST(TracerAbsorb, OffsetsShardTimesByOurClockAndAdvancesPastShardEnd) {
  Tracer tracer;
  tracer.clock().advance(100.0);

  Tracer shard;
  shard.beginSpan("work");
  shard.clock().advance(7.0);
  shard.endSpan();
  const double shardStart = shard.spans()[0].start;
  const double shardEnd = shard.spans()[0].end;

  tracer.absorb(shard);
  const SpanRecord& merged = tracer.spans().back();
  // The shard's timeline is replayed relative to our clock position.
  EXPECT_DOUBLE_EQ(merged.start, 100.0 + shardStart);
  EXPECT_DOUBLE_EQ(merged.end, 100.0 + shardEnd);
  // Our clock moved past the shard: the next reading cannot overlap it.
  EXPECT_GE(tracer.clock().peek(), merged.end);
}

TEST(TracerAbsorb, RequiresBothTracersToHaveNoOpenSpans) {
  Tracer open;
  open.beginSpan("still-open");
  Tracer closed;
  EXPECT_THROW(open.absorb(closed), InternalError);

  Tracer host;
  Tracer openShard;
  openShard.beginSpan("unfinished");
  EXPECT_THROW(host.absorb(openShard), InternalError);
}

TEST(TracerAnnotateCompleted, StampsEndedSpansAndRejectsUnknownIds) {
  Tracer tracer;
  const std::string id = tracer.beginSpan("exec.worker");
  tracer.endSpan();
  tracer.annotateCompleted(id, "lane", "3");
  EXPECT_EQ(tracer.spans()[0].attrs.at("lane"), "3");
  EXPECT_THROW(tracer.annotateCompleted("99", "lane", "0"), InternalError);
}

// ---- metrics merge hardening ---------------------------------------------

TEST(Metrics, HistogramMergeRejectsMismatchedBoundsWithClearError) {
  Histogram a({1.0, 2.0});
  Histogram b({1.0, 5.0});
  a.observe(0.5);
  b.observe(4.0);
  try {
    a.merge(b);
    FAIL() << "merge accepted mismatched bounds";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_TRUE(str::contains(what, "mismatched bucket bounds"));
    EXPECT_TRUE(str::contains(what, "2"));  // our bound...
    EXPECT_TRUE(str::contains(what, "5"));  // ...vs theirs
  }
  // The failed merge corrupted nothing.
  EXPECT_EQ(a.count(), 1u);
  EXPECT_DOUBLE_EQ(a.sum(), 0.5);
}

TEST(Metrics, RegistryMergeNamesTheOffendingHistogram) {
  MetricsRegistry ours, theirs;
  const std::vector<double> boundsA{0.1, 1.0};
  const std::vector<double> boundsB{0.5, 2.0};
  ours.histogram("stage_seconds", boundsA).observe(0.05);
  theirs.histogram("stage_seconds", boundsB).observe(0.7);
  try {
    ours.merge(theirs);
    FAIL() << "merge accepted mismatched bounds";
  } catch (const Error& e) {
    EXPECT_TRUE(str::contains(e.what(), "stage_seconds"));
    EXPECT_TRUE(str::contains(e.what(), "mismatched bucket bounds"));
  }
}

// ---- profiling lint contracts --------------------------------------------

TEST(TraceLint, ExecWorkerSpansRequireLaneAndSimSecondsStamps) {
  Tracer tracer;
  const std::string id = tracer.beginSpan("exec.worker");
  tracer.setAttr("campaign", "0");
  tracer.setAttr("test", "T");
  tracer.setAttr("target", "sys:part");
  tracer.setAttr("repeat", "0");
  tracer.endSpan();

  // Unstamped: both profiling attributes are reported missing.
  {
    const std::vector<std::string> issues =
        lintTrace(parseTraceJsonl(tracer.toJsonl()));
    const std::string all = str::join(issues, "\n");
    EXPECT_TRUE(str::contains(all, "lane"));
    EXPECT_TRUE(str::contains(all, "sim_seconds"));
  }
  // A non-numeric lane is rejected...
  tracer.annotateCompleted(id, "lane", "fast");
  tracer.annotateCompleted(id, "sim_seconds", "1.000000");
  {
    const std::vector<std::string> issues =
        lintTrace(parseTraceJsonl(tracer.toJsonl()));
    ASSERT_EQ(issues.size(), 1u);
    EXPECT_TRUE(str::contains(issues[0], "lane"));
  }
  // ...and a properly stamped worker span passes.
  tracer.annotateCompleted(id, "lane", "2");
  EXPECT_TRUE(lintTrace(parseTraceJsonl(tracer.toJsonl())).empty());
}

TEST(TraceLint, FlagsNonMonotoneRootIdsAfterMerge) {
  // Hand-build a trace whose roots appear out of order — what a broken
  // absorb (or a hand-edited file) would produce.
  TraceFile trace;
  trace.schema = std::string(kTraceSchema);
  trace.clockKind = "sim";
  SpanRecord second;
  second.id = "2";
  second.name = "later";
  trace.spans.push_back(second);
  SpanRecord first;
  first.id = "1";
  first.name = "earlier";
  trace.spans.push_back(first);
  trace.timeline = {{"span", 0.0}, {"span", 0.0}};

  const std::vector<std::string> issues = lintTrace(trace);
  const std::string all = str::join(issues, "\n");
  EXPECT_TRUE(str::contains(all, "non-monotone root ids"));
}

TEST(TraceLint, AbsorbedShardsKeepRootIdsUniqueAndMonotone) {
  Tracer host;
  std::vector<Tracer> shards(3);
  for (std::size_t i = 0; i < shards.size(); ++i) {
    shards[i].beginSpan("exec.worker");
    shards[i].setAttr("campaign", std::to_string(i));
    shards[i].setAttr("test", "T" + std::to_string(i));
    shards[i].setAttr("target", "sys:part");
    shards[i].setAttr("repeat", "0");
    shards[i].clock().advance(1.0);
    shards[i].endSpan();
    shards[i].annotateCompleted("1", "lane", std::to_string(i));
    shards[i].annotateCompleted("1", "sim_seconds", "1.000000");
  }
  for (const Tracer& shard : shards) host.absorb(shard);
  const TraceFile merged = parseTraceJsonl(host.toJsonl());
  EXPECT_TRUE(lintTrace(merged).empty());
  ASSERT_EQ(merged.spans.size(), 3u);
  EXPECT_EQ(merged.spans[0].id, "1");
  EXPECT_EQ(merged.spans[1].id, "2");
  EXPECT_EQ(merged.spans[2].id, "3");
}

}  // namespace
}  // namespace rebench::obs
