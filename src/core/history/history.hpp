// Longitudinal performance history (rebench::history).
//
// An append-only, schema-versioned index of per-(test, target, fom)
// results stored as content-addressed segments in the ObjectStore.  Each
// completed campaign under `--store` appends one segment holding one
// record per (test, target, fom) triple, encoded as rebench.history/2:
//
//   rebench.history/2|PREV|SEQ|BASE|N
//   test|target|fom|manifest|env|spec|mean|min|max|ci|ess|repeats|sim_timestamp
//   ... (N rows; row i is record seq BASE + i)
//
// Fields are percent-escaped as perflog fields are (str::percentEscape),
// numbers keep the fixed-decimal text of the JSON lines before them, and
// rows are ditto-coded (core/util/ditto.hpp: a non-empty field equal to
// the same field of the row above is a lone "=").  Older segments hold
// JSON lines ({"kind":"meta","schema":"rebench.history/1",...} then one
// {"kind":"record",...} per record); they are read, never written, and a
// chain may hold them below rebench.history/2 segments.
//
// Segments form a hash chain: `prev` names the previous segment (empty
// for the first), and the chain head lives under the ObjectStore ref
// "history/head", which advances by compare-and-swap so concurrent
// writers each land their segment; reads are verified by the store as
// usual.  Everything appended derives from canonical campaign results
// and manifests, so history bytes — like every other rebench artefact —
// are identical at every --jobs width.
// A long-lived reader (the serve daemon) keeps a Chain and refreshes it,
// re-reading only the segments that are new, changed on disk or racily
// clean (HistoryIndex::refresh); a segment it appends itself joins the
// chain unread and is verified by the next refresh.
//
// On top of the index: series grouping, trend rendering (table or JSON,
// with sparklines, rolling stats and changepoint flags), and the
// regression gate `checkRegression` used by `rebench history --check`.
// A perflog converts to the same records (recordsFromPerflog), so both
// sources share one analysis: the EDM scan of rebench::infer marks the
// trend view's changepoints and justifies the gate's verdicts.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/store/object_store.hpp"

namespace rebench {
struct PerfLogEntry;
struct TestRunResult;
}  // namespace rebench

namespace rebench::history {

/// Schema of the `history --json` document, and of the JSON-lines
/// segments written before kSegmentSchema.
inline constexpr std::string_view kHistorySchema = "rebench.history/1";
/// Schema of the segments appendSegment writes.
inline constexpr std::string_view kSegmentSchema = "rebench.history/2";
/// ObjectStore ref naming the newest segment of the chain.
inline constexpr std::string_view kHeadRef = "history/head";

/// One (test, target, fom) observation from one campaign.
struct HistoryRecord {
  std::uint64_t seq = 0;       // global append order, assigned by the index
  std::string test;            // test name
  std::string target;          // "system:partition"
  std::string fom;             // figure-of-merit name
  std::string manifestHash;    // campaign manifest contentHash
  std::string envFingerprint;  // BuildCache::environmentFingerprint
  std::string specHash;        // concrete spec DAG hash
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double ci = 0.0;   // 95% CI half-width of the mean (0 = unknown)
  double ess = 0.0;  // autocorrelation-corrected effective sample size
  int repeats = 0;
  double simTimestamp = 0.0;  // cumulative simulated seconds at append
};

/// Reduces campaign results to per-(test, target, fom) aggregates in
/// canonical (test, target, fom) order.  Quarantined and failed runs
/// carry no FOMs and drop out naturally.  Shared by the manifest, the
/// service journal's `executed` record, the history appender and the
/// OpenMetrics FOM samples, so every view agrees byte-wise.
struct FomAggregate {
  std::string test;
  std::string target;
  std::string fom;
  std::string specHash;  // concrete spec DAG hash of the series' runs
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  /// Statistical view of the per-repeat samples (rebench::infer): 95%
  /// CI half-width of the mean (0 when a single repeat leaves it
  /// undefined), effective sample size and lag-1 autocorrelation.
  double ciHalfwidth = 0.0;
  double ess = 0.0;
  double autocorr = 0.0;
  int repeats = 0;
};
std::vector<FomAggregate> aggregateFoms(std::span<const TestRunResult> results);

/// One record per perflog row that observes a FOM (result neither
/// "summary" nor "error"), in row order: target "system:partition",
/// mean = min = max = the row's value, repeats 1, ci 0, the row's
/// spec_hash, and seq the row's index among `entries`.
std::vector<HistoryRecord> recordsFromPerflog(
    std::span<const PerfLogEntry> entries);

/// The records matching the filters, in input order; empty filter = any.
std::vector<HistoryRecord> selectRecords(std::vector<HistoryRecord> records,
                                         std::string_view test,
                                         std::string_view target = {},
                                         std::string_view fom = {});

/// Where the next segment attaches to the chain: the head it names as
/// `prev`, its meta `seq` and the seq of its first record (`base`).
struct ChainTip {
  std::string head;  // "" for an empty chain
  std::uint64_t seq = 0;
  std::uint64_t base = 0;
};

/// A verified view of the chain, kept up to date by HistoryIndex::refresh.
/// Each segment's stamp is the stat its verified read was taken under; a
/// racy one (a segment extend adopted unread among them) is re-read by
/// the next refresh.
struct Chain {
  std::vector<HistoryRecord> records;  // oldest first
  ChainTip tip;
  std::vector<store::ObjectStamp> segments;  // oldest first, one per segment
};

/// The chain view over an ObjectStore.  Not thread-safe; callers append
/// from the (single-threaded) CLI tail after campaign merge.  Indexes in
/// several threads or processes may append to one store directory.
class HistoryIndex {
 public:
  explicit HistoryIndex(store::ObjectStore& store);

  /// Appends `records` as one new segment and advances the head ref.
  /// Sequence numbers are assigned here (input order preserved).  Returns
  /// the segment hash; empty input appends nothing and returns "".  Reads
  /// the head segment to find the tip.
  std::string appendSegment(std::span<const HistoryRecord> records);

  /// appendSegment at a tip the caller already read (readChain's).  The
  /// head advances by compare-and-swap: when another writer moved it, the
  /// records are re-stamped after the new head segment and retried.
  std::string appendSegment(const ChainTip& tip,
                            std::span<const HistoryRecord> records);

  /// appendSegment at `chain`'s tip, then extends `chain` with the new
  /// segment.  When this call wrote the segment's object and its first
  /// compare-and-swap won, the segment is adopted: the bytes it serialized,
  /// whose hash names the object, are parsed into the chain with a racy
  /// stamp, so the next refresh verifies the file once.  Otherwise (the
  /// object was already present, or another writer moved the head) the
  /// chain is extended by verified reads from the new segment back to the
  /// old tip, taking in any segment another writer appended.  A throw
  /// leaves `chain` empty.
  std::string extend(Chain& chain, std::span<const HistoryRecord> records);

  /// Brings `chain` up to date with the store in one pass: verified reads
  /// of the segments newer than its tip, a stat of every segment it
  /// covers, and a verified re-read of each covered segment whose stamp
  /// changed or was racy.  A head that does not descend from the tip
  /// replaces the chain with a full walk.  A broken chain (missing,
  /// corrupt or rewritten segment) throws rebench::Error naming the hash
  /// and leaves `chain` empty.
  void refresh(Chain& chain) const;

  /// All records, oldest first: readChain().records.
  std::vector<HistoryRecord> readAll() const;

  /// One full walk: refresh of an empty chain, so a broken chain throws
  /// rebench::Error naming the missing or corrupt segment.
  Chain readChain() const;

  /// Verified read of one segment, parsed as parseSegment does, and
  /// stamped as ObjectStore::get stamps when `stamp` is given; a missing
  /// or corrupt segment throws rebench::Error.
  std::vector<HistoryRecord> readSegment(
      const std::string& hash, std::string* prevHash = nullptr,
      std::uint64_t* seq = nullptr,
      store::ObjectStamp* stamp = nullptr) const;

  /// Verified segment reads this index has made.
  std::uint64_t segmentReads() const { return segmentReads_; }

  /// Records matching the filters, oldest first; empty filter = any.
  std::vector<HistoryRecord> query(std::string_view test,
                                   std::string_view target = {},
                                   std::string_view fom = {}) const;

 private:
  /// Where a segment appended now attaches: after the head segment.
  ChainTip headTip() const;
  /// appendSegment's publish step.  `adoptable`, when given, receives the
  /// segment's bytes iff this call wrote its object and the first
  /// compare-and-swap (at `tip` itself) won; it is left empty otherwise.
  std::string publish(const ChainTip& tip,
                      std::span<const HistoryRecord> records,
                      std::string* adoptable);
  /// Verified reads from `head` back to `chain`'s tip, appended to it.
  /// Returns false when the walk reached the root without meeting the
  /// tip: the chain then holds exactly the walked segments.
  bool readNewer(Chain& chain, const std::string& head) const;

  store::ObjectStore& store_;
  mutable std::uint64_t segmentReads_ = 0;
};

/// Serialization used for segment blobs (exposed for tests/tools): one
/// kSegmentSchema segment.  The records' `seq` is not stored; the parse
/// numbers row i `base + i`, as appendSegment stamps them.
std::string serializeSegment(std::span<const HistoryRecord> records,
                             std::string_view prevHash, std::uint64_t seq,
                             std::uint64_t base);
/// Parses one segment blob of either schema; returns records and fills
/// `prevHash` / `seq` when requested.  Throws rebench::Error on another
/// schema or any malformed header, row, field or number.
std::vector<HistoryRecord> parseSegment(std::string_view bytes,
                                        std::string* prevHash = nullptr,
                                        std::uint64_t* seq = nullptr);

/// One issue per record of `records` whose cited manifest (a verified
/// read through `store`) does not load, records no run of its (test,
/// target), or lists foms (older manifests list none) but not its fom;
/// each issue names the record's seq.
std::vector<std::string> lintHistory(store::ObjectStore& store,
                                     std::span<const HistoryRecord> records);

/// Groups records into per-(test, target, fom) series, preserving append
/// order inside each series; series are keyed "test|target|fom" and the
/// map iterates in lexicographic key order.
std::map<std::string, std::vector<HistoryRecord>> groupSeries(
    std::span<const HistoryRecord> records);

struct RenderOptions {
  bool json = false;
  std::size_t window = 5;  // rolling stats width
};

/// Renders the trend view `rebench history` prints: one block per
/// series with a sparkline, per-record rows (seq, mean, min, max,
/// repeats, rolling mean/stddev, changepoint marker) and the EDM
/// changepoints of the series means, the same scan checkRegression
/// cites.  JSON mode emits the same data as one document.
std::string renderHistory(std::span<const HistoryRecord> records,
                          const RenderOptions& options);

/// Mean / population standard deviation of the up-to-`window` values
/// ending at `index` (inclusive) — the "rolling" columns of the trend
/// view.  An empty effective window reports 0.
double rollingMean(std::span<const double> values, std::size_t index,
                   std::size_t window);
double rollingStddev(std::span<const double> values, std::size_t index,
                     std::size_t window);

/// ASCII sparkline: one character per value, min..max mapped onto
/// " .:-=+*#%@" (a constant series sits mid-scale, all '+').
std::string sparkline(std::span<const double> values);

struct GateOptions {
  std::size_t window = 5;    // rolling-baseline width (records before newest)
  double threshold = 0.05;   // relative drop that counts as a regression
};

/// Per-series verdict of the regression gate.
struct GateResult {
  std::string series;      // "test|target|fom"
  double baseline = 0.0;   // rolling mean of up to `window` predecessors
  double latest = 0.0;
  double delta = 0.0;      // (latest - baseline) / baseline
  bool regression = false;
  bool insufficient = false;  // < 2 records: nothing to compare

  // Statistical justification (rebench::infer): a threshold-sized drop
  // only regresses when it is also *significant* — the latest mean
  // falls below the baseline minus the baseline window's own 95% CI
  // half-width — so same-variance wobble stays clean.
  double baselineCi = 0.0;  // CI half-width of the baseline window mean
  double latestCi = 0.0;    // latest record's own CI half-width
  double latestEss = 0.0;   // latest record's effective sample size
  bool significant = false;
  bool changepoint = false;  // EDM flags a down-shift over the series
  std::size_t changepointIndex = 0;  // series index; valid when changepoint
  std::string justification;  // deterministic human-readable reason
};

/// Gates every series in `records`: the newest record against the
/// rolling mean of its predecessors.  Higher FOM = better (rates);
/// a relative drop beyond `threshold` that is also statistically
/// significant (see GateResult) is a regression.  An EDM changepoint
/// scan over the series means justifies series-level regime shifts.
std::vector<GateResult> checkRegression(std::span<const HistoryRecord> records,
                                        const GateOptions& options);

}  // namespace rebench::history
