// Provenance manifests and byte-exact replay (rebench::store layer 2).
//
// A campaign manifest is a schema-versioned JSON lockfile capturing the
// complete Principle-4/5 chain of one CLI campaign: the normalized
// invocation (what was asked for), one record per executed pipeline run
// (concretized spec + hashes, environment, build-plan steps, launcher
// command, scheduler/fault/retry configuration, outcome), and the
// content hashes of every artifact the campaign produced (perflog,
// trace).  In the `runs` and `foms` arrays each entry omits the keys
// whose text equals the entry before's (rebench.manifest/2), since the
// repeats of one test share all but a few.  A store keeps each manifest
// as an object, named by the hash of its bytes, and points the
// manifests/latest ref at the newest one; history records, RunCache
// records and verdicts cite that hash.  Every read is verified, so a
// finished campaign is a *verifiable* object: `rebench replay`
// re-executes the invocation from scratch and diffs the regenerated
// artifact bytes against the recorded hashes, reporting exact/divergent
// per artifact.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rebench::obs::json {
struct Value;
}  // namespace rebench::obs::json

namespace rebench::store {

/// The schema render() writes: /2, whose `runs` and `foms` entries omit
/// each key whose text equals the entry before's.
inline constexpr std::string_view kManifestSchema = "rebench.manifest/2";
/// The schema before omit-equal entries; parse() still reads it.
inline constexpr std::string_view kManifestSchemaV1 = "rebench.manifest/1";

/// The store ref naming the newest campaign manifest object.
inline constexpr std::string_view kLatestManifestRef = "manifests/latest";

class ObjectStore;

/// The hash a manifest file's name records: `<hash>` (a store object) or
/// `campaign-<hash>.json` (the layout before manifests were objects);
/// "" for any other name.
std::string hashNamedBy(const std::string& filename);

/// The normalized CLI invocation a manifest can re-execute.  Numeric
/// fields default to "unset" sentinels (-1) so replay applies the same
/// defaults the original run did.
struct CampaignInvocation {
  std::string mode;       // "run" | "suite"
  std::string system;     // target "system[:partition]"
  std::string account = "ec999";
  int repeats = 1;

  // run mode
  std::string benchmark;
  int ntimes = -1;
  std::vector<std::pair<std::string, std::string>> settings;  // -S key=value

  // suite mode
  std::string tag;
  std::string namePattern;     // -n
  std::string excludePattern;  // -x

  // resilience configuration (raw --faults spec; "" = off)
  std::string faults;
  int retries = -1;
  double backoffBase = -1.0;
  double backoffMultiplier = -1.0;
  double backoffMax = -1.0;
  int quarantineAfter = -1;
  /// Per-stage watchdog deadline in simulated seconds (--stage-timeout);
  /// <= 0 = no deadline.
  double stageTimeout = -1.0;
  /// Canonical virtual-lane width stamped into worker spans for
  /// profiling (--lanes); -1 = pipeline default.  Recorded because it
  /// shapes trace bytes, which replay must reproduce exactly.
  int lanes = -1;

  /// Adaptive run-length control (rebench::infer, --ci-halfwidth /
  /// --min-repeats / --max-repeats); ciHalfwidth <= 0 = fixed repeats.
  /// Recorded so replay re-runs the same adaptive schedule and the run
  /// memoization key (which hashes the rendered invocation) separates
  /// adaptive from fixed-repeat campaigns.
  double ciHalfwidth = -1.0;
  int minRepeats = -1;
  int maxRepeats = -1;

  // store configuration: whether a --store was attached and whether
  // build caching was enabled (--no-cache clears it).  Replay uses these
  // to reproduce the same store.* observability with a fresh store.
  bool withStore = false;
  bool cache = true;

  /// Per-stage resource accounting (--probe): "" = off, "sim" =
  /// deterministic synthetic samples, "real" = getrusage deltas.
  /// Recorded because probing adds perflog extras, telemetry.probe
  /// spans and manifest facets — bytes the run-memoization key (which
  /// hashes this rendering) must separate from unprobed campaigns.
  std::string probe;

  bool operator==(const CampaignInvocation&) const = default;
};

/// Deterministic JSON rendering of an invocation (stable key order).
/// Public because the serve queue protocol embeds invocations in
/// submission files and run-memoization keys hash these exact bytes.
std::string renderInvocation(const CampaignInvocation& inv);

/// Parses an invocation object rendered by renderInvocation.
CampaignInvocation parseInvocation(const obs::json::Value& value);

/// Provenance of one executed (test, target, repeat) pipeline run.
struct RunManifest {
  std::string test;
  std::string target;  // "system:partition"
  int repeat = 0;
  std::string environ;
  std::string spec;      // concretized short form
  std::string specHash;  // DAG hash (Principle 4)
  std::string planHash;
  std::string binaryId;  // build provenance (Principle 3)
  std::vector<std::string> buildSteps;  // reproducible commands, in order
  std::string launchCommand;
  std::string jobId;
  std::string outcome;  // "pass" | "fail" | "quarantined"
  std::string failureStage;
  int attempts = 1;
  /// Resource-accounting facets (probed campaigns only).  Keys like
  /// "rusage_build_user_ms"; values pre-formatted decimal strings.
  std::map<std::string, std::string> facets;

  bool operator==(const RunManifest&) const = default;
};

/// A campaign artifact pinned by content hash (perflog, trace, ...).
struct ArtifactRecord {
  std::string name;
  std::string hash;
  std::uint64_t bytes = 0;

  bool operator==(const ArtifactRecord&) const = default;
};

/// Statistical summary of one (test, target, fom) series across the
/// campaign's repeats (rebench::infer estimators) — the manifest view
/// of what the history index records.
struct FomManifest {
  std::string test;
  std::string target;
  std::string fom;
  double mean = 0.0;
  double ciHalfwidth = 0.0;  // 95%, autocorrelation-corrected
  double ess = 0.0;
  double autocorr = 0.0;
  int repeats = 0;

  bool operator==(const FomManifest&) const = default;
};

struct CampaignManifest {
  CampaignInvocation invocation;
  std::vector<RunManifest> runs;
  std::vector<FomManifest> foms;  // canonical (test, target, fom) order
  std::vector<ArtifactRecord> artifacts;

  /// Field by field; render() equality also tells -0.0 from 0.0.
  bool operator==(const CampaignManifest&) const = default;

  /// Deterministic rebench.manifest/2 JSON (stable key order).  Each
  /// `runs`/`foms` entry omits every key whose rendered text equals that
  /// key's text in the entry before it; the first entry is compared with
  /// RunManifest{} / FomManifest{}.
  std::string render() const;

  /// Parses a rendered manifest: a /2 entry starts from the entry before
  /// it, a /1 entry from the defaults.  Throws rebench::ParseError on
  /// malformed JSON and rebench::Error on any other schema.
  static CampaignManifest parse(const std::string& text);

  /// Reads and parses `path`; throws rebench::Error when unreadable.  A
  /// file named as a store names manifests (`<hash>`, or the older
  /// `campaign-<hash>.json`) must hash to that name, or this throws an
  /// Error naming both hashes.
  static CampaignManifest read(const std::string& path);

  /// Verified read of the manifest object `hash` in `store`
  /// (ObjectStore::get, which deletes a corrupt object).  Throws
  /// rebench::Error naming the hash when it is missing or corrupt.
  static CampaignManifest load(ObjectStore& store, const std::string& hash);

  /// Stable fingerprint of the manifest contents: the name of the object
  /// render() writes (a /1 object read back is named by its /1 bytes).
  std::string contentHash() const;
};

/// Outcome of diffing replayed artifact bytes against a manifest.
struct ReplayComparison {
  struct Artifact {
    std::string name;
    std::string recordedHash;
    std::string replayedHash;
    bool exact = false;
  };
  std::vector<Artifact> artifacts;
  /// Artifact names recorded in the manifest but not regenerated.
  std::vector<std::string> missing;

  bool allExact() const;
};

/// Compares replayed artifacts (name -> regenerated bytes) against the
/// hashes the manifest recorded.
ReplayComparison compareArtifacts(
    const CampaignManifest& manifest,
    const std::map<std::string, std::string>& replayed);

/// Human-readable replay report ("exact"/"DIVERGENT" per artifact).
std::string renderReplayReport(const ReplayComparison& comparison);

}  // namespace rebench::store
