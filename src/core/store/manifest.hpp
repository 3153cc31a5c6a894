// Provenance manifests and byte-exact replay (rebench::store layer 2).
//
// A campaign manifest is a schema-versioned JSON lockfile capturing the
// complete Principle-4/5 chain of one CLI campaign: the normalized
// invocation (what was asked for), one record per executed pipeline run
// (concretized spec + hashes, environment, build-plan steps, launcher
// command, scheduler/fault/retry configuration, outcome), and the
// content hashes of every artifact the campaign produced (perflog,
// trace).  A store keeps each manifest as an object, named by the hash
// of its bytes, and points the manifests/latest ref at the newest one;
// history records, RunCache records and verdicts cite that hash.  Every
// read is verified, so a finished campaign is a *verifiable* object:
// `rebench replay` re-executes the invocation from scratch and diffs the
// regenerated artifact bytes against the recorded hashes, reporting
// exact/divergent per artifact.
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

inline constexpr std::string_view kManifestSchema = "rebench.manifest/1";

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
  /// Resource-accounting facets (probed campaigns only; empty maps are
  /// not rendered, so unprobed manifest bytes are untouched).  Keys like
  /// "rusage_build_user_ms"; values pre-formatted decimal strings.
  std::map<std::string, std::string> facets;
};

/// A campaign artifact pinned by content hash (perflog, trace, ...).
struct ArtifactRecord {
  std::string name;
  std::string hash;
  std::uint64_t bytes = 0;
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
};

struct CampaignManifest {
  std::string schema = std::string(kManifestSchema);
  CampaignInvocation invocation;
  std::vector<RunManifest> runs;
  std::vector<FomManifest> foms;  // canonical (test, target, fom) order
  std::vector<ArtifactRecord> artifacts;

  /// Deterministic JSON rendering (stable key order).
  std::string render() const;

  /// Parses a rendered manifest.  Throws rebench::ParseError on malformed
  /// JSON and rebench::Error on a schema-version mismatch.
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

  /// Stable fingerprint of the manifest contents (its object's name).
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
