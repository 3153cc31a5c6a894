// Benchmarking-hygiene audit — Bailey's "Twelve Ways to Fool the Masses"
// and Hoefler & Belli's rules, turned into checks a perflog either passes
// or fails.
//
// The paper frames its Principles as defences against exactly these
// pitfalls; this module closes the loop by auditing collected data for
// the violations the pipeline can detect mechanically:
//
//   * FOMs without units (uninterpretable numbers),
//   * single-sample series (no statistical basis; H&B rule: report
//     enough runs to quantify variability),
//   * series mixing binary ids (comparing different builds as if they
//     were one benchmark — Bailey's "secretly optimised code"),
//   * cross-system comparisons with mismatched specs (not like-for-like),
//   * FOMs without reference values (unanchored results),
//   * a high failed-run ratio (cherry-picking survivors).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/framework/perflog.hpp"
#include "core/store/manifest.hpp"

namespace rebench {

enum class HygieneRule {
  kMissingUnit,
  kSingleSample,
  kMixedBinaries,
  kNotLikeForLike,
  kNoReference,
  kHighFailureRate,
  kCorruptLines,
  kStaleArtifact,
};

std::string_view hygieneRuleName(HygieneRule rule);

struct HygieneFinding {
  HygieneRule rule;
  /// The series or scope the finding refers to.
  std::string subject;
  std::string detail;
};

/// Minimum samples per (system, test, fom) series before kSingleSample
/// stops firing.
inline constexpr std::size_t kHygieneMinSamples = 3;
/// kHighFailureRate fires above this fraction of error entries.
inline constexpr double kHygieneMaxFailureFraction = 0.25;

struct HygieneOptions {
  /// Report kNoReference (`audit --strict`); off for reference-free
  /// exploratory studies.
  bool requireReferences = false;
};

/// Audits a perflog; findings are ordered by rule then subject.
std::vector<HygieneFinding> auditPerflog(
    std::span<const PerfLogEntry> entries,
    const HygieneOptions& options = {});

/// Audits what PerfLog::readFileLenient parsed of `path`; corrupt lines
/// become a kCorruptLines finding instead of a fatal parse error, so a
/// crash-truncated perflog is still auditable.
std::vector<HygieneFinding> auditPerflogFile(
    const std::string& path, const PerfLog::LenientParse& parsed,
    const HygieneOptions& options = {});

/// Cross-checks perflog entries against a campaign manifest's recorded
/// provenance: a non-error entry whose binary id or spec hash does not
/// match what the manifest vouches for on the same test@target was
/// reported from a *stale artifact* (e.g. a number kept after the code
/// or environment changed underneath it) — kStaleArtifact per tuple.
std::vector<HygieneFinding> auditAgainstManifest(
    std::span<const PerfLogEntry> entries,
    const store::CampaignManifest& manifest);

/// Renders findings as a human-readable report ("clean" when empty).
std::string renderHygieneReport(std::span<const HygieneFinding> findings);

}  // namespace rebench
