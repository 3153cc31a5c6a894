#include "core/postproc/hygiene.hpp"

#include <algorithm>
#include <map>
#include <set>

namespace rebench {

std::string_view hygieneRuleName(HygieneRule rule) {
  switch (rule) {
    case HygieneRule::kMissingUnit: return "missing-unit";
    case HygieneRule::kSingleSample: return "single-sample";
    case HygieneRule::kMixedBinaries: return "mixed-binaries";
    case HygieneRule::kNotLikeForLike: return "not-like-for-like";
    case HygieneRule::kNoReference: return "no-reference";
    case HygieneRule::kHighFailureRate: return "high-failure-rate";
    case HygieneRule::kCorruptLines: return "corrupt-lines";
    case HygieneRule::kStaleArtifact: return "stale-artifact";
  }
  return "?";
}

namespace {

std::string seriesName(const PerfLogEntry& entry) {
  return entry.system + ":" + entry.partition + "/" + entry.testName + "/" +
         entry.fomName;
}

}  // namespace

std::vector<HygieneFinding> auditPerflog(
    std::span<const PerfLogEntry> entries, const HygieneOptions& options) {
  std::vector<HygieneFinding> findings;

  // Pass 1: per-entry checks and per-series aggregation.
  std::map<std::string, std::size_t> sampleCounts;
  std::map<std::string, std::set<std::string>> binariesPerSeries;
  // For like-for-like: (test, fom) -> set of spec short forms with the
  // system-specific compiler part stripped (the benchmark + its variants
  // must agree across systems; the toolchain may differ).
  std::map<std::string, std::set<std::string>> specsPerTest;
  std::set<std::string> missingUnitSeries;
  std::set<std::string> missingReferenceSeries;
  std::size_t errors = 0;

  auto stripCompiler = [](const std::string& spec) {
    const std::size_t percent = spec.find('%');
    if (percent == std::string::npos) return spec;
    // Remove "%name@version" up to the next variant sigil or end.
    std::size_t end = percent + 1;
    while (end < spec.size() && spec[end] != '+' && spec[end] != '~' &&
           spec[end] != ' ') {
      ++end;
    }
    return spec.substr(0, percent) + spec.substr(end);
  };

  for (const PerfLogEntry& entry : entries) {
    if (entry.result == "error") {
      ++errors;
      continue;
    }
    const std::string series = seriesName(entry);
    ++sampleCounts[series];
    if (!entry.binaryId.empty()) {
      binariesPerSeries[series].insert(entry.binaryId);
    }
    if (entry.unit == Unit::kNone) missingUnitSeries.insert(series);
    if (!entry.reference.has_value()) {
      missingReferenceSeries.insert(series);
    }
    specsPerTest[entry.testName + "/" + entry.fomName].insert(
        stripCompiler(entry.spec));
  }

  for (const std::string& series : missingUnitSeries) {
    findings.push_back({HygieneRule::kMissingUnit, series,
                        "figure of merit recorded without a unit"});
  }
  for (const auto& [series, count] : sampleCounts) {
    if (count < kHygieneMinSamples) {
      findings.push_back(
          {HygieneRule::kSingleSample, series,
           std::to_string(count) + " sample(s); need >= " +
               std::to_string(kHygieneMinSamples) +
               " to quantify run-to-run variability"});
    }
  }
  for (const auto& [series, binaries] : binariesPerSeries) {
    if (binaries.size() > 1) {
      findings.push_back(
          {HygieneRule::kMixedBinaries, series,
           std::to_string(binaries.size()) +
               " distinct binaries mixed in one series — results are not "
               "comparable run-to-run"});
    }
  }
  for (const auto& [test, specs] : specsPerTest) {
    if (specs.size() > 1) {
      findings.push_back(
          {HygieneRule::kNotLikeForLike, test,
           "cross-system comparison mixes " + std::to_string(specs.size()) +
               " distinct problem specs (beyond the toolchain)"});
    }
  }
  if (options.requireReferences) {
    for (const std::string& series : missingReferenceSeries) {
      findings.push_back({HygieneRule::kNoReference, series,
                          "no reference value to anchor the result"});
    }
  }
  if (!entries.empty()) {
    const double failureFraction =
        static_cast<double>(errors) / static_cast<double>(entries.size());
    if (failureFraction > kHygieneMaxFailureFraction) {
      findings.push_back(
          {HygieneRule::kHighFailureRate, "(whole perflog)",
           std::to_string(errors) + "/" + std::to_string(entries.size()) +
               " runs failed — survivors may be a biased sample"});
    }
  }

  std::sort(findings.begin(), findings.end(),
            [](const HygieneFinding& a, const HygieneFinding& b) {
              if (a.rule != b.rule) return a.rule < b.rule;
              return a.subject < b.subject;
            });
  return findings;
}

std::vector<HygieneFinding> auditPerflogFile(
    const std::string& path, const PerfLog::LenientParse& parsed,
    const HygieneOptions& options) {
  std::vector<HygieneFinding> findings = auditPerflog(parsed.entries, options);
  if (parsed.corruptLines > 0) {
    findings.push_back(
        {HygieneRule::kCorruptLines, path,
         std::to_string(parsed.corruptLines) +
             " unparseable line(s) skipped — the log may be truncated or "
             "corrupted"});
  }
  return findings;
}

std::vector<HygieneFinding> auditAgainstManifest(
    std::span<const PerfLogEntry> entries,
    const store::CampaignManifest& manifest) {
  // Provenance the manifest vouches for, per test@target tuple.
  std::map<std::string, std::set<std::string>> binaries;
  std::map<std::string, std::set<std::string>> specs;
  for (const store::RunManifest& run : manifest.runs) {
    const std::string key = run.test + "@" + run.target;
    if (!run.binaryId.empty()) binaries[key].insert(run.binaryId);
    if (!run.specHash.empty()) specs[key].insert(run.specHash);
  }

  std::vector<HygieneFinding> findings;
  std::set<std::string> reported;
  for (const PerfLogEntry& entry : entries) {
    if (entry.result == "error") continue;
    const std::string key =
        entry.testName + "@" + entry.system + ":" + entry.partition;
    const auto recordedBinaries = binaries.find(key);
    // Tuples the manifest never ran are out of scope, not stale.
    if (recordedBinaries == binaries.end()) continue;
    const bool staleBinary = !entry.binaryId.empty() &&
                             !recordedBinaries->second.contains(entry.binaryId);
    const auto recordedSpecs = specs.find(key);
    const bool staleSpec = recordedSpecs != specs.end() &&
                           !entry.specHash.empty() &&
                           !recordedSpecs->second.contains(entry.specHash);
    if ((staleBinary || staleSpec) && reported.insert(key).second) {
      findings.push_back(
          {HygieneRule::kStaleArtifact, key,
           "result reported from a stale artifact: perflog " +
               (staleBinary ? "binary id " + entry.binaryId
                            : "spec hash " + entry.specHash) +
               " does not match the campaign manifest"});
    }
  }
  std::sort(findings.begin(), findings.end(),
            [](const HygieneFinding& a, const HygieneFinding& b) {
              return a.subject < b.subject;
            });
  return findings;
}

std::string renderHygieneReport(std::span<const HygieneFinding> findings) {
  if (findings.empty()) {
    return "hygiene audit: clean (no Bailey/Hoefler-Belli violations "
           "detected)\n";
  }
  std::string out = "hygiene audit: " + std::to_string(findings.size()) +
                    " finding(s)\n";
  for (const HygieneFinding& finding : findings) {
    out += "  [" + std::string(hygieneRuleName(finding.rule)) + "] " +
           finding.subject + ": " + finding.detail + "\n";
  }
  return out;
}

}  // namespace rebench
