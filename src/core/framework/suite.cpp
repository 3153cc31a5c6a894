#include "core/framework/suite.hpp"

#include "core/obs/trace.hpp"
#include "core/util/strings.hpp"

namespace rebench {

void TestSuite::add(RegressionTest test, std::vector<std::string> tags) {
  tests_.push_back(TaggedTest{std::move(test), std::move(tags)});
}

std::vector<RegressionTest> TestSuite::select(
    std::string_view tag, std::string_view namePattern,
    std::string_view excludePattern, obs::Tracer* tracer,
    obs::MetricsRegistry* metrics) const {
  obs::ScopedSpan span(tracer, "suite.select");
  span.attr("tag", tag);
  span.attr("name_pattern", namePattern);
  span.attr("exclude_pattern", excludePattern);

  std::vector<RegressionTest> out;
  for (const TaggedTest& entry : tests_) {
    bool keep = true;
    if (!tag.empty()) {
      bool tagged = false;
      for (const std::string& t : entry.tags) tagged |= t == tag;
      keep = tagged;
    }
    if (keep && !namePattern.empty() &&
        !str::contains(entry.test.name, namePattern)) {
      keep = false;
    }
    if (keep && !excludePattern.empty() &&
        str::contains(entry.test.name, excludePattern)) {
      keep = false;
    }
    if (metrics != nullptr) {
      metrics->counter(keep ? "suite.selected" : "suite.filtered_out").inc();
    }
    if (keep) out.push_back(entry.test);
  }
  span.attr("selected", std::to_string(out.size()));
  return out;
}

std::vector<std::string> TestSuite::testNames() const {
  std::vector<std::string> out;
  out.reserve(tests_.size());
  for (const TaggedTest& entry : tests_) out.push_back(entry.test.name);
  return out;
}

CampaignSummary summarizeCampaign(std::span<const TestRunResult> results,
                                  const CampaignReport* report) {
  CampaignSummary summary;
  summary.total = results.size();
  for (const TestRunResult& result : results) {
    if (result.quarantined) {
      ++summary.quarantined;
    } else if (result.passed) {
      ++summary.passed;
    } else {
      ++summary.failed;
    }
  }
  if (report == nullptr) return summary;
  for (const auto& [outcome, tuples] : report->journaledOutcomes) {
    summary.total += tuples;
    if (outcome == "quarantined") {
      summary.quarantined += tuples;
    } else if (outcome == "pass") {
      summary.passed += tuples;
    } else {
      summary.failed += tuples;
    }
  }
  return summary;
}

std::string renderCampaignSummary(const CampaignSummary& summary,
                                  const CampaignReport* report) {
  std::string out = std::to_string(summary.passed) + "/" +
                    std::to_string(summary.total) + " passed\n";
  if (summary.quarantined > 0) {
    out += "quarantined: " + std::to_string(summary.quarantined) +
           " run(s) skipped by the circuit breaker";
    if (report != nullptr && !report->quarantinedKeys.empty()) {
      out += " (";
      for (std::size_t i = 0; i < report->quarantinedKeys.size(); ++i) {
        if (i > 0) out += ", ";
        out += report->quarantinedKeys[i];
      }
      out += ")";
    }
    out += "\n";
  }
  if (report != nullptr && report->skippedJournaled() > 0) {
    out += "resume: " + std::to_string(report->skippedJournaled()) +
           " tuple(s) already journaled, " +
           std::to_string(report->executed) + " executed\n";
  }
  return out;
}

}  // namespace rebench
