// The benchmark suite: a named, tag-filterable collection of regression
// tests — the shape of the paper's `reframe -c benchmarks/apps/... -r
// --tag omp -n HPCG_ -x HPCG_Intel` selection interface.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/framework/pipeline.hpp"
#include "core/framework/regression_test.hpp"

namespace rebench {

namespace obs {
class Tracer;
class MetricsRegistry;
}  // namespace obs

struct TaggedTest {
  RegressionTest test;
  std::vector<std::string> tags;
};

class TestSuite {
 public:
  void add(RegressionTest test, std::vector<std::string> tags = {});

  std::size_t size() const { return tests_.size(); }
  const std::vector<TaggedTest>& all() const { return tests_; }

  /// ReFrame-style selection: keep tests carrying `tag` (empty = all),
  /// whose name contains `namePattern` (-n), and whose name does not
  /// contain `excludePattern` (-x).  When observability hooks are passed
  /// (both nullable) the selection is wrapped in a `suite.select` span and
  /// kept/filtered counts land in the registry.
  std::vector<RegressionTest> select(std::string_view tag = {},
                                     std::string_view namePattern = {},
                                     std::string_view excludePattern = {},
                                     obs::Tracer* tracer = nullptr,
                                     obs::MetricsRegistry* metrics = nullptr) const;

  std::vector<std::string> testNames() const;

 private:
  std::vector<TaggedTest> tests_;
};

/// Outcome counts over one campaign's results (quarantined entries are a
/// separate bucket — they failed without running).
struct CampaignSummary {
  std::size_t total = 0;
  std::size_t passed = 0;
  std::size_t failed = 0;       // executed and failed
  std::size_t quarantined = 0;  // skipped by the circuit breaker
};

/// Counts `results` and, when `report` is given, the tuples a resumed
/// campaign skipped, by their journaled outcome: a failure recorded
/// before the resume still fails the campaign.
CampaignSummary summarizeCampaign(std::span<const TestRunResult> results,
                                  const CampaignReport* report = nullptr);

/// One-paragraph human summary; includes resume/quarantine lines when a
/// CampaignReport is given and they apply.
std::string renderCampaignSummary(const CampaignSummary& summary,
                                  const CampaignReport* report = nullptr);

}  // namespace rebench
