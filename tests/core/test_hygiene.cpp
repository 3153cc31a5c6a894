#include "core/postproc/hygiene.hpp"

#include <gtest/gtest.h>

#include "core/util/strings.hpp"

namespace rebench {
namespace {

PerfLogEntry entry(const std::string& system, const std::string& test,
                   const std::string& fom, double value,
                   const std::string& binary = "bin0",
                   const std::string& spec = "babelstream@4.0 model=omp") {
  PerfLogEntry e;
  e.system = system;
  e.partition = "compute";
  e.testName = test;
  e.fomName = fom;
  e.value = value;
  e.unit = Unit::kMBperSec;
  e.result = "pass";
  e.binaryId = binary;
  e.spec = spec;
  e.reference = value;
  return e;
}

std::vector<PerfLogEntry> healthyLog() {
  std::vector<PerfLogEntry> entries;
  for (int i = 0; i < 3; ++i) {
    entries.push_back(entry("archer2", "t", "Triad", 100.0 + i));
    entries.push_back(entry("csd3", "t", "Triad", 80.0 + i));
  }
  return entries;
}

TEST(Hygiene, HealthyLogIsClean) {
  const auto findings = auditPerflog(healthyLog());
  EXPECT_TRUE(findings.empty()) << renderHygieneReport(findings);
}

TEST(Hygiene, MissingUnitFlagged) {
  auto entries = healthyLog();
  entries[0].unit = Unit::kNone;
  const auto findings = auditPerflog(entries);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, HygieneRule::kMissingUnit);
}

TEST(Hygiene, SingleSampleFlagged) {
  std::vector<PerfLogEntry> entries = healthyLog();
  entries.push_back(entry("noctua2", "t", "Triad", 120.0));  // 1 sample
  const auto findings = auditPerflog(entries);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, HygieneRule::kSingleSample);
  EXPECT_TRUE(str::contains(findings[0].subject, "noctua2"));
}

TEST(Hygiene, MinSamplesConfigurable) {
  // kHygieneMinSamples samples of a series pass; one fewer is flagged.
  std::vector<PerfLogEntry> entries;
  for (std::size_t i = 1; i < kHygieneMinSamples; ++i) {
    entries.push_back(entry("archer2", "t", "Triad", 1.0));
  }
  const auto findings = auditPerflog(entries);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, HygieneRule::kSingleSample);
  EXPECT_TRUE(str::contains(findings[0].detail, "2 sample(s); need >= 3"));
  entries.push_back(entry("archer2", "t", "Triad", 1.0));
  EXPECT_TRUE(auditPerflog(entries).empty());
}

TEST(Hygiene, MixedBinariesFlagged) {
  // Bailey's "secretly optimised" trap: the binary changed mid-series.
  auto entries = healthyLog();
  entries[2].binaryId = "bin-DIFFERENT";
  const auto findings = auditPerflog(entries);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, HygieneRule::kMixedBinaries);
}

TEST(Hygiene, CrossSystemSpecMismatchFlagged) {
  auto entries = healthyLog();
  // csd3 quietly ran a different problem variant.
  for (PerfLogEntry& e : entries) {
    if (e.system == "csd3") e.spec = "babelstream@4.0 model=tbb";
  }
  const auto findings = auditPerflog(entries);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, HygieneRule::kNotLikeForLike);
}

TEST(Hygiene, CompilerDifferencesAreNotSpecMismatches) {
  // Toolchains legitimately differ per system (Table 3!); only the
  // benchmark/problem part must match.
  auto entries = healthyLog();
  for (PerfLogEntry& e : entries) {
    e.spec = e.system == "archer2" ? "babelstream@4.0%gcc@11.2.0 model=omp"
                                   : "babelstream@4.0%gcc@9.2.0 model=omp";
  }
  EXPECT_TRUE(auditPerflog(entries).empty());
}

TEST(Hygiene, NoReferenceOnlyWhenRequired) {
  auto entries = healthyLog();
  for (PerfLogEntry& e : entries) e.reference.reset();
  EXPECT_TRUE(auditPerflog(entries).empty());
  HygieneOptions strict;
  strict.requireReferences = true;
  const auto findings = auditPerflog(entries, strict);
  ASSERT_EQ(findings.size(), 2u);  // one per series
  EXPECT_EQ(findings[0].rule, HygieneRule::kNoReference);
}

TEST(Hygiene, HighFailureRateFlagged) {
  auto entries = healthyLog();
  for (int i = 0; i < 4; ++i) {
    PerfLogEntry failed = entry("archer2", "t", "run", 0.0);
    failed.result = "error";
    entries.push_back(failed);
  }
  const auto findings = auditPerflog(entries);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, HygieneRule::kHighFailureRate);
}

TEST(Hygiene, ReportRendersAllFindings) {
  auto entries = healthyLog();
  entries[0].unit = Unit::kNone;
  entries[2].binaryId = "other";
  const auto findings = auditPerflog(entries);
  const std::string report = renderHygieneReport(findings);
  EXPECT_TRUE(str::contains(report, "missing-unit"));
  EXPECT_TRUE(str::contains(report, "mixed-binaries"));
  EXPECT_TRUE(str::contains(renderHygieneReport({}), "clean"));
}

TEST(Hygiene, RuleNamesDistinct) {
  std::set<std::string_view> names;
  for (HygieneRule rule :
       {HygieneRule::kMissingUnit, HygieneRule::kSingleSample,
        HygieneRule::kMixedBinaries, HygieneRule::kNotLikeForLike,
        HygieneRule::kNoReference, HygieneRule::kHighFailureRate}) {
    names.insert(hygieneRuleName(rule));
  }
  EXPECT_EQ(names.size(), 6u);
}

}  // namespace
}  // namespace rebench
