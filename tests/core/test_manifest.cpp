// Layer-2 manifest tests: schema-versioned render/parse roundtrip,
// replay artifact comparison and the stale-artifact hygiene cross-check.
#include <gtest/gtest.h>

#include "core/postproc/hygiene.hpp"
#include "core/store/manifest.hpp"
#include "core/store/object_store.hpp"
#include "core/util/error.hpp"
#include "manifest_v1.hpp"

namespace rebench::store {
namespace {

CampaignManifest sampleManifest() {
  CampaignManifest manifest;
  manifest.invocation.mode = "run";
  manifest.invocation.system = "noctua2";
  manifest.invocation.repeats = 2;
  manifest.invocation.benchmark = "babelstream";
  manifest.invocation.ntimes = 10;
  manifest.invocation.settings = {{"model", "omp"}};
  manifest.invocation.faults = "seed=7,crash=0.1";
  manifest.invocation.retries = 3;
  manifest.invocation.withStore = true;

  RunManifest run;
  run.test = "BabelstreamTest_omp";
  run.target = "noctua2:normal";
  run.repeat = 0;
  run.environ = "gcc@12.1.0";
  run.spec = "babelstream@4.0%gcc@12.1.0";
  run.specHash = "abc123";
  run.planHash = "def456";
  run.binaryId = "bin789";
  run.buildSteps = {"spack install babelstream", "module load gcc"};
  run.launchCommand = "srun -n 1 ./babelstream";
  run.jobId = "42";
  run.outcome = "pass";
  run.attempts = 2;
  manifest.runs.push_back(run);

  ArtifactRecord perflog;
  perflog.name = "perflog";
  perflog.hash = ObjectStore::hashBytes("line1\nline2\n");
  perflog.bytes = 12;
  manifest.artifacts.push_back(perflog);
  return manifest;
}

TEST(ManifestTest, RenderParseRoundtrip) {
  const CampaignManifest manifest = sampleManifest();
  const std::string text = manifest.render();
  EXPECT_EQ(text.rfind("{\"schema\":\"rebench.manifest/2\",", 0), 0u);
  const CampaignManifest parsed = CampaignManifest::parse(text);
  EXPECT_EQ(parsed.invocation.mode, "run");
  EXPECT_EQ(parsed.invocation.system, "noctua2");
  EXPECT_EQ(parsed.invocation.repeats, 2);
  EXPECT_EQ(parsed.invocation.benchmark, "babelstream");
  EXPECT_EQ(parsed.invocation.ntimes, 10);
  ASSERT_EQ(parsed.invocation.settings.size(), 1u);
  EXPECT_EQ(parsed.invocation.settings[0].first, "model");
  EXPECT_EQ(parsed.invocation.settings[0].second, "omp");
  EXPECT_EQ(parsed.invocation.faults, "seed=7,crash=0.1");
  EXPECT_EQ(parsed.invocation.retries, 3);
  EXPECT_TRUE(parsed.invocation.withStore);
  EXPECT_TRUE(parsed.invocation.cache);

  ASSERT_EQ(parsed.runs.size(), 1u);
  const RunManifest& run = parsed.runs[0];
  EXPECT_EQ(run.test, "BabelstreamTest_omp");
  EXPECT_EQ(run.target, "noctua2:normal");
  EXPECT_EQ(run.specHash, "abc123");
  EXPECT_EQ(run.planHash, "def456");
  EXPECT_EQ(run.binaryId, "bin789");
  ASSERT_EQ(run.buildSteps.size(), 2u);
  EXPECT_EQ(run.buildSteps[0], "spack install babelstream");
  EXPECT_EQ(run.outcome, "pass");
  EXPECT_EQ(run.attempts, 2);

  ASSERT_EQ(parsed.artifacts.size(), 1u);
  EXPECT_EQ(parsed.artifacts[0].name, "perflog");
  EXPECT_EQ(parsed.artifacts[0].bytes, 12u);

  // Deterministic rendering: parse -> render is a fixed point.
  EXPECT_EQ(parsed.render(), manifest.render());
  EXPECT_EQ(parsed.contentHash(), manifest.contentHash());
}

TEST(ManifestTest, SchemaMismatchThrows) {
  std::string text = sampleManifest().render();
  const std::string schema(kManifestSchema);
  text.replace(text.find(schema), schema.size(), "rebench.manifest/999");
  EXPECT_THROW(CampaignManifest::parse(text), Error);
}

// A /1 manifest reads as it always did: an absent key takes the default,
// so the ocl runs after the faceted omp runs have no facets.  Its /2
// rendering omits each key equal to the entry before's (the first run's
// `repeat`, `failureStage` and `attempts` equal RunManifest{}'s), writes
// the emptied facets, spec and build steps out, and parses back to the
// same manifest.
TEST(ManifestTest, ReadsVersion1) {
  const CampaignManifest v1 =
      CampaignManifest::parse(std::string(kVersion1Manifest));
  ASSERT_EQ(v1.runs.size(), 4u);
  EXPECT_EQ(v1.runs[1].repeat, 1);
  EXPECT_EQ(v1.runs[1].facets.at("rusage_run_maxrss_kb"), "41111");
  EXPECT_EQ(v1.runs[2].test, "BabelstreamTest_ocl");
  EXPECT_TRUE(v1.runs[2].facets.empty());
  EXPECT_TRUE(v1.runs[3].facets.empty());
  EXPECT_TRUE(v1.runs[3].buildSteps.empty());
  EXPECT_EQ(v1.runs[3].failureStage, "concretize");
  ASSERT_EQ(v1.foms.size(), 2u);
  EXPECT_EQ(v1.foms[1].mean, 344687.902);

  const std::string v2 = v1.render();
  const std::size_t runs = v2.find(",\"runs\":");
  // The invocation omits the keys left at their defaults; written out in
  // full, as the run key hashes it, it keeps its /1 bytes.
  EXPECT_EQ(v2.substr(0, runs),
            "{\"schema\":\"rebench.manifest/2\",\"invocation\":{"
            "\"mode\":\"suite\",\"system\":\"archer2\",\"repeats\":2,"
            "\"tag\":\"babelstream\",\"n\":\"_o\",\"withStore\":true,"
            "\"probe\":\"sim\"}");
  EXPECT_EQ("{\"schema\":\"rebench.manifest/1\",\"invocation\":" +
                renderFullInvocation(v1.invocation),
            kVersion1Manifest.substr(0, kVersion1Manifest.find(",\"runs\":")));
  EXPECT_EQ(
      v2.substr(runs),
      ",\"runs\":[{\"test\":\"BabelstreamTest_omp\","
      "\"target\":\"archer2:compute\",\"environ\":\"gcc@11.2.0\","
      "\"spec\":\"babelstream@4.0%gcc@11.2.0 model=omp+omp\","
      "\"specHash\":\"osl7u7v\",\"planHash\":\"87d19a90c145e131\","
      "\"binaryId\":\"f786198a5339bff6\","
      "\"buildSteps\":[\"module load cmake/3.25.1\","
      "\"spack install --reuse babelstream@4.0%gcc@11.2.0 model=omp+omp\"],"
      "\"launch\":\"srun --ntasks=1 --ntasks-per-node=1"
      " --cpus-per-task=128 BabelstreamTest_omp\",\"jobId\":\"1\","
      "\"outcome\":\"pass\",\"facets\":{\"rusage_run_maxrss_kb\":\"22895\","
      "\"rusage_run_user_ms\":\"12393.034\"}},"
      "{\"repeat\":1,\"facets\":{\"rusage_run_maxrss_kb\":\"41111\","
      "\"rusage_run_user_ms\":\"12271.048\"}},"
      "{\"test\":\"BabelstreamTest_ocl\",\"repeat\":0,\"environ\":\"\","
      "\"spec\":\"\",\"specHash\":\"\",\"planHash\":\"\",\"binaryId\":\"\","
      "\"buildSteps\":[],\"launch\":\"\",\"jobId\":\"0\","
      "\"outcome\":\"fail\",\"failureStage\":\"concretize\","
      "\"facets\":{}},{\"repeat\":1}],"
      "\"foms\":[{\"test\":\"BabelstreamTest_omp\","
      "\"target\":\"archer2:compute\",\"fom\":\"Add\","
      "\"mean\":342021.581000,\"ci\":19427.283410,\"ess\":2.000,"
      "\"repeats\":2},{\"fom\":\"Copy\",\"mean\":344687.902000,"
      "\"ci\":19043.053970}],\"artifacts\":[{\"name\":\"perflog\","
      "\"hash\":\"9aa84fafd072a563\",\"bytes\":1338}]}\n");
  EXPECT_TRUE(CampaignManifest::parse(v2) == v1) << v2;
}

TEST(ManifestTest, MalformedJsonThrows) {
  EXPECT_THROW(CampaignManifest::parse("{\"schema\":"), ParseError);
  EXPECT_THROW(CampaignManifest::parse("[1,2,3]"), ParseError);
}

TEST(ManifestTest, CompareArtifactsReportsDivergence) {
  CampaignManifest manifest;
  manifest.artifacts.push_back(
      {"perflog", ObjectStore::hashBytes("recorded bytes"), 14});
  manifest.artifacts.push_back(
      {"trace", ObjectStore::hashBytes("trace bytes"), 11});

  // Exact reproduction.
  const ReplayComparison exact = compareArtifacts(
      manifest,
      {{"perflog", "recorded bytes"}, {"trace", "trace bytes"}});
  EXPECT_TRUE(exact.allExact());
  const std::string exactReport = renderReplayReport(exact);
  EXPECT_NE(exactReport.find("2/2 artifact(s) byte-exact"),
            std::string::npos);

  // One artifact drifted, one was never regenerated.
  const ReplayComparison diverged =
      compareArtifacts(manifest, {{"perflog", "different bytes"}});
  EXPECT_FALSE(diverged.allExact());
  ASSERT_EQ(diverged.artifacts.size(), 1u);
  EXPECT_FALSE(diverged.artifacts[0].exact);
  ASSERT_EQ(diverged.missing.size(), 1u);
  EXPECT_EQ(diverged.missing[0], "trace");
  const std::string report = renderReplayReport(diverged);
  EXPECT_NE(report.find("DIVERGENT"), std::string::npos);
  EXPECT_NE(report.find("MISSING"), std::string::npos);
  EXPECT_NE(report.find("0/2 artifact(s) byte-exact"), std::string::npos);
}

PerfLogEntry entryWith(const std::string& binaryId,
                       const std::string& specHash) {
  PerfLogEntry entry;
  entry.system = "noctua2";
  entry.partition = "normal";
  entry.testName = "BabelstreamTest_omp";
  entry.fomName = "Triad";
  entry.value = 100.0;
  entry.result = "pass";
  entry.binaryId = binaryId;
  entry.specHash = specHash;
  return entry;
}

TEST(ManifestTest, StaleArtifactAuditFlagsMismatchedProvenance) {
  const CampaignManifest manifest = sampleManifest();

  // Matching provenance: clean.
  const std::vector<PerfLogEntry> fresh{entryWith("bin789", "abc123")};
  EXPECT_TRUE(auditAgainstManifest(fresh, manifest).empty());

  // A result carried over from an older build: stale.
  const std::vector<PerfLogEntry> stale{entryWith("oldbinary", "abc123")};
  const auto findings = auditAgainstManifest(stale, manifest);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, HygieneRule::kStaleArtifact);
  EXPECT_EQ(findings[0].subject, "BabelstreamTest_omp@noctua2:normal");
  EXPECT_NE(findings[0].detail.find("stale artifact"), std::string::npos);
  EXPECT_EQ(hygieneRuleName(HygieneRule::kStaleArtifact), "stale-artifact");

  // Spec-hash drift is stale too, even with a familiar binary id.
  const std::vector<PerfLogEntry> driftedSpec{entryWith("bin789", "zzz")};
  EXPECT_EQ(auditAgainstManifest(driftedSpec, manifest).size(), 1u);

  // Tuples the manifest never ran are out of scope.
  std::vector<PerfLogEntry> other{entryWith("whatever", "whatever")};
  other[0].testName = "SomeOtherTest";
  EXPECT_TRUE(auditAgainstManifest(other, manifest).empty());

  // Error entries are skipped (they carry no reportable result).
  std::vector<PerfLogEntry> errored{entryWith("oldbinary", "abc123")};
  errored[0].result = "error";
  EXPECT_TRUE(auditAgainstManifest(errored, manifest).empty());
}

}  // namespace
}  // namespace rebench::store
