#include "core/store/manifest.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/obs/json.hpp"
#include "core/store/object_store.hpp"
#include "core/util/error.hpp"
#include "core/util/hash.hpp"
#include "core/util/strings.hpp"

namespace rebench::store {

namespace {
using obs::json::quote;
}  // namespace

std::string renderInvocation(const CampaignInvocation& inv) {
  std::ostringstream out;
  out << "{\"mode\":" << quote(inv.mode)
      << ",\"system\":" << quote(inv.system)
      << ",\"account\":" << quote(inv.account)
      << ",\"repeats\":" << inv.repeats
      << ",\"benchmark\":" << quote(inv.benchmark)
      << ",\"ntimes\":" << inv.ntimes << ",\"settings\":[";
  for (std::size_t i = 0; i < inv.settings.size(); ++i) {
    if (i > 0) out << ",";
    out << "[" << quote(inv.settings[i].first) << ","
        << quote(inv.settings[i].second) << "]";
  }
  out << "],\"tag\":" << quote(inv.tag)
      << ",\"n\":" << quote(inv.namePattern)
      << ",\"x\":" << quote(inv.excludePattern)
      << ",\"faults\":" << quote(inv.faults)
      << ",\"retries\":" << inv.retries
      << ",\"backoffBase\":" << str::fixed(inv.backoffBase, 6)
      << ",\"backoffMultiplier\":" << str::fixed(inv.backoffMultiplier, 6)
      << ",\"backoffMax\":" << str::fixed(inv.backoffMax, 6)
      << ",\"quarantineAfter\":" << inv.quarantineAfter
      << ",\"stageTimeout\":" << str::fixed(inv.stageTimeout, 6)
      << ",\"lanes\":" << inv.lanes
      << ",\"ciHalfwidth\":" << str::fixed(inv.ciHalfwidth, 6)
      << ",\"minRepeats\":" << inv.minRepeats
      << ",\"maxRepeats\":" << inv.maxRepeats
      << ",\"withStore\":" << (inv.withStore ? "true" : "false")
      << ",\"cache\":" << (inv.cache ? "true" : "false")
      << ",\"probe\":" << quote(inv.probe) << "}";
  return out.str();
}

CampaignInvocation parseInvocation(const obs::json::Value& value) {
  CampaignInvocation inv;
  inv.mode = value.stringOr("mode", "");
  inv.system = value.stringOr("system", "local");
  inv.account = value.stringOr("account", "ec999");
  inv.repeats = value.integerOr("repeats", 1);
  inv.benchmark = value.stringOr("benchmark", "");
  inv.ntimes = value.integerOr("ntimes", -1);
  if (value.contains("settings")) {
    for (const obs::json::Value& pair : value.at("settings").array) {
      if (pair.array.size() == 2) {
        inv.settings.emplace_back(pair.array[0].text, pair.array[1].text);
      }
    }
  }
  inv.tag = value.stringOr("tag", "");
  inv.namePattern = value.stringOr("n", "");
  inv.excludePattern = value.stringOr("x", "");
  inv.faults = value.stringOr("faults", "");
  inv.retries = value.integerOr("retries", -1);
  inv.backoffBase = value.numberOr("backoffBase", -1.0);
  inv.backoffMultiplier = value.numberOr("backoffMultiplier", -1.0);
  inv.backoffMax = value.numberOr("backoffMax", -1.0);
  inv.quarantineAfter = value.integerOr("quarantineAfter", -1);
  inv.stageTimeout = value.numberOr("stageTimeout", -1.0);
  inv.lanes = value.integerOr("lanes", -1);
  inv.ciHalfwidth = value.numberOr("ciHalfwidth", -1.0);
  inv.minRepeats = value.integerOr("minRepeats", -1);
  inv.maxRepeats = value.integerOr("maxRepeats", -1);
  inv.withStore =
      value.contains("withStore") && value.at("withStore").boolean;
  inv.cache = !value.contains("cache") || value.at("cache").boolean;
  inv.probe = value.stringOr("probe", "");
  return inv;
}

namespace {

std::string renderRun(const RunManifest& run) {
  std::ostringstream out;
  out << "{\"test\":" << quote(run.test)
      << ",\"target\":" << quote(run.target)
      << ",\"repeat\":" << run.repeat
      << ",\"environ\":" << quote(run.environ)
      << ",\"spec\":" << quote(run.spec)
      << ",\"specHash\":" << quote(run.specHash)
      << ",\"planHash\":" << quote(run.planHash)
      << ",\"binaryId\":" << quote(run.binaryId) << ",\"buildSteps\":[";
  for (std::size_t i = 0; i < run.buildSteps.size(); ++i) {
    if (i > 0) out << ",";
    out << quote(run.buildSteps[i]);
  }
  out << "],\"launch\":" << quote(run.launchCommand)
      << ",\"jobId\":" << quote(run.jobId)
      << ",\"outcome\":" << quote(run.outcome)
      << ",\"failureStage\":" << quote(run.failureStage)
      << ",\"attempts\":" << run.attempts;
  // Rendered only when present so unprobed manifests keep their bytes.
  if (!run.facets.empty()) {
    out << ",\"facets\":{";
    bool first = true;
    for (const auto& [key, value] : run.facets) {
      if (!first) out << ",";
      first = false;
      out << quote(key) << ":" << quote(value);
    }
    out << "}";
  }
  out << "}";
  return out.str();
}

RunManifest parseRun(const obs::json::Value& value) {
  RunManifest run;
  run.test = value.stringOr("test", "");
  run.target = value.stringOr("target", "");
  run.repeat = value.integerOr("repeat", 0);
  run.environ = value.stringOr("environ", "");
  run.spec = value.stringOr("spec", "");
  run.specHash = value.stringOr("specHash", "");
  run.planHash = value.stringOr("planHash", "");
  run.binaryId = value.stringOr("binaryId", "");
  if (value.contains("buildSteps")) {
    for (const obs::json::Value& step : value.at("buildSteps").array) {
      run.buildSteps.push_back(step.text);
    }
  }
  run.launchCommand = value.stringOr("launch", "");
  run.jobId = value.stringOr("jobId", "");
  run.outcome = value.stringOr("outcome", "");
  run.failureStage = value.stringOr("failureStage", "");
  run.attempts = value.integerOr("attempts", 1);
  if (value.contains("facets")) {
    for (const auto& [key, facet] : value.at("facets").object) {
      run.facets[key] = facet.text;
    }
  }
  return run;
}

}  // namespace

std::string CampaignManifest::render() const {
  std::ostringstream out;
  out << "{\"schema\":" << quote(schema)
      << ",\"invocation\":" << renderInvocation(invocation) << ",\"runs\":[";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (i > 0) out << ",";
    out << renderRun(runs[i]);
  }
  out << "],\"foms\":[";
  for (std::size_t i = 0; i < foms.size(); ++i) {
    if (i > 0) out << ",";
    out << "{\"test\":" << quote(foms[i].test)
        << ",\"target\":" << quote(foms[i].target)
        << ",\"fom\":" << quote(foms[i].fom)
        << ",\"mean\":" << str::fixed(foms[i].mean, 6)
        << ",\"ci\":" << str::fixed(foms[i].ciHalfwidth, 6)
        << ",\"ess\":" << str::fixed(foms[i].ess, 3)
        << ",\"autocorr\":" << str::fixed(foms[i].autocorr, 6)
        << ",\"repeats\":" << foms[i].repeats << "}";
  }
  out << "],\"artifacts\":[";
  for (std::size_t i = 0; i < artifacts.size(); ++i) {
    if (i > 0) out << ",";
    out << "{\"name\":" << quote(artifacts[i].name)
        << ",\"hash\":" << quote(artifacts[i].hash)
        << ",\"bytes\":" << artifacts[i].bytes << "}";
  }
  out << "]}\n";
  return out.str();
}

CampaignManifest CampaignManifest::parse(const std::string& text) {
  const obs::json::Value value = obs::json::parse(str::trim(text));
  if (!value.isObject()) throw ParseError("manifest: not a JSON object");
  CampaignManifest manifest;
  manifest.schema = value.stringOr("schema", "");
  if (manifest.schema != kManifestSchema) {
    throw Error("manifest schema '" + manifest.schema +
                "' is not supported (expected '" +
                std::string(kManifestSchema) + "')");
  }
  if (value.contains("invocation")) {
    manifest.invocation = parseInvocation(value.at("invocation"));
  }
  if (value.contains("runs")) {
    for (const obs::json::Value& run : value.at("runs").array) {
      manifest.runs.push_back(parseRun(run));
    }
  }
  if (value.contains("foms")) {
    for (const obs::json::Value& fom : value.at("foms").array) {
      FomManifest record;
      record.test = fom.stringOr("test", "");
      record.target = fom.stringOr("target", "");
      record.fom = fom.stringOr("fom", "");
      record.mean = fom.numberOr("mean", 0);
      record.ciHalfwidth = fom.numberOr("ci", 0);
      record.ess = fom.numberOr("ess", 0);
      record.autocorr = fom.numberOr("autocorr", 0);
      record.repeats = fom.integerOr("repeats", 0);
      manifest.foms.push_back(std::move(record));
    }
  }
  if (value.contains("artifacts")) {
    for (const obs::json::Value& artifact : value.at("artifacts").array) {
      ArtifactRecord record;
      record.name = artifact.stringOr("name", "");
      record.hash = artifact.stringOr("hash", "");
      record.bytes = artifact.integerOr<std::uint64_t>("bytes", 0);
      manifest.artifacts.push_back(std::move(record));
    }
  }
  return manifest;
}

std::string hashNamedBy(const std::string& filename) {
  std::string named = filename;
  if (named.starts_with("campaign-") && named.ends_with(".json")) {
    named = named.substr(9, named.size() - 14);
  }
  return ObjectStore::isHash(named) ? named : "";
}

CampaignManifest CampaignManifest::read(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot read manifest '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  const std::string named =
      hashNamedBy(std::filesystem::path(path).filename().string());
  if (!named.empty()) {
    const std::string actual = ObjectStore::hashBytes(text.str());
    if (actual != named) {
      throw Error("manifest '" + path + "' hashes to " + actual +
                  ", not to " + named + " as its name says");
    }
  }
  return parse(text.str());
}

CampaignManifest CampaignManifest::load(ObjectStore& store,
                                        const std::string& hash) {
  if (!store.contains(hash)) {
    throw Error("manifest " + hash + " is not in the store at '" +
                store.dir() + "'");
  }
  const std::optional<std::string> bytes = store.get(hash);
  if (!bytes) {
    throw Error("manifest " + hash +
                " failed verification: its bytes no longer hash to " + hash +
                ", so the store deleted it");
  }
  return parse(*bytes);
}

std::string CampaignManifest::contentHash() const {
  return Hasher{}.update(render()).hex();
}

ReplayComparison compareArtifacts(
    const CampaignManifest& manifest,
    const std::map<std::string, std::string>& replayed) {
  ReplayComparison comparison;
  for (const ArtifactRecord& recorded : manifest.artifacts) {
    auto it = replayed.find(recorded.name);
    if (it == replayed.end()) {
      comparison.missing.push_back(recorded.name);
      continue;
    }
    ReplayComparison::Artifact artifact;
    artifact.name = recorded.name;
    artifact.recordedHash = recorded.hash;
    artifact.replayedHash = Hasher{}.update(it->second).hex();
    artifact.exact = artifact.recordedHash == artifact.replayedHash;
    comparison.artifacts.push_back(std::move(artifact));
  }
  return comparison;
}

bool ReplayComparison::allExact() const {
  if (!missing.empty()) return false;
  for (const Artifact& artifact : artifacts) {
    if (!artifact.exact) return false;
  }
  return true;
}

std::string renderReplayReport(const ReplayComparison& comparison) {
  std::string out;
  std::size_t exact = 0;
  for (const ReplayComparison::Artifact& artifact : comparison.artifacts) {
    if (artifact.exact) {
      ++exact;
      out += "  artifact " + artifact.name + ": exact (" +
             artifact.recordedHash + ")\n";
    } else {
      out += "  artifact " + artifact.name + ": DIVERGENT (recorded " +
             artifact.recordedHash + ", replayed " + artifact.replayedHash +
             ")\n";
    }
  }
  for (const std::string& name : comparison.missing) {
    out += "  artifact " + name + ": MISSING (not regenerated by replay)\n";
  }
  out += "replay: " + std::to_string(exact) + "/" +
         std::to_string(comparison.artifacts.size() +
                        comparison.missing.size()) +
         " artifact(s) byte-exact\n";
  return out;
}

}  // namespace rebench::store
