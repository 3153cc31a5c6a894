#include "core/store/manifest.hpp"

#include <filesystem>
#include <sstream>

#include "core/fault/journal.hpp"
#include "core/obs/json.hpp"
#include "core/store/object_store.hpp"
#include "core/util/error.hpp"
#include "core/util/hash.hpp"
#include "core/util/strings.hpp"

namespace rebench::store {

namespace {

using obs::json::quote;

/// One JSON object rendered as (key, JSON text) pairs in schema order.
using Fields = std::vector<std::pair<std::string_view, std::string>>;

/// Renders `fields` as one JSON object.  With `before`, every key after
/// the first `keep` whose text equals that key's text in `before` is
/// omitted.
void renderObject(std::ostream& out, const Fields& fields,
                  const Fields* before = nullptr, std::size_t keep = 0) {
  out << "{";
  const char* separator = "";
  for (std::size_t k = 0; k < fields.size(); ++k) {
    if (before != nullptr && k >= keep &&
        fields[k].second == (*before)[k].second) {
      continue;
    }
    out << separator << '"' << fields[k].first << "\":" << fields[k].second;
    separator = ",";
  }
  out << "}";
}

Fields invocationFields(const CampaignInvocation& inv) {
  std::string settings = "[";
  for (const auto& [key, value] : inv.settings) {
    if (settings.size() > 1) settings += ",";
    settings += "[" + quote(key) + "," + quote(value) + "]";
  }
  return {{"mode", quote(inv.mode)},
          {"system", quote(inv.system)},
          {"account", quote(inv.account)},
          {"repeats", std::to_string(inv.repeats)},
          {"benchmark", quote(inv.benchmark)},
          {"ntimes", std::to_string(inv.ntimes)},
          {"settings", settings + "]"},
          {"tag", quote(inv.tag)},
          {"n", quote(inv.namePattern)},
          {"x", quote(inv.excludePattern)},
          {"faults", quote(inv.faults)},
          {"retries", std::to_string(inv.retries)},
          {"backoffBase", str::fixed(inv.backoffBase, 6)},
          {"backoffMultiplier", str::fixed(inv.backoffMultiplier, 6)},
          {"backoffMax", str::fixed(inv.backoffMax, 6)},
          {"quarantineAfter", std::to_string(inv.quarantineAfter)},
          {"stageTimeout", str::fixed(inv.stageTimeout, 6)},
          {"lanes", std::to_string(inv.lanes)},
          {"ciHalfwidth", str::fixed(inv.ciHalfwidth, 6)},
          {"minRepeats", std::to_string(inv.minRepeats)},
          {"maxRepeats", std::to_string(inv.maxRepeats)},
          {"withStore", inv.withStore ? "true" : "false"},
          {"cache", inv.cache ? "true" : "false"},
          {"probe", quote(inv.probe)}};
}

}  // namespace

std::string renderInvocation(const CampaignInvocation& inv) {
  static const Fields kUnset = invocationFields(CampaignInvocation{});
  std::ostringstream out;
  renderObject(out, invocationFields(inv), &kUnset, 2);  // mode, system
  return out.str();
}

std::string renderFullInvocation(const CampaignInvocation& inv) {
  std::ostringstream out;
  renderObject(out, invocationFields(inv));
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

Fields runFields(const RunManifest& run) {
  std::string steps = "[";
  for (const std::string& step : run.buildSteps) {
    if (steps.size() > 1) steps += ",";
    steps += quote(step);
  }
  std::string facets = "{";
  for (const auto& [key, value] : run.facets) {
    if (facets.size() > 1) facets += ",";
    facets += quote(key) + ":" + quote(value);
  }
  return {{"test", quote(run.test)},
          {"target", quote(run.target)},
          {"repeat", std::to_string(run.repeat)},
          {"environ", quote(run.environ)},
          {"spec", quote(run.spec)},
          {"specHash", quote(run.specHash)},
          {"planHash", quote(run.planHash)},
          {"binaryId", quote(run.binaryId)},
          {"buildSteps", steps + "]"},
          {"launch", quote(run.launchCommand)},
          {"jobId", quote(run.jobId)},
          {"outcome", quote(run.outcome)},
          {"failureStage", quote(run.failureStage)},
          {"attempts", std::to_string(run.attempts)},
          {"facets", facets + "}"}};
}

Fields fomFields(const FomManifest& fom) {
  return {{"test", quote(fom.test)},
          {"target", quote(fom.target)},
          {"fom", quote(fom.fom)},
          {"mean", str::fixed(fom.mean, 6)},
          {"ci", str::fixed(fom.ciHalfwidth, 6)},
          {"ess", str::fixed(fom.ess, 3)},
          {"autocorr", str::fixed(fom.autocorr, 6)},
          {"repeats", std::to_string(fom.repeats)}};
}

/// Renders `entries` as a JSON array whose objects omit every key whose
/// text equals the entry before's; the first is compared with Entry{}.
template <typename Entry>
void renderOmitEqual(std::ostream& out, const std::vector<Entry>& entries,
                     Fields (*fields)(const Entry&)) {
  Fields before = fields(Entry{});
  out << "[";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    Fields now = fields(entries[i]);
    if (i > 0) out << ",";
    renderObject(out, now, &before);
    before = std::move(now);
  }
  out << "]";
}

/// The run `value` records over `run`: the entry before it in a
/// rebench.manifest/2, RunManifest{} in a /1.
RunManifest parseRun(const obs::json::Value& value, RunManifest run) {
  run.test = value.stringOr("test", run.test);
  run.target = value.stringOr("target", run.target);
  run.repeat = value.integerOr("repeat", run.repeat);
  run.environ = value.stringOr("environ", run.environ);
  run.spec = value.stringOr("spec", run.spec);
  run.specHash = value.stringOr("specHash", run.specHash);
  run.planHash = value.stringOr("planHash", run.planHash);
  run.binaryId = value.stringOr("binaryId", run.binaryId);
  if (value.contains("buildSteps")) {
    run.buildSteps.clear();
    for (const obs::json::Value& step : value.at("buildSteps").array) {
      run.buildSteps.push_back(step.text);
    }
  }
  run.launchCommand = value.stringOr("launch", run.launchCommand);
  run.jobId = value.stringOr("jobId", run.jobId);
  run.outcome = value.stringOr("outcome", run.outcome);
  run.failureStage = value.stringOr("failureStage", run.failureStage);
  run.attempts = value.integerOr("attempts", run.attempts);
  if (value.contains("facets")) {
    run.facets.clear();
    for (const auto& [key, facet] : value.at("facets").object) {
      run.facets[key] = facet.text;
    }
  }
  return run;
}

FomManifest parseFom(const obs::json::Value& value, FomManifest fom) {
  fom.test = value.stringOr("test", fom.test);
  fom.target = value.stringOr("target", fom.target);
  fom.fom = value.stringOr("fom", fom.fom);
  fom.mean = value.numberOr("mean", fom.mean);
  fom.ciHalfwidth = value.numberOr("ci", fom.ciHalfwidth);
  fom.ess = value.numberOr("ess", fom.ess);
  fom.autocorr = value.numberOr("autocorr", fom.autocorr);
  fom.repeats = value.integerOr("repeats", fom.repeats);
  return fom;
}

/// Parses the entries of `array`, each over the entry before it (`ditto`,
/// rebench.manifest/2) or over Entry{} (/1).
template <typename Entry>
std::vector<Entry> parseEntries(
    const obs::json::Value& array, bool ditto,
    Entry (*parseEntry)(const obs::json::Value&, Entry)) {
  std::vector<Entry> entries;
  for (const obs::json::Value& value : array.array) {
    entries.push_back(parseEntry(
        value, ditto && !entries.empty() ? entries.back() : Entry{}));
  }
  return entries;
}

}  // namespace

std::string CampaignManifest::render() const {
  std::ostringstream out;
  out << "{\"schema\":" << quote(kManifestSchema)
      << ",\"invocation\":" << renderInvocation(invocation) << ",\"runs\":";
  renderOmitEqual(out, runs, runFields);
  out << ",\"foms\":";
  renderOmitEqual(out, foms, fomFields);
  out << ",\"artifacts\":[";
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
  const std::string schema = value.stringOr("schema", "");
  if (schema != kManifestSchema && schema != kManifestSchemaV1) {
    throw Error("manifest schema '" + schema +
                "' is not supported (expected '" +
                std::string(kManifestSchema) + "' or '" +
                std::string(kManifestSchemaV1) + "')");
  }
  const bool ditto = schema == kManifestSchema;
  CampaignManifest manifest;
  if (value.contains("invocation")) {
    manifest.invocation = parseInvocation(value.at("invocation"));
  }
  if (value.contains("runs")) {
    manifest.runs = parseEntries(value.at("runs"), ditto, parseRun);
  }
  if (value.contains("foms")) {
    manifest.foms = parseEntries(value.at("foms"), ditto, parseFom);
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
  const std::string text = readNamedFile(path);
  const std::string named =
      hashNamedBy(std::filesystem::path(path).filename().string());
  if (!named.empty()) {
    const std::string actual = ObjectStore::hashBytes(text);
    if (actual != named) {
      throw Error("manifest '" + path + "' hashes to " + actual +
                  ", not to " + named + " as its name says");
    }
  }
  return parse(text);
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
