#include "core/service/queue.hpp"

#include <algorithm>
#include <filesystem>
#include <set>
#include <sstream>

#include "core/fault/journal.hpp"
#include "core/obs/json.hpp"
#include "core/store/object_store.hpp"
#include "core/util/error.hpp"

namespace rebench::service {

namespace fs = std::filesystem;

namespace {

std::string submissionBody(const store::CampaignInvocation& inv) {
  return "{\"schema\":" + obs::json::quote(kSubmissionSchema) +
         ",\"invocation\":" + store::renderInvocation(inv) + "}\n";
}

}  // namespace

Submission enqueueSubmission(const std::string& queueDir,
                             const store::CampaignInvocation& inv) {
  createDirectories(queueDir);
  const std::string body = submissionBody(inv);
  Submission sub;
  sub.id = store::ObjectStore::hashBytes(body);
  sub.path = (fs::path(queueDir) / ("sub-" + sub.id + ".json")).string();
  sub.invocation = inv;
  // Content-addressed name: re-submitting the same invocation rewrites
  // the same bytes to the same file — harmless, still atomic.
  durableWriteFile(sub.path, body);
  return sub;
}

std::vector<std::string> listSubmissions(const std::string& queueDir) {
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(queueDir, ec)) {
    if (!entry.is_regular_file()) continue;
    std::string name = entry.path().filename().string();
    if (name.starts_with("sub-") && name.ends_with(".json")) {
      names.push_back(std::move(name));
    }
  }
  std::sort(names.begin(), names.end());
  for (std::string& name : names) {
    name = name.substr(4, name.size() - 9);  // drop "sub-" and ".json"
  }
  return names;
}

Submission readSubmission(const std::string& queueDir, const std::string& id) {
  Submission sub;
  sub.id = id;
  sub.path = (fs::path(queueDir) / ("sub-" + id + ".json")).string();
  try {
    const std::string body = readNamedFile(sub.path, kMaxSubmissionBytes + 1);
    if (body.size() > kMaxSubmissionBytes) {
      sub.valid = false;
      sub.error = "submission is larger than the " +
                  std::to_string(kMaxSubmissionBytes) + "-byte limit";
    } else if (store::ObjectStore::hashBytes(body) != sub.id) {
      sub.valid = false;
      sub.error = "content hash does not match filename (tampered?)";
    } else {
      const obs::json::Value value = obs::json::parse(body);
      const std::string schema = value.stringOr("schema", "");
      if (schema != kSubmissionSchema) {
        sub.valid = false;
        sub.error = "unsupported submission schema '" + schema + "'";
      } else {
        sub.invocation = store::parseInvocation(value.at("invocation"));
      }
    }
  } catch (const Error& e) {
    sub.valid = false;
    sub.error = e.what();
  }
  return sub;
}

std::vector<Submission> scanQueue(const std::string& queueDir) {
  std::vector<Submission> result;
  for (const std::string& id : listSubmissions(queueDir)) {
    result.push_back(readSubmission(queueDir, id));
  }
  return result;
}

int queueDepth(const std::string& queueDir) {
  // One listing of verdicts/, not a stat per submission: health.json is
  // refreshed after every executed verdict, so per-submission stats grow
  // with the square of a drain.
  std::set<std::string> answered;
  std::error_code ec;
  for (const auto& entry :
       fs::directory_iterator(fs::path(queueDir) / "verdicts", ec)) {
    answered.insert(entry.path().filename().string());
  }
  int depth = 0;
  for (const std::string& id : listSubmissions(queueDir)) {
    if (answered.count(id + ".json") == 0) ++depth;
  }
  return depth;
}

std::string Verdict::serialize() const {
  using obs::json::quote;
  std::ostringstream out;
  out << "{\"schema\":" << quote(kVerdictSchema)
      << ",\"submission\":" << quote(submission)
      << ",\"verdict\":" << quote(verdict) << ",\"key\":" << quote(key)
      << ",\"manifest\":" << quote(manifestHash)
      << ",\"degraded\":" << (degraded ? "true" : "false")
      << ",\"detail\":" << quote(detail) << "}\n";
  return out.str();
}

Verdict Verdict::parse(const std::string& text) {
  const obs::json::Value value = obs::json::parse(text);
  if (!value.isObject()) throw Error("verdict is not an object");
  const std::string schema = value.stringOr("schema", "");
  if (schema != kVerdictSchema) {
    throw Error("unsupported verdict schema '" + schema + "'");
  }
  Verdict verdict;
  verdict.submission = value.stringOr("submission", "");
  verdict.verdict = value.stringOr("verdict", "");
  verdict.key = value.stringOr("key", "");
  verdict.manifestHash = value.stringOr("manifest", "");
  verdict.degraded =
      value.contains("degraded") && value.at("degraded").boolean;
  verdict.detail = value.stringOr("detail", "");
  return verdict;
}

std::string verdictPath(const std::string& queueDir, const std::string& id) {
  return (fs::path(queueDir) / "verdicts" / (id + ".json")).string();
}

void writeVerdict(const std::string& queueDir, const Verdict& verdict) {
  createDirectories(fs::path(queueDir) / "verdicts");
  durableWriteFile(verdictPath(queueDir, verdict.submission),
                   verdict.serialize());
}

bool drainRequested(const std::string& queueDir) {
  return fs::exists(fs::path(queueDir) / "drain");
}

void requestDrain(const std::string& queueDir) {
  createDirectories(queueDir);
  durableWriteFile((fs::path(queueDir) / "drain").string(), "drain\n");
}

void clearDrainRequest(const std::string& queueDir) {
  std::error_code ec;
  fs::remove(fs::path(queueDir) / "drain", ec);
}

}  // namespace rebench::service
