#include "core/service/journal.hpp"

#include <charconv>
#include <filesystem>
#include <sstream>
#include <utility>

#include "core/obs/json.hpp"
#include "core/util/error.hpp"

namespace rebench::service {

namespace {

using obs::json::quote;

std::string renderExecuted(const std::string& submission,
                           const ExecutedRecord& record) {
  std::ostringstream out;
  out << "{\"kind\":\"executed\",\"submission\":" << quote(submission)
      << ",\"key\":" << quote(record.key)
      << ",\"manifest\":" << quote(record.manifestHash)
      << ",\"perflog\":" << quote(record.perflogHash)
      << ",\"runs\":" << record.runs
      << ",\"sim_seconds\":" << formatExact(record.simSeconds)
      << ",\"aggregates\":[";
  for (std::size_t i = 0; i < record.aggregates.size(); ++i) {
    const AggregateRecord& agg = record.aggregates[i];
    if (i > 0) out << ",";
    out << "{\"test\":" << quote(agg.test)
        << ",\"target\":" << quote(agg.target)
        << ",\"fom\":" << quote(agg.fom)
        << ",\"spec\":" << quote(agg.specHash)
        << ",\"mean\":" << formatExact(agg.mean)
        << ",\"min\":" << formatExact(agg.min)
        << ",\"max\":" << formatExact(agg.max)
        << ",\"ci\":" << formatExact(agg.ci)
        << ",\"ess\":" << formatExact(agg.ess)
        << ",\"repeats\":" << agg.repeats << "}";
  }
  out << "],\"failedStage\":" << quote(record.failedStage)
      << ",\"failureClass\":" << quote(record.failureClass)
      << ",\"failureDetail\":" << quote(record.failureDetail) << "}";
  return out.str();
}

ExecutedRecord parseExecuted(const obs::json::Value& value) {
  ExecutedRecord record;
  record.key = value.stringOr("key", "");
  record.manifestHash = value.stringOr("manifest", "");
  record.perflogHash = value.stringOr("perflog", "");
  record.runs = value.integerOr("runs", 0);
  record.simSeconds = value.numberOr("sim_seconds", 0.0);
  if (value.contains("aggregates")) {
    for (const obs::json::Value& item : value.at("aggregates").array) {
      AggregateRecord agg;
      agg.test = item.stringOr("test", "");
      agg.target = item.stringOr("target", "");
      agg.fom = item.stringOr("fom", "");
      agg.specHash = item.stringOr("spec", "");
      agg.mean = item.numberOr("mean", 0.0);
      agg.min = item.numberOr("min", 0.0);
      agg.max = item.numberOr("max", 0.0);
      agg.ci = item.numberOr("ci", 0.0);
      agg.ess = item.numberOr("ess", 0.0);
      agg.repeats = item.integerOr("repeats", 0);
      record.aggregates.push_back(std::move(agg));
    }
  }
  record.failedStage = value.stringOr("failedStage", "");
  record.failureClass = value.stringOr("failureClass", "");
  record.failureDetail = value.stringOr("failureDetail", "");
  return record;
}

}  // namespace

std::string formatExact(double value) {
  char buffer[32];
  const auto [ptr, ec] =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  if (ec != std::errc()) throw Error("cannot format double");
  return std::string(buffer, ptr);
}

std::string ServiceJournal::pathFor(const std::string& queueDir) {
  return (std::filesystem::path(queueDir) / "service-journal.jsonl")
      .string();
}

ServiceJournal::ServiceJournal(const std::string& queueDir)
    : log_(pathFor(queueDir), kServiceJournalSchema, Durability::kFsync,
           [this](const obs::json::Value& record, std::string_view line) {
             replay(record, line);
           }) {
  // A claim still pending at end-of-load is the same crash signature.
  for (auto& [id, entry] : entries_) {
    if (entry.pendingClaim) {
      ++entry.crashedClaims;
      entry.pendingClaim = false;
    }
  }
}

void ServiceJournal::replay(const obs::json::Value& record,
                            std::string_view line) {
  const std::string kind = record.stringOr("kind", "");
  const std::string id = record.stringOr("submission", "");
  if (id.empty()) return;
  Entry& entry = entries_[id];
  entry.lines += line;
  entry.lines += '\n';
  if (kind == "claim") {
    // A claim while one is already pending means a previous daemon
    // died between claim and executed — a crash loop in the making.
    if (entry.pendingClaim) ++entry.crashedClaims;
    entry.pendingClaim = true;
    entry.state = State::kClaimed;
  } else if (kind == "executed") {
    entry.pendingClaim = false;
    entry.state = State::kExecuted;
    entry.executed = parseExecuted(record);
  } else if (kind == "verdict") {
    entry.pendingClaim = false;
    entry.state = State::kVerdict;
    VerdictRecord verdict;
    verdict.verdict = record.stringOr("verdict", "");
    verdict.key = record.stringOr("key", "");
    verdict.manifestHash = record.stringOr("manifest", "");
    verdict.degraded =
        record.contains("degraded") && record.at("degraded").boolean;
    verdict.detail = record.stringOr("detail", "");
    entry.verdict = verdict;
  } else if (kind == "done") {
    finish(entry);
  }
}

void ServiceJournal::finish(Entry& entry) {
  // Swapped, not assigned: assigning Entry{} keeps the old lines' buffer
  // (a moved-in empty string leaves the capacity), one per submission.
  Entry finished;
  finished.state = State::kDone;
  std::swap(entry, finished);
}

ServiceJournal::State ServiceJournal::state(
    const std::string& submission) const {
  auto it = entries_.find(submission);
  return it == entries_.end() ? State::kNone : it->second.state;
}

const ExecutedRecord* ServiceJournal::executed(
    const std::string& submission) const {
  auto it = entries_.find(submission);
  if (it == entries_.end() || !it->second.executed) return nullptr;
  return &*it->second.executed;
}

const VerdictRecord* ServiceJournal::verdictOf(
    const std::string& submission) const {
  auto it = entries_.find(submission);
  if (it == entries_.end() || !it->second.verdict) return nullptr;
  return &*it->second.verdict;
}

int ServiceJournal::crashedClaims(const std::string& submission) const {
  auto it = entries_.find(submission);
  return it == entries_.end() ? 0 : it->second.crashedClaims;
}

ServiceJournal::Entry& ServiceJournal::append(const std::string& submission,
                                              std::string_view line) {
  log_.append(line);
  Entry& entry = entries_[submission];
  entry.lines += line;
  entry.lines += '\n';
  return entry;
}

void ServiceJournal::recordClaim(const std::string& submission,
                                 const std::string& key) {
  Entry& entry = append(submission, "{\"kind\":\"claim\",\"submission\":" +
                                        quote(submission) +
                                        ",\"key\":" + quote(key) + "}");
  entry.state = State::kClaimed;
}

void ServiceJournal::recordExecuted(const std::string& submission,
                                    const ExecutedRecord& record) {
  Entry& entry = append(submission, renderExecuted(submission, record));
  entry.state = State::kExecuted;
  entry.executed = record;
}

void ServiceJournal::recordVerdict(const std::string& submission,
                                   const VerdictRecord& record) {
  Entry& entry = append(
      submission,
      "{\"kind\":\"verdict\",\"submission\":" + quote(submission) +
          ",\"verdict\":" + quote(record.verdict) +
          ",\"key\":" + quote(record.key) +
          ",\"manifest\":" + quote(record.manifestHash) +
          ",\"degraded\":" + (record.degraded ? "true" : "false") +
          ",\"detail\":" + quote(record.detail) + "}");
  entry.state = State::kVerdict;
  entry.verdict = record;
}

void ServiceJournal::recordDone(const std::string& submission) {
  log_.append("{\"kind\":\"done\",\"submission\":" + quote(submission) +
              "}");
  finish(entries_[submission]);
}

void ServiceJournal::compact() {
  std::string records;
  for (const auto& [id, entry] : entries_) records += entry.lines;
  log_.rewrite(records);
  std::erase_if(entries_, [](const auto& item) {
    return item.second.state == State::kDone;
  });
}

}  // namespace rebench::service
