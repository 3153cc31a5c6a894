// Write-ahead service journal (rebench::service).
//
// The daemon's crash-safety spine.  Before any externally visible step
// of executing a submission, the daemon durably appends a checkpoint:
//
//   claim     we are about to execute submission S under run key K
//   executed  the campaign ran; here is everything the verdict and the
//             history append need (manifest/perflog hashes, per-FOM
//             aggregates at full double precision, simulated seconds)
//   verdict   the verdict was decided (and is about to be filed)
//   done      the verdict file exists; S is finished
//
// A daemon killed at any point resumes by replaying the journal: a
// claim without an executed record re-runs the campaign (it never
// observably happened); an executed record without a verdict re-derives
// the verdict from the journal *without* re-executing — exactly-once
// execution — and an un-done verdict is simply re-filed.  Repeated
// claims without progress are how crash loops look from disk; the
// daemon feeds `crashedClaims` to its circuit breaker to quarantine
// submissions that keep killing it.
//
// A `done` finishes a submission: its earlier records, crash count
// included, no longer matter, and compact() drops them from the file,
// so a restart replays only unfinished submissions.
//
// Doubles are serialized with shortest-round-trip formatting
// (std::to_chars) so a resumed history append reproduces segment bytes
// exactly.
#pragma once

#include <algorithm>
#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/fault/journal.hpp"
#include "core/history/history.hpp"

namespace rebench::service {

inline constexpr std::string_view kServiceJournalSchema =
    "rebench.service_journal/1";

/// Everything an `executed` checkpoint preserves about a campaign.
struct ExecutedRecord {
  std::string key;
  std::string manifestHash;
  std::string perflogHash;
  int runs = 0;
  double simSeconds = 0.0;
  /// Per-(test, target, fom) aggregates at full precision; `autocorr`
  /// is not journaled and reads back 0.
  std::vector<history::FomAggregate> aggregates;
  /// First failure, when the campaign did not fully pass ("" = passed).
  std::string failedStage;
  std::string failureClass;
  std::string failureDetail;
};

/// A `verdict` checkpoint.
struct VerdictRecord {
  std::string verdict;
  std::string key;
  std::string manifestHash;
  bool degraded = false;
  std::string detail;
};

/// Shortest-round-trip double formatting (std::to_chars): parsing the
/// output recovers the exact bits, so journal replay is lossless.
std::string formatExact(double value);

class ServiceJournal {
 public:
  enum class State { kNone, kClaimed, kExecuted, kVerdict, kDone };

  /// Opens (creating when absent) QUEUE/service-journal.jsonl through
  /// JsonlLog and replays it.  A torn final line — the crash signature —
  /// is counted and truncated away.
  explicit ServiceJournal(const std::string& queueDir);

  static std::string pathFor(const std::string& queueDir);

  State state(const std::string& submission) const;
  /// The executed checkpoint for `submission`, when one was journaled.
  const ExecutedRecord* executed(const std::string& submission) const;
  /// The verdict checkpoint for `submission`, when one was journaled.
  const VerdictRecord* verdictOf(const std::string& submission) const;
  /// Claims that were never followed by progress before a restart —
  /// the crash-loop counter feeding the circuit breaker.
  int crashedClaims(const std::string& submission) const;

  void recordClaim(const std::string& submission, const std::string& key);
  void recordExecuted(const std::string& submission,
                      const ExecutedRecord& record);
  void recordVerdict(const std::string& submission,
                     const VerdictRecord& record);
  void recordDone(const std::string& submission);

  /// Rewrites the file to hold only the records of unfinished
  /// submissions (in submission-id order, each one's lines in their
  /// original order) and forgets the finished ones, so the state in
  /// memory is what a replay of the new file builds.  Atomic and
  /// fsynced: a crash leaves the old file or the new one.
  void compact();

  /// Whether compact() would drop anything: a submission finished since
  /// the file was opened or last compacted.
  bool compactable() const {
    return std::ranges::any_of(entries_, [](const auto& item) {
      return item.second.state == State::kDone;
    });
  }

  std::size_t corruptLines() const { return log_.corruptLines(); }
  const std::string& path() const { return log_.path(); }

 private:
  struct Entry {
    State state = State::kNone;
    std::optional<ExecutedRecord> executed;
    std::optional<VerdictRecord> verdict;
    int crashedClaims = 0;
    bool pendingClaim = false;  // replay-time: claim without progress
    /// The entry's journal lines since its last `done`, each ending in
    /// '\n': what compact() keeps of it.
    std::string lines;
  };

  /// Applies one replayed record to entries_.
  void replay(const obs::json::Value& record, std::string_view line);
  /// What `done` leaves of an entry: its state alone.
  static void finish(Entry& entry);
  /// Appends `line` to the file and to the submission's entry.
  Entry& append(const std::string& submission, std::string_view line);

  std::map<std::string, Entry> entries_;
  JsonlLog log_;  // after entries_: replaying it fills them
};

}  // namespace rebench::service
