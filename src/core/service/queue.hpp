// Filesystem submission queue (rebench::service).
//
// The serve daemon has no socket: work arrives as files in a spool
// directory, the oldest portable IPC there is.  `rebench submit` (or a
// test, or a cron job) renders a campaign invocation into a JSON
// submission body, names the file by the body's content hash and drops
// it in with tmp + atomic rename — so a submission is always observed
// whole, duplicate submissions collapse onto one file, and a reader can
// detect tampering by re-hashing the bytes.  The daemon reads each
// submission at its turn, refusing any file over kMaxSubmissionBytes
// without reading the rest of it, and answers it with a verdict file in
// QUEUE/verdicts/, written durably so a crash after the verdict cannot
// lose it.
//
//   QUEUE/sub-<hash>.json        {"schema":"rebench.submission/1",
//                                 "invocation":{...}}  (unset keys
//                                 omitted: store::renderInvocation)
//   QUEUE/verdicts/<hash>.json   {"schema":"rebench.verdict/1", ...}
//   QUEUE/drain                  sentinel: finish current, then stop
//   QUEUE/service-journal.jsonl  write-ahead state (service/journal)
//   QUEUE/health.json            snapshot: at start, per executed verdict,
//                                per pass that filed others, at exit
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "core/store/manifest.hpp"

namespace rebench::service {

inline constexpr std::string_view kSubmissionSchema = "rebench.submission/1";
inline constexpr std::string_view kVerdictSchema = "rebench.verdict/1";

/// The largest submission file read: `submit` writes well under 1 KB, so a
/// bigger file is answered as invalid rather than read and parsed whole.
inline constexpr std::size_t kMaxSubmissionBytes = std::size_t{1} << 20;

/// One queued submission as scanned from the spool directory.
struct Submission {
  std::string id;    // content hash, also the filename stem suffix
  std::string path;  // full path of the submission file
  store::CampaignInvocation invocation;
  /// False when the file was tampered with (hash mismatch) or malformed;
  /// `error` then says why.  Invalid submissions still get verdicts —
  /// silently dropping work is how queues rot.
  bool valid = true;
  std::string error;
};

/// Renders `inv` into a submission file under `queueDir` (created when
/// absent) via tmp + atomic rename.  Idempotent: the same invocation
/// always lands on the same file.  Returns the submission (id + path).
Submission enqueueSubmission(const std::string& queueDir,
                             const store::CampaignInvocation& inv);

/// Ids of the sub-*.json files in `queueDir`, sorted by filename so every
/// scan order — and therefore every verdict order — is deterministic.
/// A directory listing alone: no submission is read.
std::vector<std::string> listSubmissions(const std::string& queueDir);

/// Reads QUEUE/sub-<id>.json, hash-verifies and parses it; a tampered,
/// malformed or unreadable file yields valid=false with `error` set, and
/// so does one over kMaxSubmissionBytes, of which at most one byte past
/// the limit is read.
Submission readSubmission(const std::string& queueDir, const std::string& id);

/// listSubmissions + readSubmission for each: every queued submission,
/// invalid ones included rather than skipped.
std::vector<Submission> scanQueue(const std::string& queueDir);

/// Listed submissions without a verdict file — the queue depth that each
/// health snapshot reports — from directory entries alone.
int queueDepth(const std::string& queueDir);

/// The daemon's answer to one submission.
struct Verdict {
  std::string submission;  // submission id
  /// "cached" | "ran:clean" | "ran:regressed" | "failed:<taxonomy>"
  std::string verdict;
  std::string key;           // run-memoization key ("" when never derived)
  std::string manifestHash;  // campaign manifest hash ("" when never ran)
  bool degraded = false;     // served with reduced guarantees (see DESIGN §14)
  std::string detail;

  /// One-line JSON, deterministic key order.  Deliberately excludes
  /// anything scheduling- or attempt-dependent so a crash-resumed daemon
  /// reproduces verdict bytes exactly.
  std::string serialize() const;
  static Verdict parse(const std::string& text);
};

/// QUEUE/verdicts/<id>.json
std::string verdictPath(const std::string& queueDir, const std::string& id);

/// Durably writes (tmp + fsync + rename) the verdict file.
void writeVerdict(const std::string& queueDir, const Verdict& verdict);

/// Drain sentinel: when QUEUE/drain exists the daemon finishes the
/// submission in flight, snapshots health and exits cleanly.
bool drainRequested(const std::string& queueDir);
void requestDrain(const std::string& queueDir);
void clearDrainRequest(const std::string& queueDir);

}  // namespace rebench::service
