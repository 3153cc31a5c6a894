// The continuous-benchmarking daemon (rebench::service).
//
// `rebench serve --store DIR --queue DIR` drains the filesystem
// submission queue, answering each submission with a verdict file:
//
//   cached           run key warm in the RunCache: nothing re-executed
//   ran:clean        executed; regression gate found nothing
//   ran:regressed    executed; gate flagged at least one touched series
//   failed:<class>   malformed / execution failure / watchdog /
//                    quarantined — the class names the taxonomy bucket
//
// Robustness envelope (ISSUE 7):
//   * write-ahead service journal — a killed daemon resumes in-flight
//     submissions exactly once (see service/journal.hpp); each pass
//     compacts it to the unfinished submissions, so a restart replays
//     only those
//   * per-stage + per-submission watchdogs — hung work becomes a
//     classified infrastructure failure, not a stuck daemon
//   * circuit breaker — submissions that repeatedly crash the daemon
//     (claims without progress in the journal) are quarantined
//   * graceful drain — QUEUE/drain sentinel or SIGTERM/SIGINT finishes
//     the submission in flight, snapshots health.json and exits
//   * health — QUEUE/health.json is snapshotted at start, after each
//     executed verdict, at the end of each pass that filed a cached or
//     direct verdict, and at exit; the --listen endpoint's counters
//     follow every verdict
//   * queue lease — a daemon holds an flock on QUEUE/lock while it runs,
//     so a second daemon on the same queue refuses to start instead of
//     executing every submission again
//   * degraded mode — an unreadable history head or a corrupt RunCache
//     record never stops the daemon: it executes anyway and marks the
//     verdict degraded
//
// Everything the daemon writes (verdicts, history, traces) derives from
// simulated clocks and canonical orders, so a fixed queue processed with
// --once yields byte-identical outputs at any --jobs width — and a
// crash-resumed daemon converges on the same bytes.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/framework/regression_test.hpp"
#include "core/pkg/recipe.hpp"
#include "core/store/manifest.hpp"
#include "core/sysconfig/system_config.hpp"
#include "core/util/error.hpp"

namespace rebench::obs {
class Tracer;
class MetricsRegistry;
}  // namespace rebench::obs

namespace rebench::service {

/// Maps an invocation to the tests it runs.  Injected by the CLI (which
/// knows the benchmarks and the builtin suite) so the service layer has
/// no benchmark dependencies; tests inject synthetic fixtures.
using TestResolver = std::function<std::vector<RegressionTest>(
    const store::CampaignInvocation&)>;

struct ServeOptions {
  std::string queueDir;
  std::string storeDir;
  /// Process the queue once and exit (the testable mode); false = keep
  /// polling until drain/shutdown.
  bool once = true;
  /// Campaign-level worker count inside each submission (never changes
  /// output bytes).
  int jobs = 1;
  /// Crash-loop quarantine: claims without journal progress before a
  /// submission is refused.
  int quarantineAfter = 3;
  /// Default per-stage deadline applied to submissions that set none.
  double stageTimeout = -1.0;
  /// Whole-submission deadline in simulated seconds; <= 0 = none.
  double submissionTimeout = -1.0;
  /// Test hook: simulate a kill -9 immediately after the named journal
  /// checkpoint ("claim" | "executed" | "verdict"); "" = never.
  std::string crashAfter;
  /// "HOST:PORT" to expose the live status endpoint (rebench serve
  /// --listen); port 0 binds an ephemeral port.  The bound address is
  /// published to QUEUE/endpoint.addr for discovery.  "" = no endpoint.
  /// The endpoint is read-only and never changes campaign output bytes.
  std::string listen;
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  /// Per-submission progress lines ("<id> <verdict>"); null = silent.
  std::ostream* log = nullptr;
};

struct ServeReport {
  int processed = 0;    // submissions visited this run
  int cached = 0;       // answered from the RunCache
  int executed = 0;     // campaigns actually run this process
  int clean = 0;        // ran:clean verdicts
  int regressed = 0;    // ran:regressed verdicts
  int failed = 0;       // failed:* verdicts (incl. malformed + watchdog)
  int quarantined = 0;  // refused by the crash-loop breaker
  int degraded = 0;     // verdicts served with reduced guarantees
  int malformed = 0;    // tampered / unparseable submissions
  int watchdogFires = 0;
  bool drained = false;  // stopped by drain sentinel or shutdown request
  bool crashed = false;  // the crash-after test hook fired
  int queueDepth = 0;    // unanswered submissions at exit
  /// HTTP requests answered by the status endpoint ("" listen = 0).
  std::uint64_t endpointRequests = 0;
  /// Address the status endpoint bound ("" when --listen was not given).
  std::string endpointAddress;
};

/// Service::run found another daemon holding the queue's lease.
class QueueBusyError : public Error {
 public:
  using Error::Error;
};

class Service {
 public:
  Service(const SystemRegistry& systems, const PackageRepository& repo,
          ServeOptions options, TestResolver resolver);

  /// Drains the queue (once or until drained/shut down), reading each
  /// submission at its turn, compacting the service journal after each
  /// pass that finished one through it, and snapshots QUEUE/health.json
  /// (see above), holding an flock on QUEUE/lock throughout; when
  /// another daemon holds it, throws QueueBusyError having written
  /// nothing.  Otherwise throws rebench::Error only on unusable
  /// queue/store directories — per-submission failures become verdicts.
  ServeReport run();

  /// Signal-handler-safe shutdown request (the CLI's SIGTERM/SIGINT
  /// handler calls this); acts like a drain sentinel.  Cleared when
  /// run() starts.
  static void requestShutdown();
  static bool shutdownRequested();

 private:
  const SystemRegistry& systems_;
  const PackageRepository& repo_;
  ServeOptions options_;
  TestResolver resolver_;
};

}  // namespace rebench::service
