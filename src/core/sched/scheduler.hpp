// Discrete-event job-scheduler simulation (SLURM/PBS stand-in).
//
// The benchmarking framework of the paper drives real SLURM/PBS through
// ReFrame; here the identical submission surface (tasks / tasks-per-node /
// cpus-per-task, qos, account, time limits) is exercised against a
// simulated cluster.  Jobs carry a payload functor that is invoked when the
// job starts; the payload reports its *simulated* runtime and stdout, and
// the scheduler schedules the completion event accordingly.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace rebench {

namespace obs {
class Tracer;
class MetricsRegistry;
}  // namespace obs

using JobId = std::uint64_t;

/// Where a started job's tasks were placed.
struct Allocation {
  std::vector<int> nodeIds;  // one entry per allocated node
  int numTasks = 1;
  int tasksPerNode = 1;
  int cpusPerTask = 1;
};

/// What a payload reports back.
struct JobOutcome {
  bool success = true;
  double runtimeSeconds = 0.0;  // simulated wall-clock of the job itself
  std::string stdoutText;
};

/// A scheduler-level fault injected into one job (rebench::fault drives
/// this deterministically; the scheduler just executes the script).  The
/// fault strikes once, at `atFraction` of the job's first execution.
struct InjectedJobFault {
  enum class Kind {
    /// The node(s) running the job die: the job ends NODE_FAIL and the
    /// nodes are drained (removed from capacity) for the rest of this
    /// scheduler instance's lifetime.
    kNodeFailure,
    /// The job is preempted and requeued; it reruns from the start.
    kPreemption,
  };
  Kind kind = Kind::kNodeFailure;
  double atFraction = 0.5;  // clamped to (0, 1)
};

struct JobRequest {
  std::string name;
  int numTasks = 1;
  /// 0 means "pack as many as fit per node".
  int numTasksPerNode = 0;
  int numCpusPerTask = 1;
  double timeLimit = 3600.0;
  std::string qos = "standard";
  std::string account;
  std::function<JobOutcome(const Allocation&)> payload;
  /// Optional injected fault (applies to the first execution only).
  std::optional<InjectedJobFault> fault;
};

enum class JobState {
  kPending,
  kRunning,
  kCompleted,
  kFailed,
  kCancelled,
  kTimeout,
  kNodeFail,
};

std::string_view jobStateName(JobState s);

struct JobInfo {
  JobId id = 0;
  std::string name;
  std::string account;
  std::string qos;
  JobState state = JobState::kPending;
  double submitTime = 0.0;
  double startTime = -1.0;
  double endTime = -1.0;
  Allocation allocation;
  JobOutcome outcome;
  /// Human-readable pending/failure reason (e.g. "Resources").
  std::string reason;
  /// Times this job was preempted and requeued.
  int requeues = 0;
};

/// Seconds of scheduler latency between submission and earliest start.
inline constexpr double kSchedulingLatencySeconds = 1.0;

/// Simulated-cluster shape and policy.
struct ClusterOptions {
  int numNodes = 4;
  int coresPerNode = 16;
  bool requireAccount = false;
  std::vector<std::string> validQos = {"standard"};
};

/// FIFO + conservative backfill scheduler over a homogeneous cluster.
class SchedulerSim {
 public:
  explicit SchedulerSim(ClusterOptions options);

  /// Attaches observability hooks (both nullable).  Job lifecycle
  /// transitions are emitted as `sched.submit`/`sched.start`/
  /// `sched.finish` trace events stamped `traceTimeBase + now()` (the
  /// scheduler's timeline starts at zero per instance; the base aligns it
  /// with the caller's trace clock), and queue depth / wait times are
  /// recorded in the registry.
  void setObservability(obs::Tracer* tracer, obs::MetricsRegistry* metrics,
                        double traceTimeBase = 0.0);

  /// Validates the request (account/qos/size) and enqueues it.
  /// Throws SchedulerError for requests the real scheduler would reject.
  JobId submit(JobRequest request);

  /// Cancels a pending or running job.
  void cancel(JobId id);

  /// Advances simulated time until all submitted jobs reach a final state.
  void drain();

  /// Advances simulated time by at most `seconds`.
  void advance(double seconds);

  const JobInfo& query(JobId id) const;
  double now() const { return now_; }

  /// Total core-seconds consumed per account (sacct-style accounting).
  std::map<std::string, double> accountingCoreSeconds() const;

  int idleCores() const;
  int totalCores() const {
    return options_.numNodes * options_.coresPerNode;
  }
  /// Nodes drained by injected node failures.
  int downNodes() const;

 private:
  struct Node {
    int freeCores = 0;
    bool down = false;
  };

  /// Bounds-checked mutable access; throws SchedulerError on invalid ids.
  JobInfo& jobAt(JobId id);
  bool tryStart(JobInfo& job);
  void finish(JobInfo& job, double endTime);
  void noteQueueDepth();
  void releaseNodes(const JobInfo& job);
  void failNodes(JobInfo& job, double failTime);
  void preempt(JobInfo& job, double preemptTime);
  void scheduleLoop();
  std::optional<double> nextEventTime() const;
  void processEventsAt(double time);

  ClusterOptions options_;
  std::vector<Node> nodes_;
  std::vector<JobInfo> jobs_;          // indexed by JobId - 1
  std::vector<JobRequest> requests_;   // parallel to jobs_
  std::vector<JobId> pendingQueue_;    // FIFO order
  std::map<JobId, double> endEvents_;  // running job -> completion time
  std::map<JobId, double> faultEvents_;  // running job -> fault strike time
  double now_ = 0.0;

  obs::Tracer* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  double traceTimeBase_ = 0.0;
};

}  // namespace rebench
