#include "core/sched/scheduler.hpp"

#include <algorithm>
#include <limits>

#include "core/obs/trace.hpp"
#include "core/util/error.hpp"

namespace rebench {

std::string_view jobStateName(JobState s) {
  switch (s) {
    case JobState::kPending: return "PENDING";
    case JobState::kRunning: return "RUNNING";
    case JobState::kCompleted: return "COMPLETED";
    case JobState::kFailed: return "FAILED";
    case JobState::kCancelled: return "CANCELLED";
    case JobState::kTimeout: return "TIMEOUT";
    case JobState::kNodeFail: return "NODE_FAIL";
  }
  return "UNKNOWN";
}

SchedulerSim::SchedulerSim(ClusterOptions options)
    : options_(std::move(options)) {
  REBENCH_REQUIRE(options_.numNodes > 0 && options_.coresPerNode > 0);
  nodes_.resize(options_.numNodes);
  for (Node& node : nodes_) node.freeCores = options_.coresPerNode;
}

void SchedulerSim::setObservability(obs::Tracer* tracer,
                                    obs::MetricsRegistry* metrics,
                                    double traceTimeBase) {
  tracer_ = tracer;
  metrics_ = metrics;
  traceTimeBase_ = traceTimeBase;
}

void SchedulerSim::noteQueueDepth() {
  if (metrics_ != nullptr) {
    metrics_->gauge("sched.queue_depth")
        .set(static_cast<double>(pendingQueue_.size()));
  }
}

JobId SchedulerSim::submit(JobRequest request) {
  if (options_.requireAccount && request.account.empty()) {
    throw SchedulerError(
        "sbatch: error: Batch job submission failed: "
        "Invalid account or account/partition combination specified");
  }
  if (!options_.validQos.empty() &&
      std::find(options_.validQos.begin(), options_.validQos.end(),
                request.qos) == options_.validQos.end()) {
    throw SchedulerError("sbatch: error: Invalid qos specification: " +
                         request.qos);
  }
  if (request.numTasks <= 0 || request.numCpusPerTask <= 0 ||
      request.numTasksPerNode < 0) {
    throw SchedulerError("invalid geometry for job '" + request.name + "'");
  }
  int tasksPerNode = request.numTasksPerNode;
  if (tasksPerNode == 0) {
    tasksPerNode =
        std::max(1, options_.coresPerNode / request.numCpusPerTask);
  }
  if (tasksPerNode * request.numCpusPerTask > options_.coresPerNode) {
    throw SchedulerError(
        "job '" + request.name + "' needs " +
        std::to_string(tasksPerNode * request.numCpusPerTask) +
        " cores per node but nodes have " +
        std::to_string(options_.coresPerNode));
  }
  const int nodesNeeded =
      (request.numTasks + tasksPerNode - 1) / tasksPerNode;
  if (nodesNeeded > options_.numNodes) {
    throw SchedulerError("job '" + request.name + "' needs " +
                         std::to_string(nodesNeeded) +
                         " nodes but the partition has " +
                         std::to_string(options_.numNodes));
  }
  if (!request.payload) {
    throw SchedulerError("job '" + request.name + "' has no payload");
  }

  JobInfo job;
  job.id = jobs_.size() + 1;
  job.name = request.name;
  job.account = request.account;
  job.qos = request.qos;
  job.submitTime = now_;
  job.allocation.numTasks = request.numTasks;
  job.allocation.tasksPerNode = tasksPerNode;
  job.allocation.cpusPerTask = request.numCpusPerTask;
  job.reason = "Priority";
  jobs_.push_back(std::move(job));
  requests_.push_back(std::move(request));
  pendingQueue_.push_back(jobs_.back().id);
  if (metrics_ != nullptr) metrics_->counter("sched.submitted").inc();
  noteQueueDepth();
  if (tracer_ != nullptr) {
    tracer_->eventAt(traceTimeBase_ + now_, "sched.submit",
                     {{"job", std::to_string(jobs_.back().id)},
                      {"name", jobs_.back().name}});
  }
  return jobs_.back().id;
}

JobInfo& SchedulerSim::jobAt(JobId id) {
  if (id == 0 || id > jobs_.size()) {
    throw SchedulerError("unknown job id " + std::to_string(id));
  }
  return jobs_[id - 1];
}

void SchedulerSim::cancel(JobId id) {
  JobInfo& job = jobAt(id);
  if (job.state == JobState::kPending) {
    pendingQueue_.erase(
        std::remove(pendingQueue_.begin(), pendingQueue_.end(), id),
        pendingQueue_.end());
    job.state = JobState::kCancelled;
    job.endTime = now_;
    noteQueueDepth();
  } else if (job.state == JobState::kRunning) {
    releaseNodes(job);
    endEvents_.erase(id);
    faultEvents_.erase(id);
    job.state = JobState::kCancelled;
    job.endTime = now_;
  } else {
    return;
  }
  if (tracer_ != nullptr) {
    tracer_->eventAt(traceTimeBase_ + now_, "sched.finish",
                     {{"job", std::to_string(id)},
                      {"state", std::string(jobStateName(job.state))}});
  }
}

bool SchedulerSim::tryStart(JobInfo& job) {
  const int coresPerNodeNeeded =
      job.allocation.tasksPerNode * job.allocation.cpusPerTask;
  const int nodesNeeded =
      (job.allocation.numTasks + job.allocation.tasksPerNode - 1) /
      job.allocation.tasksPerNode;
  std::vector<int> chosen;
  for (int i = 0; i < static_cast<int>(nodes_.size()); ++i) {
    if (!nodes_[i].down && nodes_[i].freeCores >= coresPerNodeNeeded) {
      chosen.push_back(i);
      if (static_cast<int>(chosen.size()) == nodesNeeded) break;
    }
  }
  if (static_cast<int>(chosen.size()) < nodesNeeded) {
    job.reason = "Resources";
    return false;
  }
  for (int nodeId : chosen) nodes_[nodeId].freeCores -= coresPerNodeNeeded;
  job.allocation.nodeIds = std::move(chosen);
  job.state = JobState::kRunning;
  job.startTime = now_;
  job.reason.clear();
  if (metrics_ != nullptr) {
    metrics_->counter("sched.started").inc();
    metrics_->histogram("sched.wait_seconds", obs::stageSecondsBounds())
        .observe(job.startTime - job.submitTime);
  }
  if (tracer_ != nullptr) {
    tracer_->eventAt(traceTimeBase_ + now_, "sched.start",
                     {{"job", std::to_string(job.id)},
                      {"nodes", std::to_string(job.allocation.nodeIds.size())}});
  }

  const JobRequest& request = requests_[job.id - 1];
  job.outcome = request.payload(job.allocation);
  const double runtime = std::max(0.0, job.outcome.runtimeSeconds);
  const bool timedOut = runtime > request.timeLimit;
  const double wall = timedOut ? request.timeLimit : runtime;
  endEvents_[job.id] = now_ + wall;
  if (timedOut) {
    job.outcome.success = false;
    job.reason = "TimeLimit";
  }
  // Injected faults strike the first execution only: a requeued job has
  // already consumed its fault, and a node-failed job never restarts.
  if (request.fault && job.requeues == 0) {
    const double frac =
        std::clamp(request.fault->atFraction, 0.01, 0.99);
    faultEvents_[job.id] = now_ + frac * wall;
  }
  return true;
}

void SchedulerSim::releaseNodes(const JobInfo& job) {
  const int coresPerNodeNeeded =
      job.allocation.tasksPerNode * job.allocation.cpusPerTask;
  for (int nodeId : job.allocation.nodeIds) {
    nodes_[nodeId].freeCores += coresPerNodeNeeded;
    REBENCH_REQUIRE(nodes_[nodeId].freeCores <= options_.coresPerNode);
  }
}

void SchedulerSim::failNodes(JobInfo& job, double failTime) {
  // The node takes the job down with it and stays drained: no release,
  // no restart.  A real scheduler would set the node DOWN/DRAIN.
  for (int nodeId : job.allocation.nodeIds) {
    nodes_[nodeId].freeCores = 0;
    nodes_[nodeId].down = true;
  }
  job.state = JobState::kNodeFail;
  job.endTime = failTime;
  job.reason = "NodeFail";
  job.outcome.success = false;
  if (metrics_ != nullptr) {
    metrics_->counter("sched.node_failures").inc();
  }
  if (tracer_ != nullptr) {
    tracer_->eventAt(traceTimeBase_ + failTime, "sched.node_fail",
                     {{"job", std::to_string(job.id)},
                      {"nodes", std::to_string(job.allocation.nodeIds.size())}});
    tracer_->eventAt(traceTimeBase_ + failTime, "sched.finish",
                     {{"job", std::to_string(job.id)},
                      {"state", std::string(jobStateName(job.state))}});
  }
}

void SchedulerSim::preempt(JobInfo& job, double preemptTime) {
  releaseNodes(job);
  job.state = JobState::kPending;
  job.startTime = -1.0;
  job.reason = "Preempted";
  ++job.requeues;
  pendingQueue_.push_back(job.id);
  noteQueueDepth();
  if (metrics_ != nullptr) {
    metrics_->counter("sched.preemptions").inc();
  }
  if (tracer_ != nullptr) {
    tracer_->eventAt(traceTimeBase_ + preemptTime, "sched.preempt",
                     {{"job", std::to_string(job.id)},
                      {"requeues", std::to_string(job.requeues)}});
  }
}

void SchedulerSim::finish(JobInfo& job, double endTime) {
  releaseNodes(job);
  job.endTime = endTime;
  if (job.reason == "TimeLimit") {
    job.state = JobState::kTimeout;
  } else {
    job.state = job.outcome.success ? JobState::kCompleted : JobState::kFailed;
  }
  if (metrics_ != nullptr) {
    metrics_
        ->counter(job.state == JobState::kCompleted ? "sched.completed"
                                                    : "sched.failed")
        .inc();
  }
  if (tracer_ != nullptr) {
    tracer_->eventAt(traceTimeBase_ + endTime, "sched.finish",
                     {{"job", std::to_string(job.id)},
                      {"state", std::string(jobStateName(job.state))}});
  }
}

void SchedulerSim::scheduleLoop() {
  // FIFO with conservative backfill: walk the queue in order and start
  // anything that fits right now.  (With homogeneous jobs this is exactly
  // FIFO; with mixed sizes small jobs may backfill around a blocked head.)
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (auto it = pendingQueue_.begin(); it != pendingQueue_.end();) {
      JobInfo& job = jobs_[*it - 1];
      if (now_ - job.submitTime < kSchedulingLatencySeconds) {
        ++it;
        continue;
      }
      if (tryStart(job)) {
        it = pendingQueue_.erase(it);
        noteQueueDepth();
        progressed = true;
      } else {
        ++it;
      }
    }
  }
}

std::optional<double> SchedulerSim::nextEventTime() const {
  std::optional<double> next;
  for (const auto& [id, end] : endEvents_) {
    if (!next || end < *next) next = end;
  }
  for (const auto& [id, strike] : faultEvents_) {
    if (!next || strike < *next) next = strike;
  }
  for (JobId id : pendingQueue_) {
    const double eligible =
        jobs_[id - 1].submitTime + kSchedulingLatencySeconds;
    if (eligible > now_ && (!next || eligible < *next)) next = eligible;
  }
  return next;
}

void SchedulerSim::processEventsAt(double time) {
  // Faults strike strictly before (or, for zero-length jobs, at) the
  // completion they pre-empt, so they are processed first; a struck job's
  // completion event is discarded.
  std::vector<JobId> struck;
  for (const auto& [id, strike] : faultEvents_) {
    if (strike <= time) struck.push_back(id);
  }
  for (JobId id : struck) {
    const double strike = faultEvents_.at(id);
    faultEvents_.erase(id);
    endEvents_.erase(id);
    JobInfo& job = jobs_[id - 1];
    const InjectedJobFault& fault = *requests_[id - 1].fault;
    if (fault.kind == InjectedJobFault::Kind::kNodeFailure) {
      failNodes(job, strike);
    } else {
      preempt(job, strike);
    }
  }
  std::vector<JobId> done;
  for (const auto& [id, end] : endEvents_) {
    if (end <= time) done.push_back(id);
  }
  for (JobId id : done) {
    const double end = endEvents_.at(id);
    endEvents_.erase(id);
    finish(jobs_[id - 1], end);
  }
}

void SchedulerSim::drain() {
  scheduleLoop();
  while (!endEvents_.empty() || !pendingQueue_.empty()) {
    auto next = nextEventTime();
    if (!next) {
      // Pending jobs that can never start (should have been rejected at
      // submit); mark them failed to guarantee termination.
      for (JobId id : pendingQueue_) {
        jobs_[id - 1].state = JobState::kFailed;
        jobs_[id - 1].reason = "Unschedulable";
        jobs_[id - 1].endTime = now_;
      }
      pendingQueue_.clear();
      return;
    }
    now_ = std::max(now_, *next);
    processEventsAt(now_);
    scheduleLoop();
  }
}

void SchedulerSim::advance(double seconds) {
  const double deadline = now_ + seconds;
  scheduleLoop();
  while (true) {
    auto next = nextEventTime();
    if (!next || *next > deadline) break;
    now_ = *next;
    processEventsAt(now_);
    scheduleLoop();
  }
  now_ = deadline;
}

const JobInfo& SchedulerSim::query(JobId id) const {
  if (id == 0 || id > jobs_.size()) {
    throw SchedulerError("unknown job id " + std::to_string(id));
  }
  return jobs_[id - 1];
}

std::map<std::string, double> SchedulerSim::accountingCoreSeconds() const {
  std::map<std::string, double> usage;
  for (const JobInfo& job : jobs_) {
    if (job.startTime < 0.0 || job.endTime < 0.0) continue;
    const double wall = job.endTime - job.startTime;
    const double cores =
        static_cast<double>(job.allocation.nodeIds.size()) *
        job.allocation.tasksPerNode * job.allocation.cpusPerTask;
    usage[job.account.empty() ? "(none)" : job.account] += wall * cores;
  }
  return usage;
}

int SchedulerSim::idleCores() const {
  int total = 0;
  for (const Node& node : nodes_) total += node.freeCores;
  return total;
}

int SchedulerSim::downNodes() const {
  int total = 0;
  for (const Node& node : nodes_) total += node.down ? 1 : 0;
  return total;
}

}  // namespace rebench
