// System-state telemetry during benchmark runs — the paper's stated
// future work ("capture relevant parameters of the system state during
// the runtime of the benchmarks, such as network or filesystem usage
// levels or energy consumption", §4).
//
// A TelemetrySampler produces a deterministic time series of node-level
// state for a job: CPU utilisation, memory-interface pressure, network
// and filesystem background load, and package power.  On real systems
// this would wrap counters (RAPL, fabric/OST stats); here the series is
// synthesised from the machine model, the job's character and a
// noise stream keyed on the run — so every run's telemetry replays
// exactly, and the analysis code paths (summaries, perflog capture,
// contention flags) are fully exercised.
#pragma once

#include <string>
#include <vector>

#include "sim/machine.hpp"

namespace rebench {

/// One sample of node state.
struct TelemetrySample {
  double timeSeconds = 0.0;
  double cpuUtilisation = 0.0;      // 0..1
  double memoryBandwidthUtil = 0.0; // 0..1, fraction of stream-achievable
  double networkMBs = 0.0;          // background fabric traffic
  double filesystemMBs = 0.0;       // background parallel-FS traffic
  double powerWatts = 0.0;          // package power, whole node
};

struct TelemetrySeries {
  std::vector<TelemetrySample> samples;
  double intervalSeconds = 1.0;

  bool empty() const { return samples.empty(); }
  double duration() const;
  /// Trapezoidal integral of power over the series, joules.
  double energyJoules() const;
  double meanPowerWatts() const;
  double maxNetworkMBs() const;
  double maxFilesystemMBs() const;
};

/// Character of the job being sampled, used to shape the series.
struct WorkloadProfile {
  /// Fraction of time the job saturates the memory interface (streaming
  /// benchmarks ~0.9, compute-bound solvers lower).
  double memoryIntensity = 0.8;
  /// Fraction of cores the job keeps busy.
  double cpuIntensity = 1.0;
  /// MB/s of MPI traffic the job itself generates.
  double networkMBs = 0.0;
};

/// Background (other users') load level, 0..1; models a shared system.
inline constexpr double kTelemetryBackgroundLoad = 0.1;

struct TelemetryOptions {
  double intervalSeconds = 1.0;
};

/// Samples `durationSeconds` of simulated node state for a job on
/// `machine`.  Identical (machine, profile, key) inputs give identical
/// series.
TelemetrySeries sampleTelemetry(const MachineModel& machine,
                                const WorkloadProfile& profile,
                                double durationSeconds,
                                const std::string& noiseKey,
                                const TelemetryOptions& options = {});

/// Flags samples where background traffic was high enough to perturb the
/// measurement — the audit signal the paper wants captured alongside
/// results.  Returns indices of contended samples.
std::vector<std::size_t> contendedSamples(const TelemetrySeries& series,
                                          double networkThresholdMBs = 500.0,
                                          double fsThresholdMBs = 300.0);

}  // namespace rebench
