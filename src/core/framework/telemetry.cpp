#include "core/framework/telemetry.hpp"

#include <algorithm>
#include <cmath>

#include "core/util/error.hpp"
#include "core/util/rng.hpp"

namespace rebench {

double TelemetrySeries::duration() const {
  return samples.empty() ? 0.0 : samples.back().timeSeconds;
}

double TelemetrySeries::energyJoules() const {
  double joules = 0.0;
  for (std::size_t i = 1; i < samples.size(); ++i) {
    const double dt = samples[i].timeSeconds - samples[i - 1].timeSeconds;
    joules += 0.5 * (samples[i].powerWatts + samples[i - 1].powerWatts) * dt;
  }
  return joules;
}

double TelemetrySeries::meanPowerWatts() const {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const TelemetrySample& s : samples) sum += s.powerWatts;
  return sum / static_cast<double>(samples.size());
}

TelemetrySeries sampleTelemetry(const MachineModel& machine,
                                const WorkloadProfile& profile,
                                double durationSeconds,
                                const std::string& noiseKey,
                                const TelemetryOptions& options) {
  REBENCH_REQUIRE(durationSeconds >= 0.0 && options.intervalSeconds > 0.0);
  TelemetrySeries series;
  series.intervalSeconds = options.intervalSeconds;
  Rng rng = Rng::fromKey("telemetry:" + noiseKey);

  const int count =
      std::max(2, static_cast<int>(durationSeconds /
                                   options.intervalSeconds) + 1);
  const double idle = machine.idlePowerWatts();
  const double peak = machine.maxPowerWatts();
  series.samples.reserve(count);
  for (int i = 0; i < count; ++i) {
    TelemetrySample s;
    s.timeSeconds = i * options.intervalSeconds;
    // The job's own footprint, with small sampling jitter.
    s.cpuUtilisation = std::clamp(
        profile.cpuIntensity * rng.noiseFactor(0.02), 0.0, 1.0);
    s.memoryBandwidthUtil = std::clamp(
        profile.memoryIntensity * rng.noiseFactor(0.03), 0.0, 1.0);
    // Background traffic: bursty, shared-system character.  A slow swell
    // plus occasional spikes.
    const double swell =
        kTelemetryBackgroundLoad *
        (1.0 + 0.5 * std::sin(0.37 * i + rng.uniform() * 0.2));
    const bool spike = rng.uniform() < 0.05;
    s.networkMBs = profile.networkMBs +
                   swell * 800.0 * rng.noiseFactor(0.2) +
                   (spike ? rng.uniform(400.0, 1200.0) : 0.0);
    s.filesystemMBs = swell * 500.0 * rng.noiseFactor(0.3) +
                      (spike ? rng.uniform(100.0, 600.0) : 0.0);
    // Package power follows utilisation between idle and TDP; memory-bound
    // phases draw a bit less than compute-bound full load.
    const double load =
        0.7 * s.cpuUtilisation + 0.3 * s.memoryBandwidthUtil;
    s.powerWatts = idle + (peak - idle) * std::clamp(load, 0.0, 1.0) *
                              rng.noiseFactor(0.02);
    series.samples.push_back(s);
  }
  return series;
}

std::vector<std::size_t> contendedSamples(const TelemetrySeries& series,
                                          double networkThresholdMBs,
                                          double fsThresholdMBs) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < series.samples.size(); ++i) {
    const TelemetrySample& s = series.samples[i];
    if (s.networkMBs > networkThresholdMBs ||
        s.filesystemMBs > fsThresholdMBs) {
      out.push_back(i);
    }
  }
  return out;
}

}  // namespace rebench
