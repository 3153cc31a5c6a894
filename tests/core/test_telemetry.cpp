#include "core/framework/telemetry.hpp"

#include <gtest/gtest.h>

namespace rebench {
namespace {

const MachineModel& rome() { return builtinMachines().get("rome-7742"); }

TEST(Telemetry, SeriesCoversDuration) {
  const TelemetrySeries series =
      sampleTelemetry(rome(), {}, 30.0, "key", {.intervalSeconds = 1.0});
  EXPECT_GE(series.samples.size(), 30u);
  EXPECT_NEAR(series.duration(), 30.0, 1.01);
  EXPECT_DOUBLE_EQ(series.samples.front().timeSeconds, 0.0);
}

TEST(Telemetry, DeterministicPerKey) {
  const TelemetrySeries a = sampleTelemetry(rome(), {}, 10.0, "same");
  const TelemetrySeries b = sampleTelemetry(rome(), {}, 10.0, "same");
  const TelemetrySeries c = sampleTelemetry(rome(), {}, 10.0, "other");
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.samples[i].powerWatts, b.samples[i].powerWatts);
  }
  EXPECT_NE(a.samples[1].powerWatts, c.samples[1].powerWatts);
}

TEST(Telemetry, PowerBoundedByIdleAndTdp) {
  const TelemetrySeries series =
      sampleTelemetry(rome(), {.memoryIntensity = 1.0, .cpuIntensity = 1.0},
                      20.0, "power");
  for (const TelemetrySample& s : series.samples) {
    EXPECT_GE(s.powerWatts, rome().idlePowerWatts() * 0.9);
    EXPECT_LE(s.powerWatts, rome().maxPowerWatts() * 1.1);
  }
}

TEST(Telemetry, IdleJobDrawsLessThanBusyJob) {
  WorkloadProfile idle{.memoryIntensity = 0.05, .cpuIntensity = 0.05};
  WorkloadProfile busy{.memoryIntensity = 0.95, .cpuIntensity = 1.0};
  const double idleP =
      sampleTelemetry(rome(), idle, 20.0, "i").meanPowerWatts();
  const double busyP =
      sampleTelemetry(rome(), busy, 20.0, "b").meanPowerWatts();
  EXPECT_GT(busyP, 1.5 * idleP);
}

TEST(Telemetry, EnergyIsPowerTimesTime) {
  const TelemetrySeries series = sampleTelemetry(rome(), {}, 100.0, "e");
  const double joules = series.energyJoules();
  EXPECT_GT(joules, 0.0);
  // Energy ~ meanPower * duration within trapezoid edge effects.
  EXPECT_NEAR(joules, series.meanPowerWatts() * series.duration(),
              0.05 * joules);
}

TEST(Telemetry, UtilisationClamped) {
  WorkloadProfile overdriven{.memoryIntensity = 5.0, .cpuIntensity = 5.0};
  const TelemetrySeries series =
      sampleTelemetry(rome(), overdriven, 10.0, "clamp");
  for (const TelemetrySample& s : series.samples) {
    EXPECT_LE(s.cpuUtilisation, 1.0);
    EXPECT_LE(s.memoryBandwidthUtil, 1.0);
  }
}

TEST(Telemetry, ContentionFlagsFireOnBusySystems) {
  // Background bursts on the shared system show up over a long window,
  // and the flags name exactly the samples above a traffic threshold.
  const TelemetrySeries series = sampleTelemetry(rome(), {}, 200.0, "busy");
  const std::vector<std::size_t> flags = contendedSamples(series);
  EXPECT_FALSE(flags.empty());
  EXPECT_LT(flags.size(), series.samples.size());
  std::vector<std::size_t> busy;
  for (std::size_t i = 0; i < series.samples.size(); ++i) {
    const TelemetrySample& s = series.samples[i];
    if (s.networkMBs > 500.0 || s.filesystemMBs > 300.0) busy.push_back(i);
  }
  EXPECT_EQ(flags, busy);
}

TEST(Telemetry, EmptySeriesSafe) {
  TelemetrySeries series;
  EXPECT_DOUBLE_EQ(series.energyJoules(), 0.0);
  EXPECT_DOUBLE_EQ(series.meanPowerWatts(), 0.0);
  EXPECT_DOUBLE_EQ(series.duration(), 0.0);
  EXPECT_TRUE(contendedSamples(series).empty());
}

TEST(Telemetry, ZeroDurationStillYieldsTwoSamples) {
  const TelemetrySeries series = sampleTelemetry(rome(), {}, 0.0, "z");
  EXPECT_GE(series.samples.size(), 2u);
}

}  // namespace
}  // namespace rebench
