// Unit tests for the statistical inference engine (rebench::infer):
// series estimation, EDM changepoint detection, the controller's
// window-growth rule and the CI-significance band of the history gate.
#include <cmath>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/history/history.hpp"
#include "core/infer/changepoint_edm.hpp"
#include "core/infer/controller.hpp"
#include "core/infer/estimator.hpp"
#include "core/util/rng.hpp"

namespace rebench::infer {
namespace {

TEST(EstimatorTest, EmptyAndSingleSampleHaveInfiniteCi) {
  const SeriesEstimate empty = estimateSeries({});
  EXPECT_EQ(empty.n, 0);
  EXPECT_TRUE(std::isinf(empty.ciHalfwidth));
  EXPECT_TRUE(std::isinf(empty.ciRelative));

  const std::vector<double> one{100.0};
  const SeriesEstimate single = estimateSeries(one);
  EXPECT_EQ(single.n, 1);
  EXPECT_DOUBLE_EQ(single.mean, 100.0);
  EXPECT_DOUBLE_EQ(single.ess, 1.0);
  EXPECT_TRUE(std::isinf(single.ciHalfwidth));
}

TEST(EstimatorTest, ConstantSeriesHasZeroHalfwidth) {
  const std::vector<double> samples(8, 250.0);
  const SeriesEstimate est = estimateSeries(samples);
  EXPECT_EQ(est.n, 8);
  EXPECT_DOUBLE_EQ(est.mean, 250.0);
  EXPECT_DOUBLE_EQ(est.stddev, 0.0);
  EXPECT_DOUBLE_EQ(est.ciHalfwidth, 0.0);
  EXPECT_DOUBLE_EQ(est.ciRelative, 0.0);
  EXPECT_DOUBLE_EQ(est.ess, 8.0);  // zero variance carries no act signal
  EXPECT_FALSE(est.drift);
}

TEST(EstimatorTest, ShortSeriesMatchesTextbookTInterval) {
  // {1, 2, 3}: mean 2, sample stddev 1; n < 4 keeps ess = n, so the CI
  // is the plain t(0.975, df=2) * 1 / sqrt(3) = 4.303 / sqrt(3).
  const std::vector<double> samples{1.0, 2.0, 3.0};
  const SeriesEstimate est = estimateSeries(samples);
  EXPECT_DOUBLE_EQ(est.mean, 2.0);
  EXPECT_DOUBLE_EQ(est.stddev, 1.0);
  EXPECT_DOUBLE_EQ(est.ess, 3.0);
  EXPECT_NEAR(est.ciHalfwidth, 4.303 / std::sqrt(3.0), 1e-9);
  EXPECT_NEAR(est.ciRelative, est.ciHalfwidth / 2.0, 1e-12);
}

TEST(EstimatorTest, AnticorrelatedNoiseKeepsFullSampleSize) {
  // Alternating values: negative lag-1 autocorrelation, so Geyer's
  // initial-positive-sequence rule truncates immediately and ess == n.
  const std::vector<double> samples{10.0, 12.0, 9.0, 12.0,
                                    9.0,  12.0, 9.0, 12.0};
  const SeriesEstimate est = estimateSeries(samples);
  EXPECT_LT(est.autocorr, 0.0);
  EXPECT_DOUBLE_EQ(est.ess, 8.0);
  EXPECT_NEAR(est.ciHalfwidth, tQuantile975(7) * est.stddev / std::sqrt(8.0),
              1e-12);
  EXPECT_FALSE(est.drift);
}

TEST(EstimatorTest, PositiveAutocorrelationShrinksEss) {
  // A slowly oscillating series: adjacent samples are close, so the
  // correlated-sample correction must report fewer effective samples —
  // and a wider CI — than the raw count suggests.  The two halves are
  // identical, so the drift guard stays quiet.
  const std::vector<double> samples{10.0, 11.0, 12.0, 13.0, 13.0, 12.0,
                                    11.0, 10.0, 10.0, 11.0, 12.0, 13.0,
                                    13.0, 12.0, 11.0, 10.0};
  const SeriesEstimate est = estimateSeries(samples);
  EXPECT_GT(est.autocorr, 0.0);
  EXPECT_LT(est.ess, static_cast<double>(est.n));
  EXPECT_GT(est.ciHalfwidth,
            tQuantile975(est.n - 1) * est.stddev / std::sqrt(est.n));
  EXPECT_FALSE(est.drift);
}

TEST(EstimatorTest, HalfSplitDriftGuardFlagsWarmupTrend) {
  // First half around 10, second around 20: the CI over the pooled
  // series can look tight per-half, but the halves disagree far beyond
  // their combined standard error.
  const std::vector<double> noisy{10.0, 10.2, 9.8,  10.1, 9.9,  10.0,
                                  20.0, 20.2, 19.8, 20.1, 19.9, 20.0};
  EXPECT_TRUE(estimateSeries(noisy).drift);

  // Degenerate flavour: both halves constant (zero SE) but unequal.
  const std::vector<double> step{10.0, 10.0, 10.0, 10.0, 10.0, 10.0,
                                 20.0, 20.0, 20.0, 20.0, 20.0, 20.0};
  EXPECT_TRUE(estimateSeries(step).drift);

  // Steady series: no drift.
  const std::vector<double> steady{10.0, 10.2, 9.8, 10.1, 9.9, 10.0};
  EXPECT_FALSE(estimateSeries(steady).drift);
}

TEST(EstimatorTest, TQuantileTableEndpoints) {
  EXPECT_DOUBLE_EQ(tQuantile975(-3), 12.706);  // clamped to df = 1
  EXPECT_DOUBLE_EQ(tQuantile975(0), 12.706);
  EXPECT_DOUBLE_EQ(tQuantile975(1), 12.706);
  EXPECT_DOUBLE_EQ(tQuantile975(2), 4.303);
  EXPECT_DOUBLE_EQ(tQuantile975(30), 2.042);
  EXPECT_DOUBLE_EQ(tQuantile975(31), 1.96);
  EXPECT_DOUBLE_EQ(tQuantile975(1000), 1.96);
}

TEST(EdmTest, MedianOfOddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(medianOf({}), 0.0);
  const std::vector<double> odd{3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(medianOf(odd), 2.0);
  const std::vector<double> even{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(medianOf(even), 2.5);
}

TEST(EdmTest, SeriesShorterThanTwoMinSegmentsYieldsNothing) {
  EXPECT_TRUE(detectChangepointsEdm({}).empty());
  const std::vector<double> shifted{100.0, 100.0, 50.0, 50.0, 50.0};
  EXPECT_TRUE(detectChangepointsEdm(shifted).empty());  // 5 < 2 * 3
}

TEST(EdmTest, ConstantAndFlatNoisySeriesYieldNothing) {
  for (const std::size_t n : {6u, 7u, 12u, 16u, 64u}) {
    EXPECT_TRUE(detectChangepointsEdm(std::vector<double>(n, 100.0)).empty())
        << n << " points";
  }
  // ±1% wobble: any split's median shift stays under the 2% relative
  // floor, so no changepoint regardless of the scaled statistic.
  const std::vector<double> noisy{100.0, 101.0, 100.0, 99.0, 100.0, 101.0,
                                  99.0,  100.0, 100.0, 101.0, 99.0, 100.0};
  EXPECT_TRUE(detectChangepointsEdm(noisy).empty());
}

TEST(EdmTest, SeededStepIsLocatedExactly) {
  // {before, after, step index, length}: a halving at the centre and a
  // 6% drop at 12 of 20.
  for (const auto& [before, after, at, n] :
       {std::tuple{100.0, 50.0, 6u, 12u}, std::tuple{100.0, 94.0, 12u, 20u}}) {
    std::vector<double> series(at, before);
    series.insert(series.end(), n - at, after);
    const std::vector<EdmChangepoint> flags = detectChangepointsEdm(series);
    ASSERT_EQ(flags.size(), 1u);
    EXPECT_EQ(flags[0].index, at);
    EXPECT_DOUBLE_EQ(flags[0].medianBefore, before);
    EXPECT_DOUBLE_EQ(flags[0].medianAfter, after);
    EXPECT_GT(flags[0].statistic, EdmOptions{}.threshold);
  }
}

TEST(EdmTest, OffCentreStepsAreLocatedExactly) {
  // Each step is flagged once, where it is, however far off-centre.
  auto steps = [](std::size_t n, std::vector<std::size_t> at,
                  std::vector<double> levels) {
    std::vector<double> series;
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t regime = 0;
      while (regime < at.size() && i >= at[regime]) ++regime;
      series.push_back(levels[regime]);
    }
    return series;
  };
  Rng rng(9);
  std::vector<double> rise;
  for (int i = 0; i < 15; ++i) {
    rise.push_back((i < 10 ? 100.0 : 150.0) * rng.noiseFactor(0.01));
  }
  const std::vector<std::pair<std::vector<double>, std::vector<std::size_t>>>
      cases{{steps(12, {9}, {100.0, 80.0}), {9}},
            {steps(1000, {250}, {100.0, 80.0}), {250}},
            {steps(1000, {750}, {100.0, 80.0}), {750}},
            {steps(30, {10, 22}, {100.0, 80.0, 60.0}), {10, 22}},
            {steps(12, {8}, {100.0, 94.0}), {8}},
            {rise, {10}}};
  for (const auto& [series, expected] : cases) {
    std::vector<std::size_t> found;
    for (const EdmChangepoint& flag : detectChangepointsEdm(series)) {
      found.push_back(flag.index);
    }
    EXPECT_EQ(found, expected) << series.size() << " points";
  }
}

TEST(EdmTest, OutlierRepeatDoesNotFoolTheMedians) {
  // One wild outlier inside an otherwise flat series: means-based scans
  // see a shift, medians do not.
  const std::vector<double> series{100.0, 100.0, 100.0, 100.0, 500.0, 100.0,
                                   100.0, 100.0, 100.0, 100.0, 100.0, 100.0};
  EXPECT_TRUE(detectChangepointsEdm(series).empty());
  // Nor does a drop in the last record only: no regime follows it.
  std::vector<double> lastDrops(12, 100.0);
  lastDrops.back() = 94.0;
  EXPECT_TRUE(detectChangepointsEdm(lastDrops).empty());
}

TEST(ControllerGrowthTest, ConvergedSeriesSchedulesMinimalProbe) {
  SeriesEstimate worst;
  worst.n = 5;
  worst.ciRelative = 0.01;
  EXPECT_EQ(nextWindowGrowth(worst, 0.05, 5), 1);
}

TEST(ControllerGrowthTest, GrowthIsProjectedFromInverseSquareRoot) {
  // ciRelative 0.06 at n = 20 with target 0.05: required n scales by
  // (0.06/0.05)^2 = 1.44 -> ceil(28.8) = 29, so 9 more repeats.
  SeriesEstimate worst;
  worst.n = 20;
  worst.ciRelative = 0.06;
  EXPECT_EQ(nextWindowGrowth(worst, 0.05, 20), 9);
}

TEST(ControllerGrowthTest, GrowthAtMostDoublesPerRound) {
  // A wildly noisy early estimate projects hundreds of repeats; the
  // clamp schedules at most `executed` more (doubling).
  SeriesEstimate worst;
  worst.n = 4;
  worst.ciRelative = 0.5;
  EXPECT_EQ(nextWindowGrowth(worst, 0.05, 4), 4);
}

TEST(ControllerGrowthTest, UnderdeterminedSeriesBootstrapsToTwoSamples) {
  SeriesEstimate worst;  // n = 0, infinite CI
  worst.ciHalfwidth = HUGE_VAL;
  worst.ciRelative = HUGE_VAL;
  EXPECT_EQ(nextWindowGrowth(worst, 0.05, 1), 1);
  EXPECT_EQ(nextWindowGrowth(worst, 0.05, 4), 2);
}

TEST(ControllerGrowthTest, DriftForcesAFullExtraWindow) {
  SeriesEstimate worst;
  worst.n = 6;
  worst.ciRelative = 0.01;  // CI already met — drift alone blocks
  worst.drift = true;
  EXPECT_EQ(nextWindowGrowth(worst, 0.05, 6), 6);
}

history::HistoryRecord gateRecord(std::uint64_t seq, double mean) {
  history::HistoryRecord record;
  record.seq = seq;
  record.test = "stream_triad";
  record.target = "archer2:compute";
  record.fom = "triad_gbs";
  record.mean = mean;
  record.min = mean;
  record.max = mean;
  record.repeats = 3;
  return record;
}

TEST(GateSignificanceTest, WobbleBeyondThresholdButWithinCiStaysClean) {
  // Baseline means {100, 90, 110, 92, 108}: mean 100, wide CI.  The
  // latest 93 drops 7% — past the 5% threshold — but stays inside the
  // baseline window's own confidence band, so no regression.
  std::vector<history::HistoryRecord> records;
  const std::vector<double> means{100.0, 90.0, 110.0, 92.0, 108.0, 93.0};
  for (std::size_t i = 0; i < means.size(); ++i) {
    records.push_back(gateRecord(i, means[i]));
  }
  const auto verdicts = history::checkRegression(records, {});
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_FALSE(verdicts[0].regression);
  EXPECT_FALSE(verdicts[0].significant);
  EXPECT_LT(verdicts[0].delta, -0.05);
  EXPECT_GT(verdicts[0].baselineCi, 0.0);
  EXPECT_NE(verdicts[0].justification.find("not significant"),
            std::string::npos);
}

TEST(GateSignificanceTest, GenuineDropIsASignificantRegression) {
  // Tight baseline {100, 101, 99, 100, 101}, latest 90: both the
  // threshold and the significance band are cleared.
  std::vector<history::HistoryRecord> records;
  const std::vector<double> means{100.0, 101.0, 99.0, 100.0, 101.0, 90.0};
  for (std::size_t i = 0; i < means.size(); ++i) {
    records.push_back(gateRecord(i, means[i]));
  }
  const auto verdicts = history::checkRegression(records, {});
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_TRUE(verdicts[0].regression);
  EXPECT_TRUE(verdicts[0].significant);
  EXPECT_NE(verdicts[0].justification.find("exceeds threshold"),
            std::string::npos);
  EXPECT_NE(verdicts[0].justification.find("below baseline-CI"),
            std::string::npos);
}

TEST(GateSignificanceTest, SustainedShiftReportsEdmChangepoint) {
  // Six campaigns at 100 then six at 70: by the newest record the
  // rolling baseline has absorbed the new regime (delta 0, no
  // regression event now), but the EDM scan pins the historical shift.
  std::vector<history::HistoryRecord> records;
  for (std::uint64_t i = 0; i < 12; ++i) {
    records.push_back(gateRecord(i, i < 6 ? 100.0 : 70.0));
  }
  const auto verdicts = history::checkRegression(records, {});
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_FALSE(verdicts[0].regression);
  EXPECT_TRUE(verdicts[0].changepoint);
  EXPECT_EQ(verdicts[0].changepointIndex, 6u);
  EXPECT_NE(verdicts[0].justification.find("EDM changepoint at seq 6"),
            std::string::npos);
}

TEST(GateSignificanceTest, SingleRecordIsInsufficient) {
  const std::vector<history::HistoryRecord> records{gateRecord(0, 100.0)};
  const auto verdicts = history::checkRegression(records, {});
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_TRUE(verdicts[0].insufficient);
  EXPECT_NE(verdicts[0].justification.find("insufficient history"),
            std::string::npos);
}

}  // namespace
}  // namespace rebench::infer
