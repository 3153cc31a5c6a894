#include "core/postproc/plot.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/util/strings.hpp"

namespace rebench {
namespace {

PivotTable samplePivot() {
  PivotTable table;
  table.rowLabels = {"omp", "cuda"};
  table.colLabels = {"clx", "v100"};
  table.cells = {{0.75, std::nullopt}, {std::nullopt, 0.95}};
  return table;
}

TEST(BarChart, ContainsLabelsAndValues) {
  const std::string out = renderBarChart(
      {"archer2", "csd3"}, {95.36, 126.10},
      {.title = "HPGMG l0", .width = 40, .valueSuffix = " MDOF/s"});
  EXPECT_TRUE(str::contains(out, "HPGMG l0"));
  EXPECT_TRUE(str::contains(out, "archer2"));
  EXPECT_TRUE(str::contains(out, "95.36 MDOF/s"));
  EXPECT_TRUE(str::contains(out, "126.10 MDOF/s"));
}

TEST(BarChart, LargestValueGetsLongestBar) {
  const std::string out =
      renderBarChart({"small", "large"}, {1.0, 10.0}, {.width = 20});
  const auto lines = str::split(out, '\n');
  const auto hashes = [](const std::string& s) {
    return std::count(s.begin(), s.end(), '#');
  };
  EXPECT_LT(hashes(lines[0]), hashes(lines[1]));
  EXPECT_EQ(hashes(lines[1]), 20);
}

TEST(BarChart, EmptyData) {
  EXPECT_TRUE(str::contains(renderBarChart({}, {}), "(no data)"));
}

TEST(Heatmap, MissingCellsShowMarker) {
  const std::string out = renderHeatmap(samplePivot(), {.title = "fig2"});
  EXPECT_TRUE(str::contains(out, "75.0%"));
  EXPECT_TRUE(str::contains(out, "95.0%"));
  EXPECT_TRUE(str::contains(out, "*"));
  EXPECT_TRUE(str::contains(out, "omp"));
  EXPECT_TRUE(str::contains(out, "v100"));
}

TEST(HeatmapSvg, WellFormedAndComplete) {
  const std::string svg =
      renderHeatmapSvg(samplePivot(), {.title = "Figure 2"});
  EXPECT_TRUE(str::startsWith(svg, "<svg"));
  EXPECT_TRUE(str::contains(svg, "</svg>"));
  // 2x2 cells -> 4 rects.
  std::size_t rects = 0, pos = 0;
  while ((pos = svg.find("<rect", pos)) != std::string::npos) {
    ++rects;
    pos += 5;
  }
  EXPECT_EQ(rects, 4u);
  EXPECT_TRUE(str::contains(svg, "Figure 2"));
  EXPECT_TRUE(str::contains(svg, "75%"));
}

TEST(BarChartSvg, WellFormed) {
  const std::string svg = renderBarChartSvg(
      {"a", "b"}, {1.0, 2.0}, {.title = "t", .valueSuffix = " GB/s"});
  EXPECT_TRUE(str::startsWith(svg, "<svg"));
  EXPECT_TRUE(str::contains(svg, "</svg>"));
  EXPECT_TRUE(str::contains(svg, " GB/s"));
}

TEST(SvgEscaping, AngleBracketsEscaped) {
  PivotTable table;
  table.rowLabels = {"a<b>"};
  table.colLabels = {"c&d"};
  table.cells = {{0.5}};
  const std::string svg = renderHeatmapSvg(table);
  EXPECT_TRUE(str::contains(svg, "a&lt;b&gt;"));
  EXPECT_TRUE(str::contains(svg, "c&amp;d"));
}

TEST(ScalingPlot, RendersSeriesAndLegend) {
  Series s1{"ideal", {1, 2, 4, 8}, {1, 2, 4, 8}};
  Series s2{"actual", {1, 2, 4, 8}, {1, 1.9, 3.5, 6.0}};
  const std::string out = renderScalingPlot({s1, s2}, "strong scaling");
  EXPECT_TRUE(str::contains(out, "strong scaling"));
  EXPECT_TRUE(str::contains(out, "legend: *=ideal o=actual"));
  EXPECT_TRUE(str::contains(out, "*"));
  EXPECT_TRUE(str::contains(out, "o"));
}

TEST(ScalingPlot, DegenerateDataHandled) {
  EXPECT_TRUE(str::contains(renderScalingPlot({}, "empty"), "(no data)"));
  Series flat{"flat", {1, 1}, {2, 2}};
  EXPECT_TRUE(str::contains(renderScalingPlot({flat}, "flat"), "(no data)"));
}

}  // namespace
}  // namespace rebench
