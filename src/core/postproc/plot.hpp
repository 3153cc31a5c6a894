// Plot renderers for the analysis step of Figure 1.
//
// Three output media: ASCII (terminal-readable, what the bench binaries
// print), SVG (publication-shaped heatmaps/bars, mirrors the paper's Bokeh
// proof-of-concept), and CSV (for external tooling).
#pragma once

#include <string>
#include <vector>

#include "core/postproc/dataframe.hpp"

namespace rebench {

struct BarChartOptions {
  std::string title;
  int width = 50;            // characters for the longest bar
  std::string valueSuffix;   // e.g. " GB/s"
};

/// Horizontal ASCII bar chart from (label, value) pairs; the largest
/// value gets the longest bar.
std::string renderBarChart(const std::vector<std::string>& labels,
                           const std::vector<double>& values,
                           const BarChartOptions& options = {});

struct HeatmapOptions {
  std::string title;
};

/// ASCII heatmap of a PivotTable.  Values are fractions in [0,1]
/// (efficiencies) and print as percent; missing cells print "*" (Fig. 2's
/// mark for unsupported combinations).
std::string renderHeatmap(const PivotTable& table,
                          const HeatmapOptions& options = {});

/// SVG heatmap (one <rect> per cell with a perceptual single-hue ramp).
std::string renderHeatmapSvg(const PivotTable& table,
                             const HeatmapOptions& options = {});

/// SVG grouped bar chart for (label, value) pairs.
std::string renderBarChartSvg(const std::vector<std::string>& labels,
                              const std::vector<double>& values,
                              const BarChartOptions& options = {});

/// Scaling / time-series ASCII plot: one line per series.
struct Series {
  std::string name;
  std::vector<double> x;
  std::vector<double> y;
};
std::string renderScalingPlot(const std::vector<Series>& series,
                              const std::string& title, int width = 60,
                              int height = 16);

}  // namespace rebench
