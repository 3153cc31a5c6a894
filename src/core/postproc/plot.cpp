#include "core/postproc/plot.hpp"

#include <algorithm>
#include <cmath>

#include "core/util/error.hpp"
#include "core/util/strings.hpp"

namespace rebench {

namespace {

/// Heatmap cell with no data: a combination that does not run.
constexpr const char* kMissingMarker = "*";

}  // namespace

std::string renderBarChart(const std::vector<std::string>& labels,
                           const std::vector<double>& values,
                           const BarChartOptions& options) {
  REBENCH_REQUIRE(labels.size() == values.size());
  std::string out;
  if (!options.title.empty()) out += options.title + "\n";
  if (labels.empty()) return out + "(no data)\n";

  double maxValue = *std::max_element(values.begin(), values.end());
  if (maxValue <= 0.0) maxValue = 1.0;
  std::size_t labelWidth = 0;
  for (const std::string& label : labels) {
    labelWidth = std::max(labelWidth, label.size());
  }
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const int bar = static_cast<int>(
        std::round(options.width * std::clamp(values[i] / maxValue, 0.0, 1.0)));
    out += str::padRight(labels[i], labelWidth) + " |" +
           std::string(bar, '#') + " " + str::fixed(values[i], 2) +
           options.valueSuffix + "\n";
  }
  return out;
}

std::string renderHeatmap(const PivotTable& table,
                          const HeatmapOptions& options) {
  std::string out;
  if (!options.title.empty()) out += options.title + "\n";
  std::size_t rowWidth = 0;
  for (const std::string& label : table.rowLabels) {
    rowWidth = std::max(rowWidth, label.size());
  }
  const std::size_t cellWidth = std::max<std::size_t>(
      7, [&] {
        std::size_t w = 0;
        for (const std::string& label : table.colLabels) {
          w = std::max(w, label.size());
        }
        return w;
      }());

  out += str::padRight("", rowWidth);
  for (const std::string& col : table.colLabels) {
    out += "  " + str::padLeft(col, cellWidth);
  }
  out += "\n";
  for (std::size_t r = 0; r < table.rowLabels.size(); ++r) {
    out += str::padRight(table.rowLabels[r], rowWidth);
    for (std::size_t c = 0; c < table.colLabels.size(); ++c) {
      std::string cell = kMissingMarker;
      if (table.cells[r][c]) {
        cell = str::fixed(*table.cells[r][c] * 100.0, 1) + "%";
      }
      out += "  " + str::padLeft(cell, cellWidth);
    }
    out += "\n";
  }
  return out;
}

namespace {

std::string svgEscape(const std::string& text) {
  std::string out = str::replaceAll(text, "&", "&amp;");
  out = str::replaceAll(out, "<", "&lt;");
  out = str::replaceAll(out, ">", "&gt;");
  return out;
}

/// Single-hue ramp from near-white to a deep blue, linear in value.
std::string rampColor(double t) {
  t = std::clamp(t, 0.0, 1.0);
  const int r = static_cast<int>(std::round(247 - t * (247 - 8)));
  const int g = static_cast<int>(std::round(251 - t * (251 - 48)));
  const int b = static_cast<int>(std::round(255 - t * (255 - 107)));
  char buf[8];
  std::snprintf(buf, sizeof(buf), "#%02x%02x%02x", r, g, b);
  return buf;
}

}  // namespace

std::string renderHeatmapSvg(const PivotTable& table,
                             const HeatmapOptions& options) {
  constexpr int kCell = 54;
  constexpr int kLeft = 190;
  constexpr int kTop = 70;
  const int width = kLeft + kCell * static_cast<int>(table.colLabels.size()) + 20;
  const int height = kTop + kCell * static_cast<int>(table.rowLabels.size()) + 20;

  std::string svg = "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" +
                    std::to_string(width) + "\" height=\"" +
                    std::to_string(height) + "\" font-family=\"sans-serif\">\n";
  svg += "<text x=\"10\" y=\"22\" font-size=\"15\">" +
         svgEscape(options.title) + "</text>\n";
  for (std::size_t c = 0; c < table.colLabels.size(); ++c) {
    const int x = kLeft + static_cast<int>(c) * kCell + kCell / 2;
    svg += "<text x=\"" + std::to_string(x) + "\" y=\"" +
           std::to_string(kTop - 10) +
           "\" font-size=\"10\" text-anchor=\"middle\">" +
           svgEscape(table.colLabels[c]) + "</text>\n";
  }
  for (std::size_t r = 0; r < table.rowLabels.size(); ++r) {
    const int y = kTop + static_cast<int>(r) * kCell + kCell / 2 + 4;
    svg += "<text x=\"" + std::to_string(kLeft - 8) + "\" y=\"" +
           std::to_string(y) +
           "\" font-size=\"10\" text-anchor=\"end\">" +
           svgEscape(table.rowLabels[r]) + "</text>\n";
    for (std::size_t c = 0; c < table.colLabels.size(); ++c) {
      const int x = kLeft + static_cast<int>(c) * kCell;
      const int yy = kTop + static_cast<int>(r) * kCell;
      const auto& cell = table.cells[r][c];
      const std::string fill = cell ? rampColor(*cell) : "#ffffff";
      svg += "<rect x=\"" + std::to_string(x) + "\" y=\"" +
             std::to_string(yy) + "\" width=\"" + std::to_string(kCell - 2) +
             "\" height=\"" + std::to_string(kCell - 2) +
             "\" fill=\"" + fill + "\" stroke=\"#999\"/>\n";
      const std::string label =
          cell ? str::fixed(*cell * 100.0, 0) + "%" : kMissingMarker;
      const std::string textFill = (cell && *cell > 0.55) ? "#fff" : "#333";
      svg += "<text x=\"" + std::to_string(x + kCell / 2 - 1) + "\" y=\"" +
             std::to_string(yy + kCell / 2 + 4) +
             "\" font-size=\"11\" text-anchor=\"middle\" fill=\"" + textFill +
             "\">" + svgEscape(label) + "</text>\n";
    }
  }
  svg += "</svg>\n";
  return svg;
}

std::string renderBarChartSvg(const std::vector<std::string>& labels,
                              const std::vector<double>& values,
                              const BarChartOptions& options) {
  REBENCH_REQUIRE(labels.size() == values.size());
  constexpr int kRow = 26;
  constexpr int kLeft = 180;
  constexpr int kTop = 46;
  constexpr int kBarMax = 420;
  const int width = kLeft + kBarMax + 120;
  const int height = kTop + kRow * static_cast<int>(labels.size()) + 16;
  double maxValue =
      values.empty() ? 1.0 : *std::max_element(values.begin(), values.end());
  if (maxValue <= 0.0) maxValue = 1.0;

  std::string svg = "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" +
                    std::to_string(width) + "\" height=\"" +
                    std::to_string(height) + "\" font-family=\"sans-serif\">\n";
  svg += "<text x=\"10\" y=\"22\" font-size=\"15\">" +
         svgEscape(options.title) + "</text>\n";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const int y = kTop + kRow * static_cast<int>(i);
    const int bar = static_cast<int>(
        std::round(kBarMax * std::clamp(values[i] / maxValue, 0.0, 1.0)));
    svg += "<text x=\"" + std::to_string(kLeft - 8) + "\" y=\"" +
           std::to_string(y + 14) +
           "\" font-size=\"11\" text-anchor=\"end\">" + svgEscape(labels[i]) +
           "</text>\n";
    svg += "<rect x=\"" + std::to_string(kLeft) + "\" y=\"" +
           std::to_string(y) + "\" width=\"" + std::to_string(bar) +
           "\" height=\"18\" fill=\"#08306b\"/>\n";
    svg += "<text x=\"" + std::to_string(kLeft + bar + 6) + "\" y=\"" +
           std::to_string(y + 14) + "\" font-size=\"11\">" +
           str::fixed(values[i], 2) + svgEscape(options.valueSuffix) +
           "</text>\n";
  }
  svg += "</svg>\n";
  return svg;
}

std::string renderScalingPlot(const std::vector<Series>& series,
                              const std::string& title, int width,
                              int height) {
  std::string out = title + "\n";
  double xMin = 1e300, xMax = -1e300, yMin = 1e300, yMax = -1e300;
  for (const Series& s : series) {
    REBENCH_REQUIRE(s.x.size() == s.y.size());
    for (double v : s.x) {
      xMin = std::min(xMin, v);
      xMax = std::max(xMax, v);
    }
    for (double v : s.y) {
      yMin = std::min(yMin, v);
      yMax = std::max(yMax, v);
    }
  }
  if (xMax <= xMin || series.empty()) return out + "(no data)\n";
  if (yMax <= yMin) yMax = yMin + 1.0;

  std::vector<std::string> grid(height, std::string(width, ' '));
  static constexpr char kMarks[] = "*o+x#@";
  for (std::size_t s = 0; s < series.size(); ++s) {
    const char mark = kMarks[s % (sizeof(kMarks) - 1)];
    for (std::size_t i = 0; i < series[s].x.size(); ++i) {
      const int col = static_cast<int>(std::round(
          (series[s].x[i] - xMin) / (xMax - xMin) * (width - 1)));
      const int row = static_cast<int>(std::round(
          (series[s].y[i] - yMin) / (yMax - yMin) * (height - 1)));
      grid[height - 1 - row][col] = mark;
    }
  }
  out += str::fixed(yMax, 2) + "\n";
  for (const std::string& line : grid) {
    out += "|" + line + "\n";
  }
  out += str::fixed(yMin, 2) + " " + std::string(width - 8, '-') + " " +
         str::fixed(xMax, 2) + "\n";
  std::string legend = "legend:";
  for (std::size_t s = 0; s < series.size(); ++s) {
    legend += std::string(" ") + kMarks[s % (sizeof(kMarks) - 1)] + "=" +
              series[s].name;
  }
  return out + legend + "\n";
}

}  // namespace rebench
