// Frozen copy of the row-oriented DataFrame (see legacy_rowframe.hpp).
#include "core/postproc/legacy_rowframe.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>

#include "core/postproc/stats.hpp"
#include "core/util/error.hpp"
#include "core/util/strings.hpp"

namespace rebench::legacy {

namespace {

double aggregate(std::span<const double> values, Agg agg) {
  REBENCH_REQUIRE(!values.empty());
  switch (agg) {
    case Agg::kMean:
      return std::accumulate(values.begin(), values.end(), 0.0) /
             static_cast<double>(values.size());
    case Agg::kMin: return *std::min_element(values.begin(), values.end());
    case Agg::kMax: return *std::max_element(values.begin(), values.end());
    case Agg::kSum:
      return std::accumulate(values.begin(), values.end(), 0.0);
    case Agg::kCount: return static_cast<double>(values.size());
    case Agg::kFirst: return values.front();
  }
  throw InternalError("unhandled aggregation");
}

}  // namespace

void RowFrame::addNumeric(std::string name, NumericColumn values) {
  if (!columns_.empty() && values.size() != rows_) {
    throw Error("column '" + name + "' has " + std::to_string(values.size()) +
                " rows, frame has " + std::to_string(rows_));
  }
  rows_ = values.size();
  columns_.emplace_back(std::move(name), std::move(values));
}

void RowFrame::addStrings(std::string name, StringColumn values) {
  if (!columns_.empty() && values.size() != rows_) {
    throw Error("column '" + name + "' has " + std::to_string(values.size()) +
                " rows, frame has " + std::to_string(rows_));
  }
  rows_ = values.size();
  columns_.emplace_back(std::move(name), std::move(values));
}

bool RowFrame::hasColumn(std::string_view name) const {
  for (const auto& [colName, col] : columns_) {
    if (colName == name) return true;
  }
  return false;
}

const RowFrame::Column& RowFrame::column(std::string_view name) const {
  for (const auto& [colName, col] : columns_) {
    if (colName == name) return col;
  }
  throw NotFoundError("no column '" + std::string(name) + "'");
}

bool RowFrame::isNumeric(std::string_view name) const {
  return std::holds_alternative<NumericColumn>(column(name));
}

std::vector<std::string> RowFrame::columnNames() const {
  std::vector<std::string> out;
  out.reserve(columns_.size());
  for (const auto& [name, col] : columns_) out.push_back(name);
  return out;
}

const RowFrame::NumericColumn& RowFrame::numeric(
    std::string_view name) const {
  const Column& col = column(name);
  const auto* values = std::get_if<NumericColumn>(&col);
  if (values == nullptr) {
    throw Error("column '" + std::string(name) + "' is not numeric");
  }
  return *values;
}

const RowFrame::StringColumn& RowFrame::strings(
    std::string_view name) const {
  const Column& col = column(name);
  const auto* values = std::get_if<StringColumn>(&col);
  if (values == nullptr) {
    throw Error("column '" + std::string(name) + "' is not a string column");
  }
  return *values;
}

std::string RowFrame::cellText(std::string_view name,
                               std::size_t row) const {
  REBENCH_REQUIRE(row < rows_);
  const Column& col = column(name);
  if (const auto* nums = std::get_if<NumericColumn>(&col)) {
    return str::fixed((*nums)[row], 6);
  }
  return std::get<StringColumn>(col)[row];
}

RowFrame RowFrame::takeRows(const std::vector<std::size_t>& indices) const {
  RowFrame out;
  for (const auto& [name, col] : columns_) {
    if (const auto* nums = std::get_if<NumericColumn>(&col)) {
      NumericColumn values;
      values.reserve(indices.size());
      for (std::size_t i : indices) values.push_back((*nums)[i]);
      out.addNumeric(name, std::move(values));
    } else {
      const auto& strs = std::get<StringColumn>(col);
      StringColumn values;
      values.reserve(indices.size());
      for (std::size_t i : indices) values.push_back(strs[i]);
      out.addStrings(name, std::move(values));
    }
  }
  out.rows_ = indices.size();
  return out;
}

RowFrame RowFrame::filter(
    const std::function<bool(std::size_t)>& rowPredicate) const {
  std::vector<std::size_t> keep;
  for (std::size_t i = 0; i < rows_; ++i) {
    if (rowPredicate(i)) keep.push_back(i);
  }
  return takeRows(keep);
}

RowFrame RowFrame::filterEquals(std::string_view columnName,
                                std::string_view value) const {
  const StringColumn& col = strings(columnName);
  return filter([&](std::size_t i) { return col[i] == value; });
}

RowFrame RowFrame::selectColumns(std::span<const std::string> names) const {
  RowFrame out;
  for (const std::string& name : names) {
    const Column& col = column(name);
    if (const auto* nums = std::get_if<NumericColumn>(&col)) {
      out.addNumeric(name, *nums);
    } else {
      out.addStrings(name, std::get<StringColumn>(col));
    }
  }
  out.rows_ = rows_;
  return out;
}

RowFrame RowFrame::sortBy(std::string_view columnName,
                          bool ascending) const {
  std::vector<std::size_t> order(rows_);
  std::iota(order.begin(), order.end(), std::size_t{0});
  const Column& col = column(columnName);
  auto cmp = [&](std::size_t a, std::size_t b) {
    if (const auto* nums = std::get_if<NumericColumn>(&col)) {
      return ascending ? (*nums)[a] < (*nums)[b] : (*nums)[b] < (*nums)[a];
    }
    const auto& strs = std::get<StringColumn>(col);
    return ascending ? strs[a] < strs[b] : strs[b] < strs[a];
  };
  std::stable_sort(order.begin(), order.end(), cmp);
  return takeRows(order);
}

RowFrame RowFrame::concat(std::span<const RowFrame> frames) {
  if (frames.empty()) return {};
  const RowFrame& first = frames.front();
  for (const RowFrame& frame : frames.subspan(1)) {
    if (frame.columnNames() != first.columnNames()) {
      throw Error("cannot concat frames with different schemas");
    }
  }
  RowFrame out;
  for (std::size_t c = 0; c < first.columns_.size(); ++c) {
    const std::string& name = first.columns_[c].first;
    if (std::holds_alternative<NumericColumn>(first.columns_[c].second)) {
      NumericColumn merged;
      for (const RowFrame& frame : frames) {
        if (!frame.isNumeric(name)) {
          throw Error("column '" + name + "' changes type across frames");
        }
        const auto& values = frame.numeric(name);
        merged.insert(merged.end(), values.begin(), values.end());
      }
      out.addNumeric(name, std::move(merged));
    } else {
      StringColumn merged;
      for (const RowFrame& frame : frames) {
        if (frame.isNumeric(name)) {
          throw Error("column '" + name + "' changes type across frames");
        }
        const auto& values = frame.strings(name);
        merged.insert(merged.end(), values.begin(), values.end());
      }
      out.addStrings(name, std::move(merged));
    }
  }
  return out;
}

RowFrame RowFrame::groupBy(std::span<const std::string> keyColumns,
                           std::string_view valueColumn, Agg agg) const {
  const NumericColumn& values = numeric(valueColumn);
  std::vector<const StringColumn*> keys;
  keys.reserve(keyColumns.size());
  for (const std::string& key : keyColumns) keys.push_back(&strings(key));

  // Group rows by composite key, preserving first-seen order.
  std::map<std::vector<std::string>, std::vector<double>> groups;
  std::vector<std::vector<std::string>> order;
  for (std::size_t i = 0; i < rows_; ++i) {
    std::vector<std::string> key;
    key.reserve(keys.size());
    for (const StringColumn* col : keys) key.push_back((*col)[i]);
    auto [it, inserted] = groups.try_emplace(key);
    if (inserted) order.push_back(key);
    it->second.push_back(values[i]);
  }

  RowFrame out;
  for (std::size_t k = 0; k < keyColumns.size(); ++k) {
    StringColumn col;
    col.reserve(order.size());
    for (const auto& key : order) col.push_back(key[k]);
    out.addStrings(keyColumns[k], std::move(col));
  }
  NumericColumn aggValues;
  aggValues.reserve(order.size());
  for (const auto& key : order) {
    aggValues.push_back(aggregate(groups.at(key), agg));
  }
  out.addNumeric(std::string(valueColumn), std::move(aggValues));
  return out;
}

PivotTable RowFrame::pivot(std::string_view rowKey, std::string_view colKey,
                           std::string_view valueColumn, Agg agg) const {
  const StringColumn& rowCol = strings(rowKey);
  const StringColumn& colCol = strings(colKey);
  const NumericColumn& values = numeric(valueColumn);

  PivotTable table;
  auto indexOf = [](std::vector<std::string>& labels,
                    const std::string& label) {
    auto it = std::find(labels.begin(), labels.end(), label);
    if (it != labels.end()) {
      return static_cast<std::size_t>(it - labels.begin());
    }
    labels.push_back(label);
    return labels.size() - 1;
  };

  std::map<std::pair<std::size_t, std::size_t>, std::vector<double>> buckets;
  for (std::size_t i = 0; i < rows_; ++i) {
    const std::size_t r = indexOf(table.rowLabels, rowCol[i]);
    const std::size_t c = indexOf(table.colLabels, colCol[i]);
    buckets[{r, c}].push_back(values[i]);
  }
  table.cells.assign(table.rowLabels.size(),
                     std::vector<std::optional<double>>(
                         table.colLabels.size(), std::nullopt));
  for (const auto& [key, bucket] : buckets) {
    table.cells[key.first][key.second] = aggregate(bucket, agg);
  }
  return table;
}

RowFrame RowFrame::describe() const {
  StringColumn names;
  NumericColumn count, mean, std, minimum, median, maximum;
  for (const auto& [name, col] : columns_) {
    const auto* nums = std::get_if<NumericColumn>(&col);
    if (nums == nullptr || nums->empty()) continue;
    const SummaryStats stats = summarize(*nums);
    names.push_back(name);
    count.push_back(static_cast<double>(stats.count));
    mean.push_back(stats.mean);
    std.push_back(stats.stddev);
    minimum.push_back(stats.min);
    median.push_back(stats.median);
    maximum.push_back(stats.max);
  }
  RowFrame out;
  out.addStrings("column", std::move(names));
  out.addNumeric("count", std::move(count));
  out.addNumeric("mean", std::move(mean));
  out.addNumeric("std", std::move(std));
  out.addNumeric("min", std::move(minimum));
  out.addNumeric("median", std::move(median));
  out.addNumeric("max", std::move(maximum));
  return out;
}

std::string RowFrame::toCsv() const {
  std::string out = str::join(columnNames(), ",") + "\n";
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      if (c != 0) out += ',';
      std::string cell = cellText(columns_[c].first, i);
      if (cell.find(',') != std::string::npos ||
          cell.find('"') != std::string::npos) {
        cell = '"' + str::replaceAll(cell, "\"", "\"\"") + '"';
      }
      out += cell;
    }
    out += '\n';
  }
  return out;
}

RowFrame RowFrame::fromCsv(const std::string& text) {
  std::vector<std::string> lines;
  for (const std::string& line : str::split(text, '\n')) {
    if (!str::trim(line).empty()) lines.push_back(line);
  }
  if (lines.empty()) return {};

  // Minimal CSV: supports quoted cells with doubled quotes.
  auto parseLine = [](const std::string& line) {
    std::vector<std::string> cells;
    std::string cell;
    bool quoted = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
      const char c = line[i];
      if (quoted) {
        if (c == '"' && i + 1 < line.size() && line[i + 1] == '"') {
          cell += '"';
          ++i;
        } else if (c == '"') {
          quoted = false;
        } else {
          cell += c;
        }
      } else if (c == '"') {
        quoted = true;
      } else if (c == ',') {
        cells.push_back(std::move(cell));
        cell.clear();
      } else {
        cell += c;
      }
    }
    cells.push_back(std::move(cell));
    return cells;
  };

  const std::vector<std::string> header = parseLine(lines[0]);
  std::vector<StringColumn> raw(header.size());
  for (std::size_t r = 1; r < lines.size(); ++r) {
    const std::vector<std::string> cells = parseLine(lines[r]);
    if (cells.size() != header.size()) {
      throw ParseError("CSV row " + std::to_string(r) + " has " +
                       std::to_string(cells.size()) + " cells, expected " +
                       std::to_string(header.size()));
    }
    for (std::size_t c = 0; c < cells.size(); ++c) raw[c].push_back(cells[c]);
  }

  RowFrame out;
  for (std::size_t c = 0; c < header.size(); ++c) {
    bool allNumeric = !raw[c].empty();
    NumericColumn nums;
    nums.reserve(raw[c].size());
    for (const std::string& cell : raw[c]) {
      try {
        nums.push_back(str::parseWhole<double>(cell, "cell"));
      } catch (const ParseError&) {
        allNumeric = false;
        break;
      }
    }
    if (allNumeric) {
      out.addNumeric(header[c], std::move(nums));
    } else {
      out.addStrings(header[c], std::move(raw[c]));
    }
  }
  return out;
}

RowFrame rowFrameFromPerflog(std::span<const PerfLogEntry> entries) {
  RowFrame::StringColumn system, partition, environ, test, spec, fom, unit,
      result;
  RowFrame::NumericColumn value;
  for (const PerfLogEntry& entry : entries) {
    system.push_back(entry.system);
    partition.push_back(entry.partition);
    environ.push_back(entry.environ);
    test.push_back(entry.testName);
    spec.push_back(entry.spec);
    fom.push_back(entry.fomName);
    unit.push_back(std::string(unitName(entry.unit)));
    result.push_back(entry.result);
    value.push_back(entry.value);
  }
  RowFrame frame;
  frame.addStrings("system", std::move(system));
  frame.addStrings("partition", std::move(partition));
  frame.addStrings("environ", std::move(environ));
  frame.addStrings("test", std::move(test));
  frame.addStrings("spec", std::move(spec));
  frame.addStrings("fom", std::move(fom));
  frame.addStrings("unit", std::move(unit));
  frame.addStrings("result", std::move(result));
  frame.addNumeric("value", std::move(value));
  return frame;
}

}  // namespace rebench::legacy
