// A small column-typed data frame — the Pandas stand-in of §2.4.
//
// Columns are either numeric (double) or string; rows are implicit.  The
// operations provided are exactly those the paper's post-processing
// pipeline needs: concatenating perflogs from isolated systems, filtering,
// group-by aggregation, sorting, pivoting to (row,col)->value matrices for
// heatmaps, and CSV round-tripping.
//
// Since the columnar refactor this class is a façade: storage and kernels
// live in rebench::columnar (contiguous doubles, dictionary-encoded
// strings, selection vectors, zone maps — see columnar/kernels.hpp), and
// every operation reproduces the original row engine bit-for-bit (the
// `legacy::RowFrame` in legacy_rowframe.hpp, which the byte-identity
// ctest gate diffs against).  `strings()` decodes the dictionary into a
// cached `vector<string>` on first use, so the accessor API is unchanged.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "core/postproc/columnar/kernels.hpp"
#include "core/postproc/columnar/table.hpp"

namespace rebench {

using Agg = columnar::Agg;

/// Pivoted matrix, e.g. programming-model × platform for Figure 2.
struct PivotTable {
  std::vector<std::string> rowLabels;
  std::vector<std::string> colLabels;
  /// cells[r][c]; nullopt where no data exists (the white boxes of Fig. 2).
  std::vector<std::vector<std::optional<double>>> cells;
};

class DataFrame {
 public:
  using NumericColumn = std::vector<double>;
  using StringColumn = std::vector<std::string>;
  using Column = std::variant<NumericColumn, StringColumn>;

  DataFrame() = default;

  void addNumeric(std::string name, NumericColumn values);
  void addStrings(std::string name, StringColumn values);
  /// Numeric column with explicit validity (false = null).  Nulls are
  /// excluded from aggregates and describe(); `numeric()` exposes them as
  /// NaN placeholders.
  void addNumericWithNulls(std::string name, NumericColumn values,
                           const std::vector<bool>& valid);

  std::size_t rowCount() const { return table_.rows; }
  std::size_t columnCount() const { return table_.columns.size(); }
  bool empty() const { return table_.rows == 0; }

  bool hasColumn(std::string_view name) const;
  bool isNumeric(std::string_view name) const;
  std::vector<std::string> columnNames() const;

  /// Throws NotFoundError / InternalError on missing or mistyped columns.
  const NumericColumn& numeric(std::string_view name) const;
  const StringColumn& strings(std::string_view name) const;

  /// Cell rendered as text regardless of column type.
  std::string cellText(std::string_view name, std::size_t row) const;

  // ---- relational operations -------------------------------------------
  DataFrame filter(const std::function<bool(std::size_t)>& rowPredicate) const;
  DataFrame filterEquals(std::string_view column,
                         std::string_view value) const;
  /// Rows with `lo <= column <= hi` (inclusive; nulls excluded) — the
  /// zone-mapped range predicate.
  DataFrame filterRange(std::string_view column, double lo, double hi) const;
  DataFrame selectColumns(std::span<const std::string> names) const;
  DataFrame sortBy(std::string_view column, bool ascending = true) const;

  /// Row-wise concatenation; requires identical schemas (names and types in
  /// order) — the cross-platform assimilation step of Principle 6.  The
  /// error names the first mismatching column.
  static DataFrame concat(std::span<const DataFrame> frames);

  /// Groups on string key columns and aggregates one numeric column.
  /// Output columns: keys..., then `valueColumn` holding the aggregate.
  DataFrame groupBy(std::span<const std::string> keyColumns,
                    std::string_view valueColumn, Agg agg) const;

  /// Per-group percentiles (O(n) selection, no full sort): keys..., then
  /// one column per requested percentile named "p50", "p99.9", ...
  DataFrame groupPercentiles(std::span<const std::string> keyColumns,
                             std::string_view valueColumn,
                             std::span<const double> percentiles) const;

  PivotTable pivot(std::string_view rowKey, std::string_view colKey,
                   std::string_view valueColumn, Agg agg = Agg::kMean) const;

  /// Pandas-style describe(): one row per numeric column with columns
  /// column/count/mean/std/min/median/max.  Empty and all-null numeric
  /// columns are skipped alike.
  DataFrame describe() const;

  // ---- serialization ------------------------------------------------------
  std::string toCsv() const;
  /// All-string parse except columns where every value parses as double.
  /// Single-pass: each cell is parsed once into a tagged buffer and the
  /// column type commits at end of input.
  static DataFrame fromCsv(const std::string& text);

  // ---- engine access ------------------------------------------------------
  /// Wraps a columnar table directly (the perflog cache / merge paths).
  static DataFrame fromTable(columnar::Table table);
  const columnar::Table& table() const { return table_; }

 private:
  const columnar::Column& columnRef(std::string_view name) const;
  const columnar::DoubleColumn& numericCol(std::string_view name) const;
  const columnar::StringColumn& stringCol(std::string_view name) const;

  columnar::Table table_;
};

}  // namespace rebench
