// Vectorized kernels over contiguous columns (rebench::columnar layer 2).
//
// Each kernel works on selection vectors (row-index arrays drawn from a
// bump Arena) instead of materializing row copies; string work happens on
// dictionary codes, so group-by and pivot never touch a `std::string` per
// row.  Zone maps let equality / range predicates skip whole chunks whose
// [min,max] excludes the probe.
//
// Determinism contract (the PR-4 invariant): every kernel reproduces the
// row engine's results bit-for-bit —
//   * group-by / pivot emit groups and labels in first-seen row order and
//     accumulate sums in row order, so kMean equals the row engine's
//     left-to-right std::accumulate exactly;
//   * sort uses std::stable_sort with an order-equivalent comparator
//     (string columns compare precomputed dictionary ranks), yielding the
//     identical permutation;
//   * percentiles select their order statistics from one scratch copy
//     (sortedPercentile's exact interpolation over the exact values a
//     sort would yield), so the same bits as stats::percentile.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/postproc/columnar/arena.hpp"
#include "core/postproc/columnar/table.hpp"

namespace rebench::columnar {

enum class Agg { kMean, kMin, kMax, kSum, kCount, kFirst };

/// Work accounting a selection kernel reports: how many chunks its zone
/// maps let it skip.
struct KernelStats {
  std::size_t rows = 0;           // input rows processed
  std::size_t chunks = 0;         // zone chunks covering the input
  std::size_t skippedChunks = 0;  // chunks excluded by zone maps
};

// ---- selection ----------------------------------------------------------

/// Rows where `col == value`, in row order.  Chunks whose code zone
/// excludes the probe (or a value absent from the dictionary entirely)
/// are skipped without scanning.  The result lives in `arena`.
std::span<const std::uint32_t> selectEquals(const StringColumn& col,
                                            std::string_view value,
                                            Arena& arena,
                                            KernelStats* stats = nullptr);

/// Rows where `lo <= col <= hi` (nulls excluded), skipping chunks whose
/// numeric zone lies outside the range.
std::span<const std::uint32_t> selectRange(const DoubleColumn& col,
                                           double lo, double hi, Arena& arena,
                                           KernelStats* stats = nullptr);

/// Rows where an arbitrary predicate holds; no chunk skipping.
std::span<const std::uint32_t> selectPredicate(
    std::size_t rows, const std::function<bool(std::size_t)>& predicate,
    Arena& arena);

/// Materializes the selected rows of every column.  String columns share
/// the input dictionary (codes are copied, strings are not).
Table gather(const Table& in, std::span<const std::uint32_t> selection);

// ---- sort ---------------------------------------------------------------

/// Stable permutation ordering `rows` rows by `col`.  Equivalent to the
/// row engine's stable_sort on cell values.
std::vector<std::uint32_t> sortOrder(const Column& col, std::size_t rows,
                                     bool ascending);

// ---- aggregation --------------------------------------------------------

/// Hash-aggregation on dictionary codes: groups on string key columns in
/// first-seen order and aggregates `valueColumn`.  Output columns: keys
/// (sharing input dictionaries), then the aggregate under the value
/// column's name.  Null values are excluded from the aggregate; a group
/// with no valid value aggregates to NaN (0 for kSum / kCount).
Table groupAggregate(const Table& in, std::span<const std::string> keys,
                     std::string_view valueColumn, Agg agg);

/// Per-group percentiles by O(n) selection (nth_element, never a full
/// sort) — bit-identical to sorting first, since the selected order
/// statistics are the same values.  Emits the key columns followed by
/// one numeric column per requested percentile, named by `labels` (same
/// length as `percentiles`).
Table groupPercentilesKernel(const Table& in,
                             std::span<const std::string> keys,
                             std::string_view valueColumn,
                             std::span<const double> percentiles,
                             std::span<const std::string> labels);

struct PivotCells {
  std::vector<std::string> rowLabels;
  std::vector<std::string> colLabels;
  std::vector<std::vector<std::optional<double>>> cells;
};

/// (row,col) -> aggregate matrix; labels in first-seen order, cells with
/// no data (or only nulls) are nullopt.
PivotCells pivotAggregate(const StringColumn& rowCol,
                          const StringColumn& colCol,
                          const DoubleColumn& values, Agg agg);

/// describe(): one row per numeric column with at least one valid value —
/// column/count/mean/std/min/median/max, matching stats::summarize
/// bit-for-bit (single sort instead of three).
Table describeTable(const Table& in);

/// Linear-interpolated percentile over an already-sorted sample; the same
/// formula as stats::percentile after its sort.
double sortedPercentile(std::span<const double> sorted, double p);

}  // namespace rebench::columnar
