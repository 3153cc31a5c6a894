#include "core/postproc/columnar/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <unordered_map>

#include "core/util/error.hpp"

namespace rebench::columnar {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// First-seen-order group index over composite string keys.  Group ids
/// are assigned in row-scan order, so the output ordering is identical to
/// the row engine's first-seen map+order bookkeeping — but the lookup is
/// a dense array (or a hash on a packed integer) over dictionary codes,
/// never a per-row vector<string> key.
struct GroupIndex {
  std::vector<std::uint32_t> groupOfRow;
  std::vector<std::uint32_t> firstRow;  // first-seen row per group
  std::size_t groups() const { return firstRow.size(); }
};

constexpr std::uint64_t kDenseLimit = std::uint64_t{1} << 22;

GroupIndex buildGroups(std::size_t rows,
                       std::span<const StringColumn* const> keys) {
  GroupIndex index;
  index.groupOfRow.resize(rows);
  if (keys.empty()) {
    // Single group holding every row (the row engine's empty-key case).
    if (rows > 0) index.firstRow.push_back(0);
    return index;
  }

  // Mixed-radix packing: code kNullCode maps to the extra radix slot so
  // null keys form their own group.
  std::vector<std::uint64_t> radix(keys.size());
  bool packable = true;
  std::uint64_t product = 1;
  for (std::size_t j = 0; j < keys.size(); ++j) {
    radix[j] = keys[j]->dict->size() + 1;
    if (packable && product > std::numeric_limits<std::uint64_t>::max() /
                                  radix[j]) {
      packable = false;
    } else if (packable) {
      product *= radix[j];
    }
  }

  auto slotOf = [&](const StringColumn& key, std::size_t row) {
    const std::uint32_t c = key.codes[row];
    return c == kNullCode ? static_cast<std::uint64_t>(key.dict->size())
                          : static_cast<std::uint64_t>(c);
  };

  if (packable && product <= kDenseLimit) {
    std::vector<std::uint32_t> slot(static_cast<std::size_t>(product),
                                    kNullCode);
    for (std::size_t i = 0; i < rows; ++i) {
      std::uint64_t id = 0;
      for (std::size_t j = 0; j < keys.size(); ++j) {
        id = id * radix[j] + slotOf(*keys[j], i);
      }
      std::uint32_t g = slot[static_cast<std::size_t>(id)];
      if (g == kNullCode) {
        g = static_cast<std::uint32_t>(index.firstRow.size());
        slot[static_cast<std::size_t>(id)] = g;
        index.firstRow.push_back(static_cast<std::uint32_t>(i));
      }
      index.groupOfRow[i] = g;
    }
  } else if (packable) {
    std::unordered_map<std::uint64_t, std::uint32_t> slot;
    slot.reserve(1024);
    for (std::size_t i = 0; i < rows; ++i) {
      std::uint64_t id = 0;
      for (std::size_t j = 0; j < keys.size(); ++j) {
        id = id * radix[j] + slotOf(*keys[j], i);
      }
      auto [it, inserted] = slot.try_emplace(
          id, static_cast<std::uint32_t>(index.firstRow.size()));
      if (inserted) index.firstRow.push_back(static_cast<std::uint32_t>(i));
      index.groupOfRow[i] = it->second;
    }
  } else {
    // Astronomically wide dictionaries: fall back to a byte-composite key.
    std::unordered_map<std::string, std::uint32_t> slot;
    std::string key(keys.size() * sizeof(std::uint32_t), '\0');
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = 0; j < keys.size(); ++j) {
        const std::uint32_t c = keys[j]->codes[i];
        std::memcpy(key.data() + j * sizeof(c), &c, sizeof(c));
      }
      auto [it, inserted] = slot.try_emplace(
          key, static_cast<std::uint32_t>(index.firstRow.size()));
      if (inserted) index.firstRow.push_back(static_cast<std::uint32_t>(i));
      index.groupOfRow[i] = it->second;
    }
  }
  return index;
}

/// Key columns of a grouped output: first-seen rows gathered from the
/// input key columns, dictionaries shared.
void emitKeyColumns(Table& out, std::span<const std::string> keyNames,
                    std::span<const StringColumn* const> keys,
                    std::span<const std::uint32_t> firstRow) {
  for (std::size_t j = 0; j < keys.size(); ++j) {
    StringColumn col;
    col.dict = keys[j]->dict;
    col.codes.reserve(firstRow.size());
    std::size_t nulls = 0;
    for (const std::uint32_t row : firstRow) {
      const std::uint32_t c = keys[j]->codes[row];
      if (c == kNullCode) ++nulls;
      col.codes.push_back(c);
    }
    col.setNullCount(nulls);
    out.columns.push_back({keyNames[j], std::move(col)});
  }
}

}  // namespace

std::span<const std::uint32_t> selectEquals(const StringColumn& col,
                                            std::string_view value,
                                            Arena& arena,
                                            KernelStats* stats) {
  const std::size_t rows = col.codes.size();
  const std::vector<CodeZone>& zones = col.zones();
  if (stats != nullptr) {
    stats->rows = rows;
    stats->chunks = zones.size();
  }
  const std::optional<std::uint32_t> probe = col.dict->find(value);
  if (!probe) {
    if (stats != nullptr) stats->skippedChunks = zones.size();
    return {};
  }
  const std::uint32_t c = *probe;
  std::span<std::uint32_t> out = arena.alloc<std::uint32_t>(rows);
  std::size_t n = 0;
  for (std::size_t z = 0; z < zones.size(); ++z) {
    const CodeZone& zone = zones[z];
    const bool allNull = zone.nulls == zone.count;
    if (allNull || c < zone.minCode || c > zone.maxCode) {
      if (stats != nullptr) ++stats->skippedChunks;
      continue;
    }
    const std::size_t base = z * kChunkRows;
    const std::size_t end = base + zone.count;
    for (std::size_t i = base; i < end; ++i) {
      if (col.codes[i] == c) out[n++] = static_cast<std::uint32_t>(i);
    }
  }
  return out.subspan(0, n);
}

std::span<const std::uint32_t> selectRange(const DoubleColumn& col,
                                           double lo, double hi, Arena& arena,
                                           KernelStats* stats) {
  const std::size_t rows = col.values.size();
  const std::vector<NumericZone>& zones = col.zones();
  if (stats != nullptr) {
    stats->rows = rows;
    stats->chunks = zones.size();
  }
  std::span<std::uint32_t> out = arena.alloc<std::uint32_t>(rows);
  std::size_t n = 0;
  for (std::size_t z = 0; z < zones.size(); ++z) {
    const NumericZone& zone = zones[z];
    const bool allNull = zone.nulls == zone.count;
    if (allNull || zone.max < lo || zone.min > hi) {
      if (stats != nullptr) ++stats->skippedChunks;
      continue;
    }
    const std::size_t base = z * kChunkRows;
    const std::size_t end = base + zone.count;
    const bool hasNulls = zone.nulls != 0;
    for (std::size_t i = base; i < end; ++i) {
      const double v = col.values[i];
      if (v >= lo && v <= hi && (!hasNulls || col.validity.valid(i))) {
        out[n++] = static_cast<std::uint32_t>(i);
      }
    }
  }
  return out.subspan(0, n);
}

std::span<const std::uint32_t> selectPredicate(
    std::size_t rows, const std::function<bool(std::size_t)>& predicate,
    Arena& arena) {
  std::span<std::uint32_t> out = arena.alloc<std::uint32_t>(rows);
  std::size_t n = 0;
  for (std::size_t i = 0; i < rows; ++i) {
    if (predicate(i)) out[n++] = static_cast<std::uint32_t>(i);
  }
  return out.subspan(0, n);
}

Table gather(const Table& in, std::span<const std::uint32_t> selection) {
  Table out;
  out.rows = selection.size();
  out.columns.reserve(in.columns.size());
  for (const Column& col : in.columns) {
    if (col.isNumeric()) {
      const DoubleColumn& src = col.doubles();
      DoubleColumn dst;
      dst.values.reserve(selection.size());
      for (const std::uint32_t i : selection) dst.values.push_back(src.values[i]);
      if (src.validity.empty()) {
        dst.validity.appendRun(selection.size(), true);
      } else {
        for (const std::uint32_t i : selection) {
          dst.validity.append(src.validity.valid(i));
        }
      }
      out.columns.push_back({col.name, std::move(dst)});
    } else {
      const StringColumn& src = col.strs();
      StringColumn dst;
      dst.dict = src.dict;
      dst.codes.reserve(selection.size());
      std::size_t nulls = 0;
      for (const std::uint32_t i : selection) {
        const std::uint32_t c = src.codes[i];
        if (c == kNullCode) ++nulls;
        dst.codes.push_back(c);
      }
      dst.setNullCount(nulls);
      out.columns.push_back({col.name, std::move(dst)});
    }
  }
  return out;
}

std::vector<std::uint32_t> sortOrder(const Column& col, std::size_t rows,
                                     bool ascending) {
  std::vector<std::uint32_t> order(rows);
  std::iota(order.begin(), order.end(), std::uint32_t{0});
  if (col.isNumeric()) {
    const std::vector<double>& v = col.doubles().values;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return ascending ? v[a] < v[b] : v[b] < v[a];
                     });
  } else {
    // Rank the dictionary once (distinct strings, so a strict order) and
    // compare integer ranks per row — order-equivalent to comparing the
    // strings, so stable_sort yields the identical permutation.
    const StringColumn& sc = col.strs();
    const std::vector<std::string>& dict = sc.dict->values();
    std::vector<std::uint32_t> byString(dict.size());
    std::iota(byString.begin(), byString.end(), std::uint32_t{0});
    std::sort(byString.begin(), byString.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return dict[a] < dict[b];
              });
    std::vector<std::uint32_t> rankOf(dict.size());
    for (std::uint32_t r = 0; r < byString.size(); ++r) {
      rankOf[byString[r]] = r;
    }
    auto rank = [&](std::uint32_t row) {
      const std::uint32_t c = sc.codes[row];
      return c == kNullCode ? kNullCode : rankOf[c];
    };
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return ascending ? rank(a) < rank(b)
                                        : rank(b) < rank(a);
                     });
  }
  return order;
}

namespace {

struct Accumulator {
  bool any = false;
  double sum = 0.0;
  std::uint64_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double first = 0.0;

  void add(double v) {
    // Row-order streaming: sum grows left-to-right exactly like the row
    // engine's std::accumulate over the group's value vector.
    if (!any) {
      min = max = first = v;
      any = true;
    } else {
      min = std::min(min, v);
      max = std::max(max, v);
    }
    sum += v;
    ++count;
  }

  double result(Agg agg) const {
    switch (agg) {
      case Agg::kMean:
        return any ? sum / static_cast<double>(count) : kNaN;
      case Agg::kMin: return any ? min : kNaN;
      case Agg::kMax: return any ? max : kNaN;
      case Agg::kSum: return sum;
      case Agg::kCount: return static_cast<double>(count);
      case Agg::kFirst: return any ? first : kNaN;
    }
    throw InternalError("unhandled aggregation");
  }
};

}  // namespace

Table groupAggregate(const Table& in, std::span<const std::string> keys,
                     std::string_view valueColumn, Agg agg) {
  const DoubleColumn& values = in.find(valueColumn)->doubles();
  std::vector<const StringColumn*> keyCols;
  keyCols.reserve(keys.size());
  for (const std::string& key : keys) keyCols.push_back(&in.find(key)->strs());

  const GroupIndex index = buildGroups(in.rows, keyCols);
  std::vector<Accumulator> acc(index.groups());
  const bool hasNulls = !values.validity.empty();
  for (std::size_t i = 0; i < in.rows; ++i) {
    if (hasNulls && !values.validity.valid(i)) continue;
    acc[index.groupOfRow[i]].add(values.values[i]);
  }

  Table out;
  out.rows = index.groups();
  emitKeyColumns(out, keys, keyCols, index.firstRow);
  DoubleColumn aggCol;
  aggCol.values.reserve(index.groups());
  for (const Accumulator& a : acc) aggCol.values.push_back(a.result(agg));
  aggCol.validity.appendRun(aggCol.values.size(), true);
  out.columns.push_back({std::string(valueColumn), std::move(aggCol)});
  return out;
}

double sortedPercentile(std::span<const double> sorted, double p) {
  REBENCH_REQUIRE(!sorted.empty() && p >= 0.0 && p <= 100.0);
  if (sorted.size() == 1) return sorted[0];
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

namespace {

/// Exact percentile by selection instead of a full sort: nth_element
/// places the lo-th order statistic, and the partition guarantee makes
/// the (lo+1)-th the minimum of the upper tail.  The selected values are
/// the same values a sort would put there and the interpolation is the
/// same expression as sortedPercentile, so the result is bit-identical
/// to sort-then-interpolate — at O(n) per percentile instead of
/// O(n log n) per group.
double selectPercentile(std::span<double> slice, double p) {
  REBENCH_REQUIRE(!slice.empty() && p >= 0.0 && p <= 100.0);
  if (slice.size() == 1) return slice[0];
  const double rank = p / 100.0 * static_cast<double>(slice.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, slice.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  std::nth_element(slice.begin(), slice.begin() + static_cast<long>(lo),
                   slice.end());
  const double loVal = slice[lo];
  const double hiVal =
      hi == lo ? loVal
               : *std::min_element(slice.begin() + static_cast<long>(lo) + 1,
                                   slice.end());
  return loVal * (1.0 - frac) + hiVal * frac;
}

}  // namespace

Table groupPercentilesKernel(const Table& in,
                             std::span<const std::string> keys,
                             std::string_view valueColumn,
                             std::span<const double> percentiles,
                             std::span<const std::string> labels) {
  REBENCH_REQUIRE(percentiles.size() == labels.size());
  const DoubleColumn& values = in.find(valueColumn)->doubles();
  std::vector<const StringColumn*> keyCols;
  keyCols.reserve(keys.size());
  for (const std::string& key : keys) keyCols.push_back(&in.find(key)->strs());

  const GroupIndex index = buildGroups(in.rows, keyCols);
  const std::size_t groups = index.groups();
  const bool hasNulls = !values.validity.empty();

  // Counting sort into per-group slices of one contiguous buffer: valid
  // values land grouped but still in row order, then each percentile is
  // selected from its slice without ever fully sorting it.
  std::vector<std::size_t> counts(groups, 0);
  for (std::size_t i = 0; i < in.rows; ++i) {
    if (hasNulls && !values.validity.valid(i)) continue;
    ++counts[index.groupOfRow[i]];
  }
  std::vector<std::size_t> offsets(groups + 1, 0);
  for (std::size_t g = 0; g < groups; ++g) {
    offsets[g + 1] = offsets[g] + counts[g];
  }
  std::vector<double> buffer(offsets[groups]);
  std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
  for (std::size_t i = 0; i < in.rows; ++i) {
    if (hasNulls && !values.validity.valid(i)) continue;
    buffer[cursor[index.groupOfRow[i]]++] = values.values[i];
  }

  Table out;
  out.rows = groups;
  emitKeyColumns(out, keys, keyCols, index.firstRow);
  std::vector<DoubleColumn> pcols(percentiles.size());
  for (DoubleColumn& col : pcols) col.values.reserve(groups);
  for (std::size_t g = 0; g < groups; ++g) {
    std::span<double> slice(buffer.data() + offsets[g],
                            offsets[g + 1] - offsets[g]);
    for (std::size_t p = 0; p < percentiles.size(); ++p) {
      pcols[p].values.push_back(
          slice.empty() ? kNaN : selectPercentile(slice, percentiles[p]));
    }
  }
  for (std::size_t p = 0; p < percentiles.size(); ++p) {
    pcols[p].validity.appendRun(pcols[p].values.size(), true);
    out.columns.push_back({labels[p], std::move(pcols[p])});
  }
  return out;
}

PivotCells pivotAggregate(const StringColumn& rowCol,
                          const StringColumn& colCol,
                          const DoubleColumn& values, Agg agg) {
  const std::size_t rows = rowCol.codes.size();
  PivotCells out;
  // code -> label index maps (extra slot for the null sentinel), filled
  // in first-seen row order like the row engine's linear indexOf.
  std::vector<std::uint32_t> rowLabelOf(rowCol.dict->size() + 1, kNullCode);
  std::vector<std::uint32_t> colLabelOf(colCol.dict->size() + 1, kNullCode);
  std::vector<std::vector<Accumulator>> grid;
  const bool hasNulls = !values.validity.empty();

  auto labelSlot = [](const StringColumn& col, std::size_t i) {
    const std::uint32_t c = col.codes[i];
    return c == kNullCode ? col.dict->size() : static_cast<std::size_t>(c);
  };
  auto labelText = [](const StringColumn& col, std::size_t slot) {
    return slot == col.dict->size() ? std::string()
                                    : col.dict->at(
                                          static_cast<std::uint32_t>(slot));
  };

  for (std::size_t i = 0; i < rows; ++i) {
    const std::size_t rSlot = labelSlot(rowCol, i);
    const std::size_t cSlot = labelSlot(colCol, i);
    std::uint32_t r = rowLabelOf[rSlot];
    if (r == kNullCode) {
      r = static_cast<std::uint32_t>(out.rowLabels.size());
      rowLabelOf[rSlot] = r;
      out.rowLabels.push_back(labelText(rowCol, rSlot));
      grid.emplace_back(out.colLabels.size());
    }
    std::uint32_t c = colLabelOf[cSlot];
    if (c == kNullCode) {
      c = static_cast<std::uint32_t>(out.colLabels.size());
      colLabelOf[cSlot] = c;
      out.colLabels.push_back(labelText(colCol, cSlot));
      for (auto& gridRow : grid) gridRow.emplace_back();
    }
    if (!hasNulls || values.validity.valid(i)) {
      grid[r][c].add(values.values[i]);
    }
  }

  out.cells.assign(out.rowLabels.size(),
                   std::vector<std::optional<double>>(out.colLabels.size(),
                                                      std::nullopt));
  for (std::size_t r = 0; r < grid.size(); ++r) {
    for (std::size_t c = 0; c < grid[r].size(); ++c) {
      if (grid[r][c].any) out.cells[r][c] = grid[r][c].result(agg);
    }
  }
  return out;
}

Table describeTable(const Table& in) {
  StringColumn names;
  DoubleColumn count, mean, stddev, minimum, median, maximum;
  std::vector<double> scratch;
  for (const Column& col : in.columns) {
    if (!col.isNumeric()) continue;
    const DoubleColumn& nums = col.doubles();
    scratch.clear();
    const bool hasNulls = !nums.validity.empty();
    for (std::size_t i = 0; i < nums.values.size(); ++i) {
      if (hasNulls && !nums.validity.valid(i)) continue;
      scratch.push_back(nums.values[i]);
    }
    // Empty and all-null columns are skipped alike: no valid sample, no
    // describe row.
    if (scratch.empty()) continue;

    // The same accumulation order as stats::summarize (sum and min/max in
    // one row-order pass, two-pass stddev), so the bits match the row
    // engine; the three percentile() sorts collapse into one.
    double sum = 0.0;
    double mn = scratch[0];
    double mx = scratch[0];
    for (const double v : scratch) {
      sum += v;
      mn = std::min(mn, v);
      mx = std::max(mx, v);
    }
    const double n = static_cast<double>(scratch.size());
    const double mu = sum / n;
    double sd = 0.0;
    if (scratch.size() > 1) {
      double ss = 0.0;
      for (const double v : scratch) ss += (v - mu) * (v - mu);
      sd = std::sqrt(ss / (n - 1.0));
    }
    std::sort(scratch.begin(), scratch.end());
    names.codes.push_back(names.dict->encode(col.name));
    count.values.push_back(n);
    mean.values.push_back(mu);
    stddev.values.push_back(sd);
    minimum.values.push_back(mn);
    median.values.push_back(sortedPercentile(scratch, 50.0));
    maximum.values.push_back(mx);
  }
  Table out;
  out.rows = names.codes.size();
  for (DoubleColumn* col :
       {&count, &mean, &stddev, &minimum, &median, &maximum}) {
    col->validity.appendRun(col->values.size(), true);
  }
  out.columns.push_back({"column", std::move(names)});
  out.columns.push_back({"count", std::move(count)});
  out.columns.push_back({"mean", std::move(mean)});
  out.columns.push_back({"std", std::move(stddev)});
  out.columns.push_back({"min", std::move(minimum)});
  out.columns.push_back({"median", std::move(median)});
  out.columns.push_back({"max", std::move(maximum)});
  return out;
}

}  // namespace rebench::columnar
