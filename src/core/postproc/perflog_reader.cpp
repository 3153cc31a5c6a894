#include "core/postproc/perflog_reader.hpp"

#include <fstream>
#include <iterator>
#include <map>
#include <queue>
#include <utility>

#include "core/postproc/columnar/colfile.hpp"
#include "core/postproc/columnar/merge.hpp"
#include "core/util/error.hpp"
#include "core/util/strings.hpp"

namespace rebench {

namespace {

/// Incrementally builds the lossless table form (entriesToTable and the
/// k-way merge both feed rows through this).  An extras key first seen at
/// row N gets a column backfilled with N nulls; rows lacking a known key
/// append a null.
class EntryTableBuilder {
 public:
  void add(const PerfLogEntry& entry) {
    columnar::appendString(ts_, entry.timestamp);
    columnar::appendString(version_, entry.frameworkVersion);
    columnar::appendString(system_, entry.system);
    columnar::appendString(partition_, entry.partition);
    columnar::appendString(environ_, entry.environ);
    columnar::appendString(test_, entry.testName);
    columnar::appendString(spec_, entry.spec);
    columnar::appendString(specHash_, entry.specHash);
    columnar::appendString(binaryId_, entry.binaryId);
    columnar::appendString(jobId_, entry.jobId);
    columnar::appendString(fom_, entry.fomName);
    columnar::appendDouble(value_, entry.value);
    columnar::appendString(unit_, unitName(entry.unit));
    if (entry.reference) {
      columnar::appendDouble(ref_, *entry.reference);
    } else {
      columnar::appendDoubleNull(ref_);
    }
    columnar::appendDouble(lower_, entry.lowerThresh);
    columnar::appendDouble(upper_, entry.upperThresh);
    columnar::appendString(result_, entry.result);

    for (auto& [key, col] : extras_) {
      const auto it = entry.extras.find(key);
      if (it != entry.extras.end()) {
        columnar::appendString(col, it->second);
      } else {
        columnar::appendStringNull(col);
      }
    }
    for (const auto& [key, val] : entry.extras) {
      if (extras_.find(key) != extras_.end()) continue;
      columnar::StringColumn col;
      for (std::size_t i = 0; i < rows_; ++i) columnar::appendStringNull(col);
      columnar::appendString(col, val);
      extras_.emplace(key, std::move(col));
    }
    ++rows_;
  }

  std::size_t rows() const { return rows_; }

  columnar::Table take() {
    columnar::Table table;
    table.rows = rows_;
    table.columns.push_back({"ts", std::move(ts_)});
    table.columns.push_back({"version", std::move(version_)});
    table.columns.push_back({"system", std::move(system_)});
    table.columns.push_back({"partition", std::move(partition_)});
    table.columns.push_back({"environ", std::move(environ_)});
    table.columns.push_back({"test", std::move(test_)});
    table.columns.push_back({"spec", std::move(spec_)});
    table.columns.push_back({"spec_hash", std::move(specHash_)});
    table.columns.push_back({"binary_id", std::move(binaryId_)});
    table.columns.push_back({"job_id", std::move(jobId_)});
    table.columns.push_back({"fom", std::move(fom_)});
    table.columns.push_back({"value", std::move(value_)});
    table.columns.push_back({"unit", std::move(unit_)});
    table.columns.push_back({"ref", std::move(ref_)});
    table.columns.push_back({"lower", std::move(lower_)});
    table.columns.push_back({"upper", std::move(upper_)});
    table.columns.push_back({"result", std::move(result_)});
    for (auto& [key, col] : extras_) {  // std::map: sorted key order
      table.columns.push_back({"x:" + key, std::move(col)});
    }
    *this = {};
    return table;
  }

 private:
  columnar::StringColumn ts_, version_, system_, partition_, environ_, test_,
      spec_, specHash_, binaryId_, jobId_, fom_, unit_, result_;
  columnar::DoubleColumn value_, ref_, lower_, upper_;
  std::map<std::string, columnar::StringColumn> extras_;
  std::size_t rows_ = 0;
};

std::size_t chunksOf(std::size_t rows) {
  return (rows + columnar::kChunkRows - 1) / columnar::kChunkRows;
}

const columnar::StringColumn& requireStrings(const columnar::Table& table,
                                             std::string_view name) {
  const columnar::Column* col = table.find(name);
  REBENCH_REQUIRE(col != nullptr && !col->isNumeric());
  return col->strs();
}

const columnar::DoubleColumn& requireDoubles(const columnar::Table& table,
                                             std::string_view name) {
  const columnar::Column* col = table.find(name);
  REBENCH_REQUIRE(col != nullptr && col->isNumeric());
  return col->doubles();
}

std::string stringCell(const columnar::StringColumn& col, std::size_t row) {
  const std::uint32_t code = col.codes[row];
  return code == columnar::kNullCode ? std::string() : col.dict->at(code);
}

}  // namespace

DataFrame perflogToDataFrame(std::span<const PerfLogEntry> entries) {
  DataFrame::StringColumn system, partition, environ, test, spec, fom, unit,
      result;
  DataFrame::NumericColumn value;
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
  DataFrame frame;
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

DataFrame assimilatePerflogs(std::span<const std::string> paths) {
  columnar::TableAppender appender;
  for (const std::string& path : paths) {
    std::ifstream in(path);
    if (!in) throw Error("cannot read perflog file '" + path + "'");
    std::vector<PerfLogEntry> batch;
    batch.reserve(columnar::kChunkRows);
    bool emitted = false;
    std::string line;
    while (std::getline(in, line)) {
      if (str::trim(line).empty()) continue;
      batch.push_back(PerfLogEntry::parse(line));
      if (batch.size() == columnar::kChunkRows) {
        appender.append(perflogToDataFrame(batch).table());
        batch.clear();
        emitted = true;
      }
    }
    // An empty shard still contributes its (empty) 9-column schema, like
    // the old per-file concat did.
    if (!batch.empty() || !emitted) {
      appender.append(perflogToDataFrame(batch).table());
    }
  }
  return DataFrame::fromTable(appender.take());
}

columnar::Table entriesToTable(std::span<const PerfLogEntry> entries) {
  EntryTableBuilder builder;
  for (const PerfLogEntry& entry : entries) builder.add(entry);
  return builder.take();
}

std::vector<PerfLogEntry> tableToPerflogEntries(const columnar::Table& table) {
  const columnar::StringColumn& ts = requireStrings(table, "ts");
  const columnar::StringColumn& version = requireStrings(table, "version");
  const columnar::StringColumn& system = requireStrings(table, "system");
  const columnar::StringColumn& partition = requireStrings(table, "partition");
  const columnar::StringColumn& environ = requireStrings(table, "environ");
  const columnar::StringColumn& test = requireStrings(table, "test");
  const columnar::StringColumn& spec = requireStrings(table, "spec");
  const columnar::StringColumn& specHash = requireStrings(table, "spec_hash");
  const columnar::StringColumn& binaryId = requireStrings(table, "binary_id");
  const columnar::StringColumn& jobId = requireStrings(table, "job_id");
  const columnar::StringColumn& fom = requireStrings(table, "fom");
  const columnar::DoubleColumn& value = requireDoubles(table, "value");
  const columnar::StringColumn& unit = requireStrings(table, "unit");
  const columnar::DoubleColumn& ref = requireDoubles(table, "ref");
  const columnar::DoubleColumn& lower = requireDoubles(table, "lower");
  const columnar::DoubleColumn& upper = requireDoubles(table, "upper");
  const columnar::StringColumn& result = requireStrings(table, "result");

  std::vector<std::pair<std::string, const columnar::StringColumn*>> extras;
  for (const columnar::Column& col : table.columns) {
    if (str::startsWith(col.name, "x:")) {
      REBENCH_REQUIRE(!col.isNumeric());
      extras.emplace_back(col.name.substr(2), &col.strs());
    }
  }

  std::vector<PerfLogEntry> out;
  out.reserve(table.rows);
  for (std::size_t i = 0; i < table.rows; ++i) {
    PerfLogEntry entry;
    entry.timestamp = stringCell(ts, i);
    entry.frameworkVersion = stringCell(version, i);
    entry.system = stringCell(system, i);
    entry.partition = stringCell(partition, i);
    entry.environ = stringCell(environ, i);
    entry.testName = stringCell(test, i);
    entry.spec = stringCell(spec, i);
    entry.specHash = stringCell(specHash, i);
    entry.binaryId = stringCell(binaryId, i);
    entry.jobId = stringCell(jobId, i);
    entry.fomName = stringCell(fom, i);
    entry.value = value.values[i];
    entry.unit = unitFromName(stringCell(unit, i));
    if (ref.validity.valid(i)) entry.reference = ref.values[i];
    entry.lowerThresh = lower.values[i];
    entry.upperThresh = upper.values[i];
    entry.result = stringCell(result, i);
    for (const auto& [key, col] : extras) {
      if (col->codes[i] != columnar::kNullCode) {
        entry.extras[key] = col->dict->at(col->codes[i]);
      }
    }
    out.push_back(std::move(entry));
  }
  return out;
}

DataFrame analysisFrameFromTable(const columnar::Table& table) {
  static constexpr std::string_view kAnalysisColumns[] = {
      "system", "partition", "environ", "test", "spec",
      "fom",    "unit",      "result",  "value"};
  columnar::Table out;
  out.rows = table.rows;
  for (const std::string_view name : kAnalysisColumns) {
    const columnar::Column* col = table.find(name);
    REBENCH_REQUIRE(col != nullptr);
    out.columns.push_back(*col);
  }
  return DataFrame::fromTable(std::move(out));
}

FrameCacheResult loadOrConvertPerflog(store::ObjectStore& store,
                                      const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot read perflog file '" + path + "'");
  const std::string bytes{std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>()};
  const std::string refName =
      "colframe/" + store::ObjectStore::hashBytes(bytes);

  FrameCacheResult out;
  if (const std::optional<std::string> footer = store.ref(refName)) {
    if (std::optional<columnar::Table> cached =
            columnar::readColFrame(store, *footer)) {
      out.table = std::move(*cached);
      out.cacheHit = true;
      return out;
    }
  }

  std::vector<std::string> lines;
  for (const std::string& line : str::split(bytes, '\n')) {
    if (!str::trim(line).empty()) lines.push_back(line);
  }
  out.table = entriesToTable(PerfLog::parseLines(lines));
  store.setRef(refName, columnar::writeColFrame(store, out.table));
  return out;
}

namespace {

/// Timestamp sort key: fully numeric stamps order as numbers and sort
/// before non-numeric ones (which order lexicographically).
struct TsKey {
  bool numeric = false;
  double num = 0.0;
  std::string text;
};

TsKey tsKey(const std::string& ts) {
  try {
    return {true, str::parseWhole<double>(ts, "ts"), {}};
  } catch (const ParseError&) {
    return {false, 0.0, ts};
  }
}

bool keyBefore(const TsKey& a, std::size_t inputA, const TsKey& b,
               std::size_t inputB) {
  if (a.numeric != b.numeric) return a.numeric;
  if (a.numeric) {
    if (a.num != b.num) return a.num < b.num;
  } else {
    if (a.text != b.text) return a.text < b.text;
  }
  return inputA < inputB;  // ties keep input order (then file order)
}

struct MergeInput {
  std::ifstream in;
  std::vector<PerfLogEntry> buffer;
  std::size_t pos = 0;
  TsKey frontKey;
};

/// Reads up to `chunkRows` parsed entries; returns rows added.
std::size_t refill(MergeInput& input, std::size_t chunkRows) {
  input.buffer.clear();
  input.pos = 0;
  std::string line;
  while (input.buffer.size() < chunkRows && std::getline(input.in, line)) {
    if (str::trim(line).empty()) continue;
    input.buffer.push_back(PerfLogEntry::parse(line));
  }
  return input.buffer.size();
}

}  // namespace

columnar::Table mergePerflogsByTime(std::span<const std::string> paths,
                                    std::size_t chunkRows, MergeStats* stats) {
  REBENCH_REQUIRE(chunkRows > 0);
  MergeStats local;
  local.inputs = paths.size();

  std::vector<MergeInput> inputs(paths.size());
  std::size_t buffered = 0;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    inputs[i].in.open(paths[i]);
    if (!inputs[i].in) {
      throw Error("cannot read perflog file '" + paths[i] + "'");
    }
    buffered += refill(inputs[i], chunkRows);
    if (!inputs[i].buffer.empty()) {
      inputs[i].frontKey = tsKey(inputs[i].buffer.front().timestamp);
    }
  }
  local.peakBufferedRows = buffered;

  const auto heapCmp = [&](std::size_t a, std::size_t b) {
    // priority_queue pops the largest; invert for a min-heap.
    return keyBefore(inputs[b].frontKey, b, inputs[a].frontKey, a);
  };
  std::priority_queue<std::size_t, std::vector<std::size_t>,
                      decltype(heapCmp)>
      heap(heapCmp);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (!inputs[i].buffer.empty()) heap.push(i);
  }

  EntryTableBuilder builder;
  while (!heap.empty()) {
    const std::size_t i = heap.top();
    heap.pop();
    MergeInput& input = inputs[i];
    builder.add(input.buffer[input.pos]);
    ++input.pos;
    --buffered;
    if (input.pos == input.buffer.size()) {
      buffered += refill(input, chunkRows);
      if (buffered > local.peakBufferedRows) local.peakBufferedRows = buffered;
    }
    if (input.pos < input.buffer.size()) {
      input.frontKey = tsKey(input.buffer[input.pos].timestamp);
      heap.push(i);
    }
  }

  local.rows = builder.rows();
  local.chunks = chunksOf(local.rows);
  if (stats != nullptr) *stats = local;
  return builder.take();
}

}  // namespace rebench
