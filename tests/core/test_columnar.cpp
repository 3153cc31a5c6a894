// Unit tests for the columnar engine underneath DataFrame: column
// primitives, zone-map skipping, schema-checked concatenation, the
// on-disk colframe cache and the streaming perflog merge.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/framework/perflog.hpp"
#include "core/postproc/columnar/arena.hpp"
#include "core/postproc/columnar/colfile.hpp"
#include "core/postproc/columnar/column.hpp"
#include "core/postproc/columnar/kernels.hpp"
#include "core/postproc/columnar/merge.hpp"
#include "core/postproc/columnar/table.hpp"
#include "core/postproc/perflog_reader.hpp"
#include "core/store/object_store.hpp"
#include "core/util/error.hpp"
#include "core/util/strings.hpp"

namespace rebench {
namespace {

namespace fs = std::filesystem;
using columnar::kChunkRows;
using columnar::kNullCode;

std::string tempPath(const std::string& leaf) {
  const fs::path path = fs::path(::testing::TempDir()) / leaf;
  fs::remove_all(path);  // hermetic across reruns: TempDir() is stable
  return path.string();
}

// ---- layer 0: column primitives -----------------------------------------

TEST(NullBitmap, AllValidRunsCostNoStorage) {
  columnar::NullBitmap bitmap;
  bitmap.appendRun(1000, true);
  EXPECT_EQ(bitmap.size(), 1000u);
  EXPECT_TRUE(bitmap.empty());  // never materialized
  EXPECT_EQ(bitmap.nullCount(), 0u);
  EXPECT_TRUE(bitmap.valid(0));
  EXPECT_TRUE(bitmap.valid(999));
}

TEST(NullBitmap, FirstNullBackfillsEarlierRowsAsValid) {
  columnar::NullBitmap bitmap;
  bitmap.appendRun(70, true);  // crosses a word boundary before tracking
  bitmap.append(false);
  bitmap.append(true);
  EXPECT_EQ(bitmap.size(), 72u);
  EXPECT_FALSE(bitmap.empty());
  EXPECT_EQ(bitmap.nullCount(), 1u);
  for (std::size_t i = 0; i < 70; ++i) EXPECT_TRUE(bitmap.valid(i));
  EXPECT_FALSE(bitmap.valid(70));
  EXPECT_TRUE(bitmap.valid(71));
}

TEST(NullBitmap, RoundTripsThroughRawWords) {
  columnar::NullBitmap bitmap;
  bitmap.append(true);
  bitmap.append(false);
  bitmap.append(false);
  bitmap.append(true);
  const columnar::NullBitmap copy =
      columnar::NullBitmap::fromWords(bitmap.words(), bitmap.size());
  EXPECT_EQ(copy.nullCount(), 2u);
  EXPECT_TRUE(copy.valid(0));
  EXPECT_FALSE(copy.valid(1));
  EXPECT_FALSE(copy.valid(2));
  EXPECT_TRUE(copy.valid(3));
}

TEST(Dictionary, AssignsCodesInFirstSeenOrder) {
  columnar::Dictionary dict;
  EXPECT_EQ(dict.encode("csd3"), 0u);
  EXPECT_EQ(dict.encode("archer2"), 1u);
  EXPECT_EQ(dict.encode("csd3"), 0u);  // repeat reuses the code
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(dict.at(1), "archer2");
  ASSERT_TRUE(dict.find("archer2").has_value());
  EXPECT_EQ(*dict.find("archer2"), 1u);
  EXPECT_FALSE(dict.find("cirrus").has_value());
}

TEST(TaggedColumnBuilder, CommitsNumericOnlyWhenEveryCellParses) {
  columnar::TaggedColumnBuilder numeric;
  numeric.add("1.5");
  numeric.add("-2e3");
  EXPECT_TRUE(numeric.numeric());

  columnar::TaggedColumnBuilder mixed;
  mixed.add("1.5");
  mixed.add("1.5 seconds");  // partial parse is not numeric
  EXPECT_FALSE(mixed.numeric());

  // Neither is a leading space or '+', nor hex.
  for (const char* cell : {" 12", "+5", "0x1A"}) {
    columnar::TaggedColumnBuilder near;
    near.add("1.5");
    near.add(cell);
    EXPECT_FALSE(near.numeric()) << cell;
  }

  columnar::TaggedColumnBuilder empty;
  EXPECT_FALSE(empty.numeric());  // no evidence -> strings
}

// fromCsv's cells are never null: a numeric commit tracks no bitmap, and
// a string commit dictionary-codes every cell.
TEST(TaggedColumnBuilder, CommitsCellsWithoutNulls) {
  columnar::TaggedColumnBuilder numbers;
  numbers.add("4.0");
  numbers.add("8.0");
  ASSERT_TRUE(numbers.numeric());
  const columnar::DoubleColumn nums = numbers.takeNumeric();
  ASSERT_EQ(nums.values.size(), 2u);
  EXPECT_DOUBLE_EQ(nums.values[1], 8.0);
  EXPECT_EQ(nums.validity.size(), 2u);
  EXPECT_TRUE(nums.validity.empty());
  EXPECT_EQ(nums.nullCount(), 0u);

  columnar::TaggedColumnBuilder words;
  words.add("alpha");
  words.add("");
  words.add("alpha");
  EXPECT_FALSE(words.numeric());
  const columnar::StringColumn col = words.takeStrings();
  EXPECT_EQ(col.codes, (std::vector<std::uint32_t>{0, 1, 0}));
  EXPECT_EQ(col.nullCount(), 0u);
  EXPECT_EQ(col.materialize()[1], "");
}

// ---- layer 2: zone-map skipping -----------------------------------------

TEST(ZoneMaps, EqualityProbeSkipsChunksOutsideCodeRange) {
  // Two full chunks: the first holds only "early", the second only "late".
  columnar::StringColumn col;
  for (std::size_t i = 0; i < kChunkRows; ++i) {
    columnar::appendString(col, "early");
  }
  for (std::size_t i = 0; i < kChunkRows; ++i) {
    columnar::appendString(col, "late");
  }
  columnar::Arena arena;
  columnar::KernelStats stats;
  const auto hits =
      columnar::selectEquals(col, "late", arena, &stats);
  EXPECT_EQ(hits.size(), kChunkRows);
  EXPECT_EQ(hits.front(), kChunkRows);
  EXPECT_EQ(stats.chunks, 2u);
  EXPECT_EQ(stats.skippedChunks, 1u);  // the all-"early" chunk
  EXPECT_EQ(stats.rows, 2 * kChunkRows);
}

TEST(ZoneMaps, ProbeAbsentFromDictionarySkipsEveryChunk) {
  columnar::StringColumn col;
  for (std::size_t i = 0; i < kChunkRows + 10; ++i) {
    columnar::appendString(col, "only");
  }
  columnar::Arena arena;
  columnar::KernelStats stats;
  const auto hits = columnar::selectEquals(col, "missing", arena, &stats);
  EXPECT_TRUE(hits.empty());
  EXPECT_EQ(stats.skippedChunks, stats.chunks);
}

TEST(ZoneMaps, RangeProbeSkipsChunksOutsideValueRange) {
  columnar::DoubleColumn col;
  for (std::size_t i = 0; i < kChunkRows; ++i) {
    columnar::appendDouble(col, static_cast<double>(i % 100));
  }
  for (std::size_t i = 0; i < kChunkRows; ++i) {
    columnar::appendDouble(col, 1000.0 + static_cast<double>(i % 100));
  }
  columnar::Arena arena;
  columnar::KernelStats stats;
  const auto hits = columnar::selectRange(col, 1000.0, 1010.0, arena, &stats);
  EXPECT_FALSE(hits.empty());
  EXPECT_EQ(stats.chunks, 2u);
  EXPECT_EQ(stats.skippedChunks, 1u);
  for (const std::uint32_t row : hits) EXPECT_GE(row, kChunkRows);
}

TEST(ZoneMaps, NumericZonesIgnoreNullSlots) {
  columnar::DoubleColumn col;
  columnar::appendDouble(col, 5.0);
  columnar::appendDoubleNull(col);  // NaN slot must not poison min/max
  columnar::appendDouble(col, 7.0);
  const auto& zones = col.zones();
  ASSERT_EQ(zones.size(), 1u);
  EXPECT_EQ(zones[0].count, 3u);
  EXPECT_EQ(zones[0].nulls, 1u);
  EXPECT_DOUBLE_EQ(zones[0].min, 5.0);
  EXPECT_DOUBLE_EQ(zones[0].max, 7.0);
}

TEST(SortedPercentile, LinearInterpolationMatchesStatsFormula) {
  const std::vector<double> sorted = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(columnar::sortedPercentile(sorted, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(columnar::sortedPercentile(sorted, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(columnar::sortedPercentile(sorted, 50.0), 2.5);
}

// ---- layer 3: concat / appender -----------------------------------------

columnar::Table twoColumnChunk(const std::string& name0,
                               const std::string& name1, bool secondNumeric) {
  columnar::Table table;
  columnar::StringColumn s;
  columnar::appendString(s, "x");
  table.columns.push_back({name0, std::move(s)});
  if (secondNumeric) {
    columnar::DoubleColumn d;
    columnar::appendDouble(d, 1.0);
    table.columns.push_back({name1, std::move(d)});
  } else {
    columnar::StringColumn t;
    columnar::appendString(t, "y");
    table.columns.push_back({name1, std::move(t)});
  }
  table.rows = 1;
  return table;
}

TEST(TableAppender, NamesFirstMismatchingColumnByName) {
  columnar::TableAppender appender;
  appender.append(twoColumnChunk("system", "value", true));
  try {
    appender.append(twoColumnChunk("system", "different", true));
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()),
              "cannot concat frames: column 2 is 'different' in frame 2 "
              "but 'value' in frame 1");
  }
}

TEST(TableAppender, NamesFirstMismatchingColumnByType) {
  columnar::TableAppender appender;
  appender.append(twoColumnChunk("system", "value", true));
  try {
    appender.append(twoColumnChunk("system", "value", false));
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()),
              "cannot concat frames: column 'value' is string in frame 2 "
              "but numeric in frame 1");
  }
}

TEST(TableAppender, ReportsColumnCountMismatch) {
  columnar::TableAppender appender;
  appender.append(twoColumnChunk("system", "value", true));
  columnar::Table narrow;
  columnar::StringColumn s;
  columnar::appendString(s, "x");
  narrow.columns.push_back({"system", std::move(s)});
  narrow.rows = 1;
  try {
    appender.append(narrow);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()),
              "cannot concat frames: frame 2 has 1 column(s), frame 1 has 2");
  }
}

TEST(ConcatTables, TranslatesDictionaryCodesAcrossInputs) {
  // The same label set encoded in different orders must decode the same.
  columnar::Table a;
  {
    columnar::StringColumn s;
    columnar::appendString(s, "one");
    columnar::appendString(s, "two");
    a.columns.push_back({"k", std::move(s)});
    a.rows = 2;
  }
  columnar::Table b;
  {
    columnar::StringColumn s;
    columnar::appendString(s, "two");  // code 0 here, code 1 in `a`
    columnar::appendString(s, "one");
    b.columns.push_back({"k", std::move(s)});
    b.rows = 2;
  }
  const columnar::Table* inputs[] = {&a, &b};
  const columnar::Table merged = columnar::concatTables(inputs);
  const auto& decoded = merged.columns[0].strs().materialize();
  EXPECT_EQ(decoded, (std::vector<std::string>{"one", "two", "two", "one"}));
}

// ---- colframe cache -----------------------------------------------------

columnar::Table losslessFixture() {
  std::vector<PerfLogEntry> entries;
  for (int i = 0; i < 3; ++i) {
    PerfLogEntry entry;
    entry.timestamp = std::to_string(100 + i);
    entry.system = i < 2 ? "archer2" : "csd3";
    entry.partition = "standard";
    entry.environ = "gcc@11.2.0";
    entry.testName = "stream";
    entry.spec = "stream@1.0";
    entry.specHash = "abc123";
    entry.binaryId = "bin456";
    entry.jobId = std::to_string(9000 + i);
    entry.fomName = "triad";
    entry.value = 100.0 + i;
    entry.unit = Unit::kGBperSec;
    if (i == 1) entry.reference = 105.0;  // ref only on one row
    entry.lowerThresh = -0.05;
    entry.upperThresh = 0.05;
    entry.result = "pass";
    if (i != 2) entry.extras["num_tasks"] = std::to_string(4 * (i + 1));
    if (i == 2) entry.extras["array_size"] = "1048576";
    entries.push_back(entry);
  }
  return entriesToTable(entries);
}

TEST(ColFrame, RoundTripsThroughTheObjectStore) {
  store::ObjectStore store(tempPath("colframe_rt"));
  const columnar::Table table = losslessFixture();
  const std::string footer = columnar::writeColFrame(store, table);
  const auto loaded = columnar::readColFrame(store, footer);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->columns.size(), table.columns.size());
  EXPECT_EQ(loaded->rows, table.rows);
  for (std::size_t c = 0; c < table.columns.size(); ++c) {
    SCOPED_TRACE(table.columns[c].name);
    EXPECT_EQ(loaded->columns[c].name, table.columns[c].name);
    ASSERT_EQ(loaded->columns[c].isNumeric(), table.columns[c].isNumeric());
    if (table.columns[c].isNumeric()) {
      const auto& want = table.columns[c].doubles();
      const auto& got = loaded->columns[c].doubles();
      ASSERT_EQ(got.values.size(), want.values.size());
      EXPECT_EQ(got.nullCount(), want.nullCount());
      for (std::size_t i = 0; i < want.values.size(); ++i) {
        if (!want.validity.valid(i)) {
          EXPECT_FALSE(got.validity.valid(i));
        } else {
          EXPECT_DOUBLE_EQ(got.values[i], want.values[i]);
        }
      }
    } else {
      EXPECT_EQ(loaded->columns[c].strs().materialize(),
                table.columns[c].strs().materialize());
      EXPECT_EQ(loaded->columns[c].strs().nullCount(),
                table.columns[c].strs().nullCount());
    }
  }
}

TEST(ColFrame, WriteIsDeterministic) {
  store::ObjectStore a(tempPath("colframe_det_a"));
  store::ObjectStore b(tempPath("colframe_det_b"));
  EXPECT_EQ(columnar::writeColFrame(a, losslessFixture()),
            columnar::writeColFrame(b, losslessFixture()));
}

TEST(ColFrame, AttachesFooterZoneMapsOnRead) {
  store::ObjectStore store(tempPath("colframe_zones"));
  const std::string footer =
      columnar::writeColFrame(store, losslessFixture());
  const auto loaded = columnar::readColFrame(store, footer);
  ASSERT_TRUE(loaded.has_value());
  const columnar::Column* value = loaded->find("value");
  ASSERT_NE(value, nullptr);
  const auto& zones = value->doubles().zones();
  ASSERT_EQ(zones.size(), 1u);
  EXPECT_EQ(zones[0].count, 3u);
  EXPECT_DOUBLE_EQ(zones[0].min, 100.0);
  EXPECT_DOUBLE_EQ(zones[0].max, 102.0);
}

TEST(ColFrame, CorruptColumnBlobReadsAsAbsent) {
  store::ObjectStore store(tempPath("colframe_corrupt"));
  const columnar::Table table = losslessFixture();
  const std::string footer = columnar::writeColFrame(store, table);

  // Truncate every object except the footer; the verified get must fail
  // for whichever column blob is touched first.
  const auto footerBytes = store.get(footer);
  ASSERT_TRUE(footerBytes.has_value());
  std::size_t corrupted = 0;
  for (const auto& entry :
       fs::directory_iterator(fs::path(store.dir()) / "objects")) {
    if (entry.path().filename() == footer) continue;
    std::ofstream(entry.path(), std::ios::trunc) << "garbage";
    ++corrupted;
  }
  ASSERT_GT(corrupted, 0u);
  EXPECT_FALSE(columnar::readColFrame(store, footer).has_value());
}

TEST(ColFrame, MissingFooterReadsAsAbsent) {
  store::ObjectStore store(tempPath("colframe_missing"));
  EXPECT_FALSE(
      columnar::readColFrame(store, "0123456789abcdef").has_value());
}

// ---- perflog cache + merge ----------------------------------------------

std::string writePerflog(const std::string& leaf,
                         const std::vector<PerfLogEntry>& entries) {
  const std::string path = tempPath(leaf);
  std::ofstream out(path, std::ios::trunc);
  for (const PerfLogEntry& entry : entries) out << entry.serialize() << "\n";
  return path;
}

PerfLogEntry simpleEntry(const std::string& stamp, const std::string& system,
                         double value) {
  PerfLogEntry entry;
  entry.timestamp = stamp;
  entry.system = system;
  entry.partition = "standard";
  entry.environ = "gcc@11.2.0";
  entry.testName = "stream";
  entry.spec = "stream@1.0";
  entry.specHash = "h";
  entry.binaryId = "b";
  entry.jobId = "j";
  entry.fomName = "triad";
  entry.value = value;
  entry.unit = Unit::kSeconds;
  entry.result = "pass";
  return entry;
}

TEST(FrameCache, ConvertsOnceThenHitsByContentHash) {
  const std::string path = writePerflog(
      "cache_hit.log", {simpleEntry("1", "archer2", 1.0),
                        simpleEntry("2", "archer2", 2.0)});
  store::ObjectStore store(tempPath("cache_hit_store"));

  const FrameCacheResult first = loadOrConvertPerflog(store, path);
  EXPECT_FALSE(first.cacheHit);
  EXPECT_EQ(first.table.rows, 2u);

  const FrameCacheResult second = loadOrConvertPerflog(store, path);
  EXPECT_TRUE(second.cacheHit);
  EXPECT_EQ(second.table.rows, 2u);
  EXPECT_EQ(tableToPerflogEntries(second.table)[1].serialize(),
            simpleEntry("2", "archer2", 2.0).serialize());
}

TEST(FrameCache, ChangedFileMissesTheOldEntry) {
  const std::string path =
      writePerflog("cache_change.log", {simpleEntry("1", "archer2", 1.0)});
  store::ObjectStore store(tempPath("cache_change_store"));
  (void)loadOrConvertPerflog(store, path);

  std::ofstream(path, std::ios::app)
      << simpleEntry("2", "csd3", 2.0).serialize() << "\n";
  const FrameCacheResult reread = loadOrConvertPerflog(store, path);
  EXPECT_FALSE(reread.cacheHit);  // new content hash, new conversion
  EXPECT_EQ(reread.table.rows, 2u);
}

TEST(FrameCache, CorruptCacheDegradesToReparse) {
  const std::string path =
      writePerflog("cache_corrupt.log", {simpleEntry("1", "archer2", 1.0)});
  store::ObjectStore store(tempPath("cache_corrupt_store"));
  (void)loadOrConvertPerflog(store, path);

  // Smash every cached object; the verified read fails and the loader
  // must fall back to parsing the perflog again.
  for (const auto& entry :
       fs::directory_iterator(fs::path(store.dir()) / "objects")) {
    std::ofstream(entry.path(), std::ios::trunc) << "garbage";
  }
  const FrameCacheResult reread = loadOrConvertPerflog(store, path);
  EXPECT_FALSE(reread.cacheHit);
  EXPECT_EQ(reread.table.rows, 1u);
  EXPECT_EQ(tableToPerflogEntries(reread.table)[0].serialize(),
            simpleEntry("1", "archer2", 1.0).serialize());
}

TEST(LosslessTable, RoundTripsEntriesIncludingExtrasAndReference) {
  std::vector<PerfLogEntry> entries;
  entries.push_back(simpleEntry("10", "archer2", 1.5));
  entries.back().extras["num_tasks"] = "8";
  entries.push_back(simpleEntry("11", "csd3", 2.5));
  entries.back().reference = 2.0;
  entries.back().extras["array_size"] = "4096";
  entries.back().result = "fail";

  const columnar::Table table = entriesToTable(entries);
  const std::vector<PerfLogEntry> back = tableToPerflogEntries(table);
  ASSERT_EQ(back.size(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(back[i].serialize(), entries[i].serialize());
  }
  // Each extras key appears exactly once in sorted order, with nulls on
  // the rows that lack it.
  const columnar::Column* tasks = table.find("x:num_tasks");
  ASSERT_NE(tasks, nullptr);
  EXPECT_EQ(tasks->strs().nullCount(), 1u);
}

TEST(LosslessTable, AnalysisProjectionMatchesDirectConversion) {
  std::vector<PerfLogEntry> entries = {simpleEntry("1", "archer2", 1.0),
                                       simpleEntry("2", "csd3", 2.0)};
  entries[0].extras["num_tasks"] = "4";
  const DataFrame direct = perflogToDataFrame(entries);
  const DataFrame projected = analysisFrameFromTable(entriesToTable(entries));
  EXPECT_EQ(projected.toCsv(), direct.toCsv());
}

TEST(MergePerflogs, OrdersNumericStampsNumerically) {
  // Lexicographic order would put "9" after "10"; numeric order must not.
  const std::string a = writePerflog(
      "merge_a.log",
      {simpleEntry("9", "archer2", 1.0), simpleEntry("100", "archer2", 3.0)});
  const std::string b = writePerflog(
      "merge_b.log",
      {simpleEntry("10", "csd3", 2.0), simpleEntry("200", "csd3", 4.0)});
  const std::vector<std::string> paths = {a, b};
  const columnar::Table merged = mergePerflogsByTime(paths);
  const std::vector<PerfLogEntry> rows = tableToPerflogEntries(merged);
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].timestamp, "9");
  EXPECT_EQ(rows[1].timestamp, "10");
  EXPECT_EQ(rows[2].timestamp, "100");
  EXPECT_EQ(rows[3].timestamp, "200");
}

TEST(MergePerflogs, TiesKeepInputOrderAndTextStampsSortLast) {
  // " 12", "+5" and "0x1A" are not whole number tokens, so they are text.
  const std::string a = writePerflog(
      "merge_tie_a.log",
      {simpleEntry("5", "archer2", 1.0), simpleEntry(" 12", "archer2", 3.0),
       simpleEntry("0x1A", "archer2", 5.0), simpleEntry("T2", "archer2", 9.0)});
  const std::string b = writePerflog(
      "merge_tie_b.log",
      {simpleEntry("5", "csd3", 2.0), simpleEntry("+5", "csd3", 4.0),
       simpleEntry("T1", "csd3", 8.0)});
  const std::vector<std::string> paths = {a, b};
  const std::vector<PerfLogEntry> rows =
      tableToPerflogEntries(mergePerflogsByTime(paths));
  ASSERT_EQ(rows.size(), 7u);
  EXPECT_EQ(rows[0].system, "archer2");  // tie at "5": input 0 first
  EXPECT_EQ(rows[1].system, "csd3");
  // Non-numeric: lexicographic, last.
  EXPECT_EQ(rows[2].timestamp, " 12");
  EXPECT_EQ(rows[3].timestamp, "+5");
  EXPECT_EQ(rows[4].timestamp, "0x1A");
  EXPECT_EQ(rows[5].timestamp, "T1");
  EXPECT_EQ(rows[6].timestamp, "T2");
}

TEST(MergePerflogs, BuffersAtMostOneChunkPerInput) {
  std::vector<PerfLogEntry> a, b;
  for (int i = 0; i < 20; ++i) {
    a.push_back(simpleEntry(std::to_string(2 * i), "archer2", i));
    b.push_back(simpleEntry(std::to_string(2 * i + 1), "csd3", i));
  }
  const std::vector<std::string> paths = {writePerflog("merge_mem_a.log", a),
                                          writePerflog("merge_mem_b.log", b)};
  MergeStats stats;
  const columnar::Table merged =
      mergePerflogsByTime(paths, /*chunkRows=*/4, &stats);
  EXPECT_EQ(merged.rows, 40u);
  EXPECT_EQ(stats.inputs, 2u);
  EXPECT_EQ(stats.rows, 40u);
  EXPECT_LE(stats.peakBufferedRows, 2u * 4u);  // inputs x chunkRows

  // Perfectly interleaved stamps come out globally sorted.
  const std::vector<PerfLogEntry> rows = tableToPerflogEntries(merged);
  for (std::size_t i = 0; i + 1 < rows.size(); ++i) {
    EXPECT_LT(std::stod(rows[i].timestamp), std::stod(rows[i + 1].timestamp));
  }
}

TEST(MergePerflogs, UnreadableInputThrows) {
  const std::vector<std::string> paths = {tempPath("merge_nope.log")};
  EXPECT_THROW(mergePerflogsByTime(paths), Error);
}

}  // namespace
}  // namespace rebench
