// Unit tests for the longitudinal history subsystem: segment
// serialization, the hash-chained store-backed index (concurrent
// appends, broken chains, long-lived chains kept up to date by refresh), FOM
// aggregation, the trend view's changepoints, trend rendering, the
// regression gate, and perflogs as a record source.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <chrono>
#include <cmath>
#include <ctime>
#include <exception>
#include <filesystem>
#include <fstream>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/framework/perflog.hpp"
#include "core/framework/pipeline.hpp"
#include "core/history/history.hpp"
#include "core/obs/json.hpp"
#include "core/store/manifest.hpp"
#include "core/store/object_store.hpp"
#include "core/util/error.hpp"
#include "core/util/rng.hpp"
#include "core/util/strings.hpp"
#include "dir_snapshot.hpp"
#include "object_stamp.hpp"
#include "open_file_limit.hpp"

namespace rebench::history {
namespace {

namespace fs = std::filesystem;

HistoryRecord makeRecord(const std::string& test, const std::string& fom,
                         double mean) {
  HistoryRecord record;
  record.test = test;
  record.target = "archer2:compute";
  record.fom = fom;
  record.manifestHash = "0123456789abcdef";
  record.envFingerprint = "fedcba9876543210";
  record.specHash = "00ff00ff00ff00ff";
  record.mean = mean;
  record.min = mean - 1.0;
  record.max = mean + 1.0;
  record.repeats = 3;
  record.simTimestamp = 12.5;
  return record;
}

/// Records as their seqs plus segment bytes, for whole-chain comparisons.
std::string recordBytes(std::span<const HistoryRecord> records) {
  std::string seqs;
  for (const HistoryRecord& record : records) {
    seqs += std::to_string(record.seq) + ",";
  }
  return seqs + "\n" + serializeSegment(records, "", 0, 0);
}
std::string recordBytes(const Chain& chain) {
  return recordBytes(chain.records);
}

class HistoryIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("rebench-history-test-" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

TEST(HistorySegmentTest, SerializeParseRoundTrip) {
  std::vector<HistoryRecord> records{makeRecord("StreamTest", "Triad", 100.5),
                                     makeRecord("StreamTest", "Copy", 90.25)};
  records[0].seq = 7;
  records[1].seq = 8;
  const std::string blob = serializeSegment(records, "cafecafecafecafe", 3, 7);
  std::string prev;
  std::uint64_t seq = 0;
  const auto parsed = parseSegment(blob, &prev, &seq);
  EXPECT_EQ(prev, "cafecafecafecafe");
  EXPECT_EQ(seq, 3u);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].seq, 7u);
  EXPECT_EQ(parsed[0].test, "StreamTest");
  EXPECT_EQ(parsed[0].fom, "Triad");
  EXPECT_EQ(parsed[0].manifestHash, "0123456789abcdef");
  EXPECT_EQ(parsed[0].envFingerprint, "fedcba9876543210");
  EXPECT_EQ(parsed[0].specHash, "00ff00ff00ff00ff");
  EXPECT_DOUBLE_EQ(parsed[0].mean, 100.5);
  EXPECT_DOUBLE_EQ(parsed[1].mean, 90.25);
  EXPECT_EQ(parsed[1].repeats, 3);
}

// A field equal to the one above it is a lone "="; the first row, empty
// fields and escaped "=" are never dittoed, and seq is not stored.
TEST(HistorySegmentTest, WritesDittoCodedRows) {
  std::vector<HistoryRecord> records{makeRecord("StreamTest", "Triad", 100.5),
                                     makeRecord("StreamTest", "Copy", 90.25),
                                     makeRecord("a|b=", "Copy", 90.25)};
  records[0].envFingerprint = "";
  records[1].envFingerprint = "";
  records[2].envFingerprint = "=";
  records[2].ess = 2.5;
  EXPECT_EQ(serializeSegment(records, "cafecafecafecafe", 3, 7),
            "rebench.history/2|cafecafecafecafe|3|7|3\n"
            "StreamTest|archer2:compute|Triad|0123456789abcdef||"
            "00ff00ff00ff00ff|100.500000|99.500000|101.500000|0.000000|"
            "0.000|3|12.500000\n"
            "=|=|Copy|=||=|90.250000|89.250000|91.250000|=|=|=|=\n"
            "a%7cb%3d|=|=|=|%3d|=|=|=|=|=|2.500|=|=\n");
  const auto parsed = parseSegment(serializeSegment(records, "", 0, 7));
  ASSERT_EQ(parsed.size(), 3u);
  EXPECT_EQ(parsed[2].seq, 9u);
  EXPECT_EQ(parsed[2].test, "a|b=");
  EXPECT_EQ(parsed[2].target, "archer2:compute");
  EXPECT_EQ(parsed[2].envFingerprint, "=");
  EXPECT_DOUBLE_EQ(parsed[2].min, 89.25);
  EXPECT_DOUBLE_EQ(parsed[2].ess, 2.5);
}

TEST(HistorySegmentTest, ParseRejectsWrongSchema) {
  EXPECT_THROW(parseSegment("{\"kind\":\"meta\",\"schema\":\"bogus/9\"}\n"),
               Error);
  for (const std::string header :
       {"rebench.history/3|||0|0|0\n", "rebench.history/1|x|0|0|0\n"}) {
    try {
      parseSegment(header);
      FAIL() << "expected a schema error for " << header;
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("'" + header.substr(0, header.find('|')) + "'"),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("rebench.history/2"), std::string::npos) << what;
    }
  }
}

// The rebench.history/2 parse is strict: every malformed header, row,
// field or number throws.
TEST(HistorySegmentTest, ParseRejectsMalformedRows) {
  const std::string row =
      "A|archer2:compute|Triad|m|e|s|1.000000|0.500000|1.500000|0.000000|"
      "3.000|3|0.000000\n";
  EXPECT_EQ(parseSegment("rebench.history/2||0|0|1\n" + row).size(), 1u);
  for (const std::string& bad : {
           "rebench.history/2||0|0\n" + row,            // 4 header fields
           "rebench.history/2||0|0|1|x\n" + row,        // 6 header fields
           "rebench.history/2||0|0|2\n" + row,          // fewer rows
           "rebench.history/2||0|0|0\n" + row,          // more rows
           "rebench.history/2||0|0|1\n" + row + "\n",   // a blank row
           "rebench.history/2||0|0|1\n" + row.substr(0, row.size() - 1),
           "rebench.history/2||x|0|1\n" + row,          // seq not a number
           "rebench.history/2||0|-1|1\n" + row,         // negative base
           "rebench.history/2||0|0|1\nA|" + row,        // 14 fields
           "rebench.history/2||0|0|1\n" + row.substr(2),  // 12 fields
           "rebench.history/2||0|0|1\n=" + row.substr(1),  // ditto first row
           "rebench.history/2||0|0|1\n%7" + row.substr(1),  // bad escape
           "rebench.history/2|%zz|0|0|1\n" + row,       // bad escape in prev
           "rebench.history/2||0|0|1\n" +
               str::replaceAll(row, "1.000000", "1.000000x"),
           "rebench.history/2||0|0|1\n" +
               str::replaceAll(row, "|3|", "|3.5|"),    // repeats not whole
           "rebench.history/2||0|0|1\n" +
               str::replaceAll(row, "1.500000", ""),    // empty number
           std::string("rebench.history/2")}) {
    EXPECT_THROW(parseSegment(bad), Error) << bad;
  }
}

TEST(HistorySegmentTest, ParseRejectsMissingMeta) {
  EXPECT_THROW(parseSegment("{\"kind\":\"record\",\"seq\":0}\n"), Error);
}

// JSON numbers are doubles: an integer field outside its type throws
// rather than reaching an undefined cast.
TEST(HistorySegmentTest, JsonLinesRejectOutOfRangeIntegers) {
  const std::string meta =
      "{\"kind\":\"meta\",\"schema\":\"rebench.history/1\",\"prev\":\"\","
      "\"seq\":0,\"base\":0,\"records\":1}\n";
  EXPECT_EQ(
      parseSegment(meta + "{\"kind\":\"record\",\"seq\":0,\"repeats\":3}\n")
          .size(),
      1u);
  for (const std::string bad :
       {"{\"kind\":\"record\",\"seq\":-1}", "{\"kind\":\"record\",\"seq\":1e300}",
        "{\"kind\":\"record\",\"repeats\":1e300}",
        "{\"kind\":\"record\",\"repeats\":-3e9}"}) {
    EXPECT_THROW(parseSegment(meta + bad + "\n"), Error) << bad;
  }
  std::uint64_t seq = 0;
  EXPECT_THROW(parseSegment(str::replaceAll(meta, "\"seq\":0", "\"seq\":-2"),
                            nullptr, &seq),
               Error);
}

TEST_F(HistoryIndexTest, AppendAssignsMonotoneSequenceAcrossSegments) {
  store::ObjectStore store(dir_);
  HistoryIndex index(store);
  EXPECT_EQ(index.appendSegment({}), "");
  std::vector<HistoryRecord> first{makeRecord("A", "Triad", 100.0),
                                   makeRecord("B", "Triad", 50.0)};
  std::vector<HistoryRecord> second{makeRecord("A", "Triad", 101.0)};
  const std::string h1 = index.appendSegment(first);
  const std::string h2 = index.appendSegment(second);
  EXPECT_NE(h1, "");
  EXPECT_NE(h2, h1);
  EXPECT_EQ(index.readChain().segments.size(), 2u);

  const auto all = index.readAll();
  ASSERT_EQ(all.size(), 3u);
  for (std::size_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i].seq, i);
  EXPECT_EQ(all[2].test, "A");
  EXPECT_DOUBLE_EQ(all[2].mean, 101.0);

  // The chain and its sequence numbering survive a reopen.
  store::ObjectStore reopened(dir_);
  HistoryIndex reopenedIndex(reopened);
  const auto again = reopenedIndex.readAll();
  ASSERT_EQ(again.size(), 3u);
  EXPECT_EQ(again[2].seq, 2u);
  const std::string h3 =
      reopenedIndex.appendSegment({{makeRecord("C", "Triad", 10.0)}});
  EXPECT_EQ(reopened.ref(kHeadRef), h3);
  EXPECT_EQ(reopenedIndex.readAll().back().seq, 3u);
}

TEST_F(HistoryIndexTest, QueryFiltersByTestTargetAndFom) {
  store::ObjectStore store(dir_);
  HistoryIndex index(store);
  std::vector<HistoryRecord> records{makeRecord("A", "Triad", 1.0),
                                     makeRecord("A", "Copy", 2.0),
                                     makeRecord("B", "Triad", 3.0)};
  records[2].target = "noctua2:gpu";
  index.appendSegment(records);

  EXPECT_EQ(index.query("A").size(), 2u);
  EXPECT_EQ(index.query("A", "archer2:compute", "Copy").size(), 1u);
  EXPECT_EQ(index.query("", "noctua2:gpu").size(), 1u);
  EXPECT_EQ(index.query("", "", "Triad").size(), 2u);
  EXPECT_EQ(index.query("Missing").size(), 0u);
}

// The serve daemon's tail appends at the tip of the chain it already
// walked; the segment must be the one appendSegment's head read makes.
TEST_F(HistoryIndexTest, AppendAtWalkedTipMatchesAppendSegment) {
  store::ObjectStore viaHead(dir_ + "/head");
  store::ObjectStore viaWalk(dir_ + "/walk");
  HistoryIndex headIndex(viaHead);
  HistoryIndex walkIndex(viaWalk);
  const std::vector<std::vector<HistoryRecord>> campaigns{
      {makeRecord("A", "Triad", 100.0), makeRecord("B", "Triad", 50.0)},
      {makeRecord("A", "Triad", 101.0)},
      {makeRecord("A", "Copy", 80.0), makeRecord("B", "Copy", 40.0),
       makeRecord("C", "Copy", 20.0)}};
  for (const std::vector<HistoryRecord>& records : campaigns) {
    const Chain chain = walkIndex.readChain();
    EXPECT_EQ(recordBytes(chain.records), recordBytes(walkIndex.readAll()));
    const std::string expected = headIndex.appendSegment(records);
    const std::string actual = walkIndex.appendSegment(chain.tip, records);
    EXPECT_EQ(actual, expected);
    EXPECT_EQ(viaWalk.get(actual), viaHead.get(expected));
    EXPECT_EQ(viaWalk.ref(kHeadRef), viaHead.ref(kHeadRef));
  }
  const Chain chain = walkIndex.readChain();
  EXPECT_EQ(chain.tip.head, viaWalk.ref(kHeadRef).value_or(""));
  EXPECT_EQ(chain.tip.seq, 3u);
  EXPECT_EQ(chain.tip.base, 6u);
  EXPECT_EQ(recordBytes(chain.records), recordBytes(headIndex.readAll()));
}

// Non-finite aggregates round-trip; the JSON lines of rebench.history/1
// wrote them as bare tokens its own reader rejected, breaking the chain.
TEST_F(HistoryIndexTest, NonFiniteValuesRoundTrip) {
  store::ObjectStore store(dir_);
  HistoryIndex index(store);
  HistoryRecord record = makeRecord("A", "Triad", 1.0);
  record.mean = std::numeric_limits<double>::infinity();
  record.min = -std::numeric_limits<double>::infinity();
  record.ci = std::numeric_limits<double>::quiet_NaN();
  record.ess = std::numeric_limits<double>::quiet_NaN();
  index.appendSegment({{record}});
  index.appendSegment({{makeRecord("A", "Triad", 2.0)}});
  const auto all = index.readAll();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_TRUE(std::isinf(all[0].mean) && all[0].mean > 0);
  EXPECT_TRUE(std::isinf(all[0].min) && all[0].min < 0);
  EXPECT_DOUBLE_EQ(all[0].max, 2.0);
  EXPECT_TRUE(std::isnan(all[0].ci));
  EXPECT_TRUE(std::isnan(all[0].ess));
  EXPECT_DOUBLE_EQ(all[1].mean, 2.0);
}

// Two rebench.history/1 segments as the JSON-lines writer wrote them; the
// second names the first as `prev`.
constexpr std::string_view kV1First =
    "{\"kind\":\"meta\",\"schema\":\"rebench.history/1\",\"prev\":\"\","
    "\"seq\":0,\"base\":0,\"records\":2}\n"
    "{\"kind\":\"record\",\"seq\":0,\"test\":\"A\",\"target\":"
    "\"archer2:compute\",\"fom\":\"Triad\",\"manifest\":\"0123456789abcdef\","
    "\"env\":\"fedcba9876543210\",\"spec\":\"00ff00ff00ff00ff\",\"mean\":"
    "100.100000,\"min\":99.100000,\"max\":101.100000,\"ci\":0.250000,"
    "\"ess\":2.500,\"repeats\":3,\"sim_timestamp\":12.500000}\n"
    "{\"kind\":\"record\",\"seq\":1,\"test\":\"B|=%\\\"x\\\\\",\"target\":"
    "\"archer2:compute\",\"fom\":\"Copy\",\"manifest\":\"0123456789abcdef\","
    "\"env\":\"fedcba9876543210\",\"spec\":\"00ff00ff00ff00ff\",\"mean\":"
    "50.000000,\"min\":49.000000,\"max\":51.000000,\"ci\":0.000000,"
    "\"ess\":0.000,\"repeats\":3,\"sim_timestamp\":12.500000}\n";

std::string v1Second(const std::string& prev) {
  return "{\"kind\":\"meta\",\"schema\":\"rebench.history/1\",\"prev\":\"" +
         prev +
         "\",\"seq\":1,\"base\":2,\"records\":1}\n"
         "{\"kind\":\"record\",\"seq\":2,\"test\":\"A\",\"target\":"
         "\"archer2:compute\",\"fom\":\"Triad\",\"manifest\":"
         "\"1111111111111111\",\"env\":\"fedcba9876543210\",\"spec\":"
         "\"00ff00ff00ff00ff\",\"mean\":101.300000,\"min\":100.300000,"
         "\"max\":102.300000,\"ci\":0.125000,\"ess\":3.000,\"repeats\":3,"
         "\"sim_timestamp\":25.000000}\n";
}

// A store written before rebench.history/2 keeps its segments; the chain
// grows v2 segments on top and reads exactly as the same records written
// as an all-v2 chain.
TEST_F(HistoryIndexTest, V1ChainExtendedByV2ReadsAsAllV2Chain) {
  store::ObjectStore mixedStore(dir_ + "/mixed");
  store::ObjectStore v2Store(dir_ + "/v2");
  HistoryIndex mixed(mixedStore);
  HistoryIndex v2(v2Store);
  const std::string first = mixedStore.put(std::string(kV1First));
  const std::string second = mixedStore.put(v1Second(first));
  mixedStore.setRef(kHeadRef, second);
  Chain chain = mixed.readChain();
  ASSERT_EQ(chain.records.size(), 3u);
  EXPECT_EQ(chain.records[1].test, "B|=%\"x\\");
  v2.appendSegment(parseSegment(kV1First));
  v2.appendSegment(parseSegment(v1Second(first)));

  const std::vector<std::vector<HistoryRecord>> campaigns{
      {makeRecord("A", "Triad", 99.7), makeRecord("B|=%\"x\\", "Copy", 48.0)},
      {makeRecord("A", "Triad", 90.0)}};
  for (const std::vector<HistoryRecord>& records : campaigns) {
    mixed.appendSegment(records);
    v2.appendSegment(records);
  }

  const std::vector<HistoryRecord> all = mixed.readAll();
  ASSERT_EQ(all.size(), 6u);
  for (std::size_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i].seq, i);
  EXPECT_DOUBLE_EQ(all[2].ci, 0.125);
  EXPECT_EQ(recordBytes(all), recordBytes(v2.readAll()));
  EXPECT_EQ(renderHistory(all, {}), renderHistory(v2.readAll(), {}));
  EXPECT_EQ(renderHistory(all, {.json = true}),
            renderHistory(v2.readAll(), {.json = true}));

  // A chain whose tip is the last v1 segment reads only the v2 ones.
  const std::uint64_t reads = mixed.segmentReads();
  mixed.refresh(chain);
  EXPECT_GE(mixed.segmentReads(), reads + 2);
  const Chain fresh = v2.readChain();
  EXPECT_EQ(recordBytes(chain), recordBytes(fresh));
  EXPECT_EQ(chain.tip.seq, fresh.tip.seq);
  EXPECT_EQ(chain.tip.base, fresh.tip.base);
  EXPECT_EQ(chain.segments.size(), 4u);
}

// Reading the chain writes nothing anywhere in the store directory.
TEST_F(HistoryIndexTest, ReadingPinnedSegmentsWritesNothing) {
  store::ObjectStore store(dir_);
  HistoryIndex index(store);
  for (int i = 0; i < 8; ++i) {
    index.appendSegment({{makeRecord("A", "Triad", 100.0 + i)}});
  }
  const auto before = snapshotDir(dir_);
  EXPECT_EQ(index.readAll().size(), 8u);
  Chain chain = index.readChain();
  EXPECT_EQ(chain.records.size(), 8u);
  index.refresh(chain);
  EXPECT_EQ(index.query("A").size(), 8u);
  EXPECT_EQ(index.readChain().segments.size(), 8u);
  EXPECT_EQ(snapshotDir(dir_), before);
}

// Two writers, each with its own store handle on one directory (as two
// `run --store S` processes have), append concurrently: the head's
// compare-and-swap keeps every segment in one chain with monotone seqs.
TEST_F(HistoryIndexTest, ConcurrentAppendsFromTwoHandlesKeepEverySegment) {
  constexpr int kPerWriter = 50;
  const auto writer = [&](const std::string& test) {
    store::ObjectStore store(dir_);
    HistoryIndex index(store);
    for (int i = 0; i < kPerWriter; ++i) {
      index.appendSegment({{makeRecord(test, "Triad", 100.0 + i)}});
    }
  };
  std::thread first(writer, "A");
  std::thread second(writer, "B");
  first.join();
  second.join();

  store::ObjectStore store(dir_);
  HistoryIndex index(store);
  const Chain chain = index.readChain();
  ASSERT_EQ(chain.segments.size(), 2u * kPerWriter);
  ASSERT_EQ(chain.records.size(), 2u * kPerWriter);
  for (std::size_t i = 0; i < chain.records.size(); ++i) {
    EXPECT_EQ(chain.records[i].seq, i);
  }
  // Each writer's own records keep their order.
  for (const std::string test : {"A", "B"}) {
    const std::vector<HistoryRecord> mine = index.query(test);
    ASSERT_EQ(mine.size(), static_cast<std::size_t>(kPerWriter));
    for (int i = 0; i < kPerWriter; ++i) {
      EXPECT_DOUBLE_EQ(mine[i].mean, 100.0 + i);
    }
  }
}

// ------------------------------------------------- long-lived chains

/// `count` one-record segments appended through `index`.
void appendSegments(HistoryIndex& index, int count) {
  for (int i = 0; i < count; ++i) {
    index.appendSegment({{makeRecord("A", "Triad", 100.0 + i)}});
  }
}

// A long-lived chain is as strict as a fresh walk: each way an older
// segment can change on disk makes the next refresh throw, as readChain
// does, and leaves the chain empty.
TEST_F(HistoryIndexTest, RefreshCatchesInPlaceRewriteRightAfterVerify) {
  store::ObjectStore store(dir_);
  HistoryIndex index(store);
  appendSegments(index, 3);
  Chain chain;
  index.refresh(chain);
  ASSERT_EQ(chain.segments.size(), 3u);
  const std::string path = store.objectPath(chain.segments[1].hash);
  if (withinATick(path)) EXPECT_TRUE(chain.segments[1].racy);
  rewriteInPlace(path);
  EXPECT_THROW(index.refresh(chain), Error);
  EXPECT_TRUE(chain.records.empty());
  EXPECT_TRUE(chain.segments.empty());
  EXPECT_THROW(index.readChain(), Error);
}

TEST_F(HistoryIndexTest, RefreshCatchesInPlaceRewriteOfTrustedSegment) {
  store::ObjectStore store(dir_);
  HistoryIndex index(store);
  appendSegments(index, 3);
  Chain chain;
  index.refresh(chain);
  waitUntilTrustable(store.objectPath(chain.segments.back().hash));
  index.refresh(chain);  // re-reads the racy stamps: now all trusted
  for (const store::ObjectStamp& stamp : chain.segments) {
    EXPECT_FALSE(stamp.racy);
  }
  const std::uint64_t reads = index.segmentReads();
  index.refresh(chain);
  EXPECT_EQ(index.segmentReads(), reads);  // trusted: stat only
  rewriteInPlace(store.objectPath(chain.segments[0].hash));
  EXPECT_THROW(index.refresh(chain), Error);
  EXPECT_TRUE(chain.records.empty());
}

TEST_F(HistoryIndexTest, RefreshCatchesRewriteWithMtimeSetBack) {
  store::ObjectStore store(dir_);
  HistoryIndex index(store);
  appendSegments(index, 3);
  Chain chain;
  index.refresh(chain);
  waitUntilTrustable(store.objectPath(chain.segments.back().hash));
  index.refresh(chain);
  const std::string path = store.objectPath(chain.segments[1].hash);
  struct stat before {};
  ASSERT_EQ(::stat(path.c_str(), &before), 0);
  rewriteInPlace(path);
  // Size and mtime as verified; only the ctime, which userspace cannot
  // set back, records the rewrite.
  const timespec times[2] = {before.st_atim, before.st_mtim};
  ASSERT_EQ(::utimensat(AT_FDCWD, path.c_str(), times, 0), 0);
  EXPECT_THROW(index.refresh(chain), Error);
  EXPECT_TRUE(chain.records.empty());
}

TEST_F(HistoryIndexTest, RefreshCatchesDeletedSegment) {
  store::ObjectStore store(dir_);
  HistoryIndex index(store);
  appendSegments(index, 3);
  Chain chain;
  index.refresh(chain);
  const std::string missing = chain.segments[0].hash;
  fs::remove(store.objectPath(missing));
  try {
    index.refresh(chain);
    FAIL() << "expected broken-chain error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(missing), std::string::npos);
  }
  EXPECT_TRUE(chain.records.empty());
}

// A segment that exists but cannot be read (every open fails with
// EMFILE) is an error naming it, not a corrupt object: nothing is deleted,
// and the whole chain reads once opens succeed again.
TEST_F(HistoryIndexTest, SegmentThatCannotBeReadIsAnErrorAndStays) {
  store::ObjectStore store(dir_);
  HistoryIndex index(store);
  appendSegments(index, 3);
  const std::string head = store.ref(kHeadRef).value();
  std::exception_ptr get;
  std::exception_ptr walk;
  {
    const OpenFileLimit limit;
    get = thrownBy([&] { store.get(head); });
    walk = thrownBy([&] { index.readAll(); });
  }
  ASSERT_TRUE(get && walk) << "an unreadable segment read as absent";
  try {
    std::rethrow_exception(get);
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(head), std::string::npos);
  }
  EXPECT_THROW(std::rethrow_exception(walk), Error);
  EXPECT_TRUE(fs::exists(store.objectPath(head)));
  EXPECT_EQ(store.stats().corrupt, 0u);
  EXPECT_TRUE(store.get(head).has_value());
  EXPECT_EQ(index.readAll().size(), 3u);
}

// A rewrite in the tick a segment was verified in may leave its whole
// stat unchanged.  Simulated by stamping the chain with the rewritten
// file's stat: a racy stamp is re-read regardless and the rewrite caught,
// while a trusted stamp that matches is not read at all.
TEST_F(HistoryIndexTest, RacyStampIsReReadEvenWhenStatMatches) {
  store::ObjectStore store(dir_);
  HistoryIndex index(store);
  appendSegments(index, 2);
  Chain chain;
  index.refresh(chain);
  store::ObjectStamp& stamp = chain.segments[0];
  const std::string path = store.objectPath(stamp.hash);
  const auto restamp = [&](bool racy) {
    struct stat info {};
    ASSERT_EQ(::stat(path.c_str(), &info), 0);
    stamp.size = static_cast<std::uint64_t>(info.st_size);
    stamp.inode = static_cast<std::uint64_t>(info.st_ino);
    stamp.mtimeNs = nanoseconds(info.st_mtim);
    stamp.ctimeNs = nanoseconds(info.st_ctim);
    stamp.racy = racy;
    chain.segments[1].racy = false;
  };
  restamp(false);
  std::uint64_t reads = index.segmentReads();
  index.refresh(chain);
  EXPECT_EQ(index.segmentReads(), reads);
  restamp(true);
  reads = index.segmentReads();
  index.refresh(chain);
  EXPECT_EQ(index.segmentReads(), reads + 1);
  rewriteInPlace(path);
  restamp(true);
  EXPECT_THROW(index.refresh(chain), Error);
}

// A head another writer moved is picked up by reading only the new
// segment; the refreshed chain equals a fresh walk.
TEST_F(HistoryIndexTest, RefreshReadsOnlySegmentsNewerThanItsTip) {
  store::ObjectStore store(dir_);
  HistoryIndex reader(store);
  HistoryIndex writer(store);
  appendSegments(writer, 3);
  Chain chain;
  reader.refresh(chain);
  waitUntilTrustable(store.objectPath(chain.segments.back().hash));
  reader.refresh(chain);
  appendSegments(writer, 1);
  const std::uint64_t reads = reader.segmentReads();
  reader.refresh(chain);
  EXPECT_EQ(reader.segmentReads(), reads + 1);
  const Chain fresh = HistoryIndex(store).readChain();
  EXPECT_EQ(recordBytes(chain), recordBytes(fresh));
  EXPECT_EQ(chain.tip.head, fresh.tip.head);
  EXPECT_EQ(chain.tip.seq, fresh.tip.seq);
  EXPECT_EQ(chain.tip.base, fresh.tip.base);
  ASSERT_EQ(chain.segments.size(), 4u);
  EXPECT_EQ(chain.segments.back().hash, store.ref(kHeadRef));
}

// A head that does not descend from the chain's tip (here a fork off the
// oldest segment) replaces the chain with a full walk.
TEST_F(HistoryIndexTest, RefreshFallsBackToFullWalkOffTheTip) {
  store::ObjectStore store(dir_);
  HistoryIndex index(store);
  appendSegments(index, 3);
  Chain chain;
  index.refresh(chain);
  store.setRef(kHeadRef, chain.segments[0].hash);
  const std::string fork =
      index.appendSegment({{makeRecord("B", "Copy", 7.0)}});
  const std::uint64_t reads = index.segmentReads();
  index.refresh(chain);
  EXPECT_EQ(index.segmentReads(), reads + 2);  // the fork and its root
  ASSERT_EQ(chain.segments.size(), 2u);
  EXPECT_EQ(chain.tip.head, fork);
  EXPECT_EQ(recordBytes(chain), recordBytes(index.readChain()));
  ASSERT_EQ(chain.records.size(), 2u);
  EXPECT_EQ(chain.records[1].test, "B");
}

// Per-refresh reads do not grow with the history: each of 200
// append-then-refresh rounds reads exactly the appended segment, while a
// fresh walk reads all of them.
TEST_F(HistoryIndexTest, RefreshReadsConstantSegmentsPerAppend) {
  store::ObjectStore store(dir_);
  HistoryIndex reader(store);
  HistoryIndex writer(store);
  Chain chain;
  for (int round = 0; round < 200; ++round) {
    const std::string hash =
        writer.appendSegment({{makeRecord("A", "Triad", 100.0 + round)}});
    waitUntilTrustable(store.objectPath(hash));
    const std::uint64_t reads = reader.segmentReads();
    reader.refresh(chain);
    ASSERT_EQ(reader.segmentReads(), reads + 1) << "round " << round;
  }
  HistoryIndex fresh(store);
  EXPECT_EQ(recordBytes(chain), recordBytes(fresh.readChain()));
  EXPECT_EQ(fresh.segmentReads(), 200u);
}

// extend() appends at the chain's tip and adopts the segment it wrote
// without reading it; the next refresh verifies it from disk exactly
// once, and the chain equals a fresh walk throughout.
TEST_F(HistoryIndexTest, ExtendAdoptsTheSegmentItWrote) {
  store::ObjectStore store(dir_);
  HistoryIndex index(store);
  appendSegments(index, 2);
  Chain chain;
  index.refresh(chain);
  waitUntilTrustable(store.objectPath(chain.segments.back().hash));
  index.refresh(chain);  // now every stamp is trusted
  std::uint64_t reads = index.segmentReads();
  const std::string hash =
      index.extend(chain, {{makeRecord("B", "Copy", 5.0)}});
  EXPECT_EQ(index.segmentReads(), reads);
  EXPECT_EQ(chain.tip.head, hash);
  EXPECT_EQ(store.ref(kHeadRef), hash);
  ASSERT_EQ(chain.segments.size(), 3u);
  EXPECT_EQ(chain.segments.back().hash, hash);
  EXPECT_TRUE(chain.segments.back().racy);
  const Chain fresh = HistoryIndex(store).readChain();
  EXPECT_EQ(recordBytes(chain), recordBytes(fresh));
  EXPECT_EQ(chain.tip.seq, fresh.tip.seq);
  EXPECT_EQ(chain.tip.base, fresh.tip.base);
  reads = index.segmentReads();
  index.refresh(chain);
  EXPECT_EQ(index.segmentReads(), reads + 1);
  EXPECT_EQ(recordBytes(chain), recordBytes(fresh));
  EXPECT_EQ(index.extend(chain, {}), "");
}

// An adopted segment is trusted only until the next refresh, which
// verifies its file: a rewrite in between breaks the chain there.
TEST_F(HistoryIndexTest, RefreshCatchesRewriteOfAnAdoptedSegment) {
  store::ObjectStore store(dir_);
  HistoryIndex index(store);
  appendSegments(index, 2);
  Chain chain = index.readChain();
  const std::string hash =
      index.extend(chain, {{makeRecord("B", "Copy", 5.0)}});
  rewriteInPlace(store.objectPath(hash));
  try {
    index.refresh(chain);
    FAIL() << "expected broken-chain error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(hash), std::string::npos);
  }
  EXPECT_TRUE(chain.records.empty());
  EXPECT_TRUE(chain.segments.empty());
}

// A file already under the new segment's name was not written by this
// extend, so its bytes are read back, not adopted: a corrupt one throws
// and leaves the chain empty.
TEST_F(HistoryIndexTest, ExtendOverAPresentObjectReadsItBack) {
  store::ObjectStore store(dir_);
  HistoryIndex index(store);
  appendSegments(index, 2);
  Chain chain = index.readChain();
  HistoryRecord next = makeRecord("B", "Copy", 5.0);
  next.seq = chain.tip.base;
  const std::string hash = store::ObjectStore::hashBytes(
      serializeSegment({{next}}, chain.tip.head, chain.tip.seq,
                       chain.tip.base));
  std::ofstream(store.objectPath(hash), std::ios::binary) << "not a segment";
  const std::uint64_t reads = index.segmentReads();
  EXPECT_THROW(index.extend(chain, {{next}}), Error);
  EXPECT_EQ(index.segmentReads(), reads + 1);
  EXPECT_TRUE(chain.records.empty());
  EXPECT_TRUE(chain.segments.empty());
  EXPECT_FALSE(store.contains(hash));
}

// A daemon's chain extended after another writer moved the head picks
// up that writer's segment too, without a full walk.
TEST_F(HistoryIndexTest, ExtendAfterAnotherWriterPicksUpItsSegment) {
  store::ObjectStore store(dir_);
  HistoryIndex daemon(store);
  appendSegments(daemon, 2);
  Chain chain = daemon.readChain();
  store::ObjectStore other(dir_);
  HistoryIndex(other).appendSegment({{makeRecord("B", "Copy", 7.0)}});
  const std::uint64_t reads = daemon.segmentReads();
  const std::string hash =
      daemon.extend(chain, {{makeRecord("C", "Copy", 9.0)}});
  // The other writer's head segment to re-stamp after, then the walk
  // back from the published segment: itself and the other writer's.
  EXPECT_EQ(daemon.segmentReads(), reads + 3);
  EXPECT_EQ(chain.tip.head, hash);
  EXPECT_EQ(store.ref(kHeadRef), hash);
  ASSERT_EQ(chain.records.size(), 4u);
  EXPECT_EQ(chain.records[2].test, "B");
  EXPECT_EQ(chain.records[3].test, "C");
  EXPECT_EQ(chain.records[3].seq, 3u);
  EXPECT_EQ(recordBytes(chain), recordBytes(daemon.readChain()));
}

/// A campaign manifest object recording one run and, unless `fom` is
/// empty (as before manifests recorded foms), one foms entry.
std::string putManifest(store::ObjectStore& store, const std::string& test,
                        const std::string& fom) {
  store::CampaignManifest manifest;
  manifest.invocation.mode = "run";
  store::RunManifest run;
  run.test = test;
  run.target = "archer2:compute";
  manifest.runs.push_back(run);
  if (!fom.empty()) {
    store::FomManifest entry;
    entry.test = test;
    entry.target = run.target;
    entry.fom = fom;
    manifest.foms.push_back(entry);
  }
  return store.put(manifest.render());
}

// Each history record must cite a manifest that records its series: a
// record citing another campaign's manifest, or a manifest whose foms
// lack its fom, is named by seq; a manifest without foms vouches by run.
TEST_F(HistoryIndexTest, LintFlagsRecordsTheirManifestDoesNotRecord) {
  store::ObjectStore store(dir_);
  const std::string stream = putManifest(store, "StreamTest", "Triad");
  const std::string hpcg = putManifest(store, "HpcgTest", "");
  std::vector<HistoryRecord> records{makeRecord("StreamTest", "Triad", 1.0),
                                     makeRecord("HpcgTest", "Triad", 2.0),
                                     makeRecord("StreamTest", "Copy", 3.0),
                                     makeRecord("HpcgTest", "GFLOPs", 4.0),
                                     makeRecord("StreamTest", "Triad", 5.0)};
  records[0].manifestHash = stream;
  records[1].manifestHash = stream;  // another campaign's manifest
  records[2].manifestHash = stream;  // a fom the manifest did not record
  records[3].manifestHash = hpcg;    // no foms: the run vouches
  records[4].manifestHash = "";
  HistoryIndex index(store);
  index.appendSegment(records);
  const std::vector<std::string> issues = lintHistory(store, index.readAll());
  ASSERT_EQ(issues.size(), 3u);
  EXPECT_EQ(issues[0], "history record seq 1 (HpcgTest @ archer2:compute): "
                       "manifest " + stream +
                       " records no run of HpcgTest @ archer2:compute");
  EXPECT_EQ(issues[1], "history record seq 2 (StreamTest @ archer2:compute): "
                       "manifest " + stream +
                       " records no fom 'Copy' of StreamTest @ "
                       "archer2:compute");
  EXPECT_EQ(issues[2], "history record seq 4 (StreamTest @ archer2:compute): "
                       "cites no manifest");
}

TEST(HistoryAggregateTest, AggregatesPerTestTargetFomInCanonicalOrder) {
  std::vector<TestRunResult> results(4);
  results[0].testName = "StreamTest";
  results[0].system = "archer2";
  results[0].partition = "compute";
  results[0].foms = {{"Triad", 100.0}, {"Copy", 80.0}};
  results[1] = results[0];
  results[1].foms = {{"Triad", 110.0}, {"Copy", 70.0}};
  results[2].testName = "HpcgTest";
  results[2].system = "noctua2";
  results[2].partition = "gpu";
  results[2].foms = {{"GFLOPs", 42.0}};
  results[3] = results[2];       // quarantined runs drop out
  results[3].quarantined = true;

  const auto aggregates = aggregateFoms(results);
  ASSERT_EQ(aggregates.size(), 3u);
  EXPECT_EQ(aggregates[0].test, "HpcgTest");
  EXPECT_EQ(aggregates[0].fom, "GFLOPs");
  EXPECT_EQ(aggregates[0].repeats, 1);
  EXPECT_EQ(aggregates[1].fom, "Copy");
  EXPECT_DOUBLE_EQ(aggregates[1].mean, 75.0);
  EXPECT_DOUBLE_EQ(aggregates[1].min, 70.0);
  EXPECT_DOUBLE_EQ(aggregates[1].max, 80.0);
  EXPECT_EQ(aggregates[2].fom, "Triad");
  EXPECT_DOUBLE_EQ(aggregates[2].mean, 105.0);
  EXPECT_EQ(aggregates[2].repeats, 2);
}

/// One StreamTest/Triad series with the given means, seq = index.
std::vector<HistoryRecord> seriesOf(const std::vector<double>& means) {
  std::vector<HistoryRecord> records;
  for (std::size_t i = 0; i < means.size(); ++i) {
    records.push_back(makeRecord("StreamTest", "Triad", means[i]));
    records.back().seq = i;
  }
  return records;
}

/// The record indexes the trend view lists as changepoints of its first
/// series, read back from the JSON view.
std::vector<std::size_t> trendChangepoints(
    std::span<const HistoryRecord> records) {
  const obs::json::Value doc =
      obs::json::parse(renderHistory(records, {.json = true}));
  std::vector<std::size_t> out;
  for (const obs::json::Value& flag :
       doc.at("series").array.at(0).at("changepoints").array) {
    out.push_back(static_cast<std::size_t>(flag.at("index").number));
  }
  return out;
}

TEST(ChangepointTest, DetectsSeededMeanShiftOnce) {
  std::vector<double> means;
  for (int i = 0; i < 20; ++i) means.push_back(i < 12 ? 100.0 : 94.0);
  const auto records = seriesOf(means);
  EXPECT_EQ(trendChangepoints(records), std::vector<std::size_t>{12});
  const std::string text = renderHistory(records, {});
  EXPECT_NE(text.find("changepoint @ seq 12: median 100 -> 94 (shift -6)"),
            std::string::npos)
      << text;
}

TEST(ChangepointTest, FlatAndNoisySeriesYieldNoFlags) {
  std::vector<double> noisy;
  for (int i = 0; i < 16; ++i) noisy.push_back(100.0 + 0.5 * (i % 4));
  for (const auto& means :
       {std::vector<double>(16, 5.0), noisy, std::vector<double>{1.0, 2.0}}) {
    EXPECT_TRUE(trendChangepoints(seriesOf(means)).empty());
    EXPECT_NE(renderHistory(seriesOf(means), {}).find("changepoints: none"),
              std::string::npos);
  }
}

TEST(ChangepointTest, RollingStatsAndSparkline) {
  const std::vector<double> values{2.0, 4.0, 6.0, 8.0};
  EXPECT_DOUBLE_EQ(rollingMean(values, 0, 3), 2.0);
  EXPECT_DOUBLE_EQ(rollingMean(values, 2, 3), 4.0);
  EXPECT_DOUBLE_EQ(rollingMean(values, 3, 2), 7.0);
  EXPECT_DOUBLE_EQ(rollingStddev(values, 0, 3), 0.0);
  EXPECT_NEAR(rollingStddev(values, 3, 2), 1.0, 1e-12);

  EXPECT_EQ(sparkline(std::vector<double>{1.0, 1.0, 1.0}), "+++");
  const std::string art = sparkline(values);
  ASSERT_EQ(art.size(), 4u);
  EXPECT_EQ(art.front(), ' ');
  EXPECT_EQ(art.back(), '@');
  EXPECT_TRUE(sparkline({}).empty());
}

TEST(ChangepointTest, SeriesShorterThanTwoWindowsYieldsNoFlags) {
  // A split needs infer::kEdmMinSegment (3) points on each side, so a
  // series shorter than 6 has no candidate split — even with a clear
  // regime shift inside it.
  for (const auto& means :
       {std::vector<double>{100.0}, std::vector<double>(5, 100.0),
        std::vector<double>{100.0, 100.0, 50.0, 50.0, 50.0}}) {
    EXPECT_TRUE(trendChangepoints(seriesOf(means)).empty());
  }
}

TEST(ChangepointTest, ConstantSeriesNeverFlags) {
  // Identical values at any length: zero shift and zero MAD; the scan
  // must not divide by the zero scale or flag anything.
  for (const std::size_t n : {6u, 7u, 16u, 64u}) {
    EXPECT_TRUE(
        trendChangepoints(seriesOf(std::vector<double>(n, 42.0))).empty());
  }
}

TEST(ChangepointTest, SinglePointShiftAtFinalRecordCannotFlag) {
  // The newest record dropping alone is no regime: both sides of every
  // split keep a median of 100.  Catching it is the gate's job.
  std::vector<double> means(12, 100.0);
  means.back() = 94.0;
  const auto records = seriesOf(means);
  EXPECT_TRUE(trendChangepoints(records).empty());
  const auto verdicts = checkRegression(records, {});
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_TRUE(verdicts[0].regression);
  EXPECT_FALSE(verdicts[0].changepoint);
}

TEST(HistoryRenderTest, TextViewShowsTrendTableAndChangepoints) {
  std::vector<HistoryRecord> records;
  for (int i = 0; i < 12; ++i) {
    auto record = makeRecord("StreamTest", "Triad", i < 8 ? 100.0 : 94.0);
    record.seq = static_cast<std::uint64_t>(i);
    records.push_back(record);
  }
  const std::string text = renderHistory(records, {});
  EXPECT_NE(text.find("== StreamTest @ archer2:compute · Triad (12 records)"),
            std::string::npos);
  EXPECT_NE(text.find("trend |"), std::string::npos);
  EXPECT_NE(text.find("roll_mean"), std::string::npos);
  EXPECT_NE(text.find("changepoint @ seq 8"), std::string::npos);
  EXPECT_EQ(text, renderHistory(records, {}));  // byte-deterministic

  const std::string json = renderHistory(records, {.json = true});
  EXPECT_NE(json.find("\"schema\":\"rebench.history/1\""), std::string::npos);
  EXPECT_NE(json.find("\"changepoint\":true"), std::string::npos);
  EXPECT_NE(json.find("\"changepoints\":[{\"index\":8,\"seq\":8,"
                      "\"median_before\":100,\"median_after\":94,"
                      "\"shift\":-6}]"),
            std::string::npos)
      << json;

  const std::string empty = renderHistory({}, {});
  EXPECT_NE(empty.find("no matching records"), std::string::npos);
}

TEST(HistoryRenderTest, LastChangepointIsTheGatesChangepoint) {
  std::vector<double> means;
  for (int i = 0; i < 30; ++i) {
    means.push_back(i < 10 ? 100.0 : (i < 22 ? 80.0 : 60.0));
  }
  const auto records = seriesOf(means);
  const std::vector<std::size_t> flags = trendChangepoints(records);
  EXPECT_EQ(flags, (std::vector<std::size_t>{10, 22}));
  const auto verdicts = checkRegression(records, {});
  ASSERT_EQ(verdicts.size(), 1u);
  ASSERT_TRUE(verdicts[0].changepoint);
  ASSERT_FALSE(flags.empty());
  EXPECT_EQ(verdicts[0].changepointIndex, flags.back());
}

TEST(HistoryPlot, MarksFlaggedPoints) {
  std::vector<double> means;
  for (int i = 0; i < 12; ++i) means.push_back(i < 8 ? 100.0 : 80.0);
  const std::string text = renderHistory(seriesOf(means), {});
  // Exactly one table row, the first of the new regime, ends in '*'.
  std::istringstream lines(text);
  std::vector<std::string> marked;
  for (std::string line; std::getline(lines, line);) {
    if (!line.empty() && line.back() == '*') marked.push_back(line);
  }
  ASSERT_EQ(marked.size(), 1u) << text;
  EXPECT_EQ(marked[0].rfind("  8 ", 0), 0u) << marked[0];
}

TEST(HistoryPlot, ShortHistoryHandled) {
  const auto records = seriesOf({100.0});
  const std::string text = renderHistory(records, {});
  EXPECT_NE(text.find("(1 record)"), std::string::npos);
  EXPECT_NE(text.find("trend |+|"), std::string::npos);
  EXPECT_NE(text.find("changepoints: none"), std::string::npos);
  EXPECT_NE(renderHistory(records, {.json = true}).find("\"changepoints\":[]"),
            std::string::npos);
}

TEST(HistoryGateTest, FlagsDropsBeyondThresholdOnly) {
  std::vector<HistoryRecord> records;
  for (double mean : {100.0, 102.0, 98.0, 100.0}) {
    records.push_back(makeRecord("A", "Triad", mean));
  }
  auto verdicts = checkRegression(records, {});
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_FALSE(verdicts[0].regression);
  EXPECT_FALSE(verdicts[0].insufficient);
  EXPECT_DOUBLE_EQ(verdicts[0].baseline, 100.0);
  EXPECT_DOUBLE_EQ(verdicts[0].latest, 100.0);

  records.push_back(makeRecord("A", "Triad", 80.0));
  verdicts = checkRegression(records, {});
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_TRUE(verdicts[0].regression);
  EXPECT_LT(verdicts[0].delta, -0.05);

  // An *improvement* of the same magnitude is not a regression.
  records.back().mean = 120.0;
  verdicts = checkRegression(records, {});
  EXPECT_FALSE(verdicts[0].regression);

  // A tighter window ignores older points.
  records.back().mean = 97.0;
  verdicts = checkRegression(records, {.window = 1, .threshold = 0.05});
  EXPECT_DOUBLE_EQ(verdicts[0].baseline, 100.0);
  EXPECT_FALSE(verdicts[0].regression);
}

TEST(HistoryGateTest, SingleRecordSeriesIsInsufficientNotFailing) {
  std::vector<HistoryRecord> records{makeRecord("A", "Triad", 100.0),
                                     makeRecord("B", "Triad", 50.0),
                                     makeRecord("B", "Triad", 30.0)};
  const auto verdicts = checkRegression(records, {});
  ASSERT_EQ(verdicts.size(), 2u);
  EXPECT_TRUE(verdicts[0].insufficient);
  EXPECT_FALSE(verdicts[0].regression);
  EXPECT_TRUE(verdicts[1].regression);
}

PerfLogEntry perflogRow(const std::string& system, double value,
                        const std::string& result = "pass") {
  PerfLogEntry entry;
  entry.system = system;
  entry.partition = "compute";
  entry.testName = "BabelstreamTest_omp";
  entry.fomName = "Triad";
  entry.specHash = "00ff00ff00ff00ff";
  entry.value = value;
  entry.result = result;
  return entry;
}

/// Nightly archer2 perflog rows: `base(night)` times 1% seeded noise.
template <typename Base>
std::vector<PerfLogEntry> nightlyRows(int nights, std::uint64_t seed,
                                      Base base) {
  Rng rng(seed);
  std::vector<PerfLogEntry> rows;
  for (int night = 0; night < nights; ++night) {
    rows.push_back(perflogRow("archer2", base(night) * rng.noiseFactor(0.01)));
  }
  return rows;
}

/// Gates every prefix of `records` ending at a record of `series`, as a
/// nightly CI run would, and returns the nights that regressed.
std::vector<std::size_t> alarmNights(const std::vector<HistoryRecord>& records,
                                     const std::string& series) {
  std::vector<std::size_t> nights;
  std::vector<HistoryRecord> prefix;
  std::size_t night = 0;
  for (const HistoryRecord& record : records) {
    prefix.push_back(record);
    const std::string key =
        record.test + "|" + record.target + "|" + record.fom;
    if (key != series) continue;
    for (const GateResult& verdict : checkRegression(prefix, {})) {
      if (verdict.series == series && verdict.regression) {
        nights.push_back(night);
      }
    }
    ++night;
  }
  return nights;
}

constexpr const char* kArcher2Series =
    "BabelstreamTest_omp|archer2:compute|Triad";

TEST(PerflogRecords, CollectsSeriesByKey) {
  const std::vector<PerfLogEntry> rows{perflogRow("archer2", 100.0),
                                       perflogRow("archer2", 101.0),
                                       perflogRow("csd3", 55.0)};
  const std::vector<HistoryRecord> records = recordsFromPerflog(rows);
  ASSERT_EQ(records.size(), 3u);
  const HistoryRecord& last = records[2];
  EXPECT_EQ(last.seq, 2u);
  EXPECT_EQ(last.test, "BabelstreamTest_omp");
  EXPECT_EQ(last.target, "csd3:compute");
  EXPECT_EQ(last.fom, "Triad");
  EXPECT_EQ(last.specHash, "00ff00ff00ff00ff");
  EXPECT_DOUBLE_EQ(last.mean, 55.0);
  EXPECT_DOUBLE_EQ(last.min, 55.0);
  EXPECT_DOUBLE_EQ(last.max, 55.0);
  EXPECT_EQ(last.repeats, 1);
  EXPECT_DOUBLE_EQ(last.ci, 0.0);
  const auto series = groupSeries(records);
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series.at(kArcher2Series).size(), 2u);
  EXPECT_EQ(selectRecords(records, "", "csd3:compute").size(), 1u);
  EXPECT_TRUE(selectRecords(records, "nosuchtest").empty());
}

TEST(PerflogRecords, ErrorAndSummaryRowsIgnored) {
  const std::vector<PerfLogEntry> rows{perflogRow("archer2", 0.0, "error"),
                                       perflogRow("archer2", 100.0),
                                       perflogRow("archer2", 100.0, "summary"),
                                       perflogRow("archer2", 99.0, "fail")};
  const std::vector<HistoryRecord> records = recordsFromPerflog(rows);
  // A run outside its reference band still observed its FOM.
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].seq, 1u);
  EXPECT_EQ(records[1].seq, 3u);
}

TEST(Detector, QuietHistoryRaisesNothing) {
  const auto records = recordsFromPerflog(
      nightlyRows(30, 5, [](int) { return 100.0; }));
  EXPECT_TRUE(alarmNights(records, kArcher2Series).empty());
  EXPECT_TRUE(trendChangepoints(records).empty());
}

TEST(Detector, InjectedSlowdownIsFlagged) {
  // 10% regression from night 12 onwards (a quietly-degraded system):
  // the nightly gate fires on night 12 and EDM pins the regime there.
  const auto records = recordsFromPerflog(
      nightlyRows(20, 7, [](int night) { return night < 12 ? 100.0 : 90.0; }));
  const std::vector<std::size_t> alarms = alarmNights(records, kArcher2Series);
  ASSERT_FALSE(alarms.empty());
  EXPECT_EQ(alarms.front(), 12u);
  EXPECT_EQ(trendChangepoints(records), std::vector<std::size_t>{12});
  const auto verdicts = checkRegression(records, {});
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].changepointIndex, 12u);
  EXPECT_NE(verdicts[0].justification.find("EDM changepoint at seq 12"),
            std::string::npos);
}

TEST(Detector, SuspiciousImprovementAlsoFlagged) {
  // Bailey's tricks cut both ways: a sudden "improvement" often means the
  // benchmark silently changed (wrong size, wrong build).  The trend view
  // marks the rise; the gate, which fails drops only, stays green.
  const auto records = recordsFromPerflog(
      nightlyRows(15, 9, [](int night) { return night < 10 ? 100.0 : 150.0; }));
  EXPECT_EQ(trendChangepoints(records), std::vector<std::size_t>{10});
  EXPECT_NE(renderHistory(records, {}).find("changepoint @ seq 10"),
            std::string::npos);
  EXPECT_TRUE(alarmNights(records, kArcher2Series).empty());
}

TEST(Detector, MinHistoryRespected) {
  // The gate compares from two records on; a changepoint needs
  // infer::kEdmMinSegment records on each side of it.
  auto records = recordsFromPerflog(std::vector<PerfLogEntry>{
      perflogRow("archer2", 100.0)});
  auto verdicts = checkRegression(records, {});
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_TRUE(verdicts[0].insufficient);
  EXPECT_FALSE(verdicts[0].regression);

  std::vector<PerfLogEntry> rows(4, perflogRow("archer2", 100.0));
  rows.push_back(perflogRow("archer2", 10.0));
  records = recordsFromPerflog(rows);
  verdicts = checkRegression(records, {});
  EXPECT_TRUE(verdicts[0].regression);
  EXPECT_FALSE(verdicts[0].changepoint);
  EXPECT_TRUE(trendChangepoints(records).empty());
}

TEST(Detector, MinBandFractionAbsorbsTinyNoise) {
  // A perfectly flat history has a zero-width CI band, so a 0.3% dip is
  // "significant"; the relative threshold keeps it from failing.
  std::vector<PerfLogEntry> rows(10, perflogRow("archer2", 100.0));
  rows.push_back(perflogRow("archer2", 99.7));
  const auto records = recordsFromPerflog(rows);
  const auto verdicts = checkRegression(records, {});
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_TRUE(verdicts[0].significant);
  EXPECT_FALSE(verdicts[0].regression);
  EXPECT_TRUE(trendChangepoints(records).empty());
}

TEST(Detector, SeriesAreIndependent) {
  Rng rng(11);
  std::vector<PerfLogEntry> rows;
  for (int night = 0; night < 16; ++night) {
    rows.push_back(perflogRow("archer2", 100.0 * rng.noiseFactor(0.01)));
    rows.push_back(perflogRow("csd3", night < 10 ? 200.0 : 160.0));
  }
  const auto records = recordsFromPerflog(rows);
  EXPECT_TRUE(alarmNights(records, kArcher2Series).empty());
  EXPECT_EQ(alarmNights(records, "BabelstreamTest_omp|csd3:compute|Triad")
                .front(),
            10u);
  const auto verdicts = checkRegression(records, {});
  ASSERT_EQ(verdicts.size(), 2u);
  EXPECT_FALSE(verdicts[0].changepoint);  // archer2
  EXPECT_TRUE(verdicts[1].changepoint);   // csd3
  EXPECT_EQ(verdicts[1].changepointIndex, 10u);
}

}  // namespace
}  // namespace rebench::history
