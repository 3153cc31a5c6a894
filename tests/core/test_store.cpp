// Layer-1/3 store tests: content addressing, LRU eviction under a size
// cap, verified (corruption-rejecting) reads, index persistence and the
// provenance-keyed build cache's hit/drift behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/concretizer/concretizer.hpp"
#include "core/obs/metrics.hpp"
#include "core/obs/trace.hpp"
#include "core/pkg/build_plan.hpp"
#include "core/store/build_cache.hpp"
#include "core/store/object_store.hpp"
#include "core/sysconfig/system_config.hpp"
#include "core/util/error.hpp"
#include "file_size_limit.hpp"

namespace rebench::store {
namespace {

namespace fs = std::filesystem;

std::string readFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("rebench-store-test-" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

TEST_F(StoreTest, PutGetRoundtrip) {
  ObjectStore store(dir_);
  const std::string hash = store.put("hello, artifacts");
  EXPECT_EQ(hash, ObjectStore::hashBytes("hello, artifacts"));
  EXPECT_TRUE(store.contains(hash));
  const auto bytes = store.get(hash);
  ASSERT_TRUE(bytes.has_value());
  EXPECT_EQ(*bytes, "hello, artifacts");
  EXPECT_EQ(store.objectCount(), 1u);
  EXPECT_EQ(store.totalBytes(), 16u);
}

TEST_F(StoreTest, DoublePutIsIdempotent) {
  ObjectStore store(dir_);
  const std::string first = store.put("same bytes");
  const std::string second = store.put("same bytes");
  EXPECT_EQ(first, second);
  EXPECT_EQ(store.objectCount(), 1u);
  EXPECT_EQ(store.stats().puts, 2u);
  EXPECT_EQ(store.stats().dedupedPuts, 1u);
}

// Two handles on the same directory (the closest a deterministic test
// gets to concurrent writers) both put the same bytes; the blob exists
// once and both handles can read it back.
TEST_F(StoreTest, TwoHandlesDoublePut) {
  ObjectStore a(dir_);
  ObjectStore b(dir_);
  const std::string ha = a.put("shared blob");
  const std::string hb = b.put("shared blob");
  EXPECT_EQ(ha, hb);
  EXPECT_TRUE(a.get(ha).has_value());
  EXPECT_TRUE(b.get(hb).has_value());
  ObjectStore reopened(dir_);
  EXPECT_EQ(reopened.objectCount(), 1u);
}

TEST_F(StoreTest, PersistsAcrossReopen) {
  std::string hash;
  {
    ObjectStore store(dir_);
    hash = store.put("durable");
    store.setRef("latest", hash);
  }
  ObjectStore reopened(dir_);
  EXPECT_EQ(reopened.objectCount(), 1u);
  ASSERT_TRUE(reopened.get(hash).has_value());
  ASSERT_TRUE(reopened.ref("latest").has_value());
  EXPECT_EQ(*reopened.ref("latest"), hash);
}

TEST_F(StoreTest, EvictsLeastRecentlyUsedUnderSizeCap) {
  ObjectStore store(dir_, {.maxBytes = 30});
  const std::string a = store.put(std::string(10, 'a'));
  const std::string b = store.put(std::string(10, 'b'));
  const std::string c = store.put(std::string(10, 'c'));
  EXPECT_EQ(store.objectCount(), 3u);
  // Touch `a` so `b` becomes the LRU victim.
  EXPECT_TRUE(store.get(a).has_value());
  const std::string d = store.put(std::string(10, 'd'));
  EXPECT_EQ(store.objectCount(), 3u);
  EXPECT_EQ(store.stats().evictions, 1u);
  EXPECT_FALSE(store.contains(b));
  EXPECT_TRUE(store.contains(a));
  EXPECT_TRUE(store.contains(c));
  EXPECT_TRUE(store.contains(d));
  EXPECT_LE(store.totalBytes(), 30u);
}

TEST_F(StoreTest, OversizedPutNeverEvictsItself) {
  ObjectStore store(dir_, {.maxBytes = 8});
  const std::string big = store.put("way more than eight bytes");
  EXPECT_TRUE(store.contains(big));
  // The next put evicts the oversized blob, not itself.
  const std::string small = store.put("tiny");
  EXPECT_TRUE(store.contains(small));
  EXPECT_FALSE(store.contains(big));
}

TEST_F(StoreTest, RefToEvictedObjectReadsUnset) {
  ObjectStore store(dir_, {.maxBytes = 12});
  const std::string hash = store.put("pinned bytes");
  store.setRef("build/key", hash);
  ASSERT_TRUE(store.ref("build/key").has_value());
  store.put("replacement bytes longer");
  EXPECT_FALSE(store.contains(hash));
  EXPECT_FALSE(store.ref("build/key").has_value());
}

TEST_F(StoreTest, TruncatedBlobIsRejectedAndDeleted) {
  ObjectStore store(dir_);
  const std::string hash = store.put("bytes that will be truncated");
  {
    std::ofstream out(store.objectPath(hash), std::ios::trunc);
    out << "bytes";
  }
  EXPECT_FALSE(store.get(hash).has_value());
  EXPECT_EQ(store.stats().corrupt, 1u);
  EXPECT_FALSE(store.contains(hash));
  EXPECT_FALSE(fs::exists(store.objectPath(hash)));
}

TEST_F(StoreTest, CorruptBlobEmitsCounter) {
  obs::MetricsRegistry metrics;
  ObjectStore store(dir_);
  store.setObservability(nullptr, &metrics);
  const std::string hash = store.put("tamper target");
  {
    std::ofstream out(store.objectPath(hash), std::ios::trunc);
    out << "tampered!";
  }
  EXPECT_FALSE(store.get(hash).has_value());
  EXPECT_EQ(metrics.counter("store.corrupt").value(), 1u);
}

TEST_F(StoreTest, IndexSchemaMismatchThrows) {
  fs::create_directories(dir_);
  {
    std::ofstream out(fs::path(dir_) / "index.jsonl");
    out << "{\"kind\":\"meta\",\"schema\":\"rebench.store/999\"}\n";
  }
  EXPECT_THROW(ObjectStore{dir_}, Error);
}

TEST_F(StoreTest, ToleratesTruncatedIndexTail) {
  std::string hash;
  {
    ObjectStore store(dir_);
    hash = store.put("survives a crash");
  }
  {
    std::ofstream out(fs::path(dir_) / "index.jsonl", std::ios::app);
    out << "{\"kind\":\"pu";  // crash mid-append
  }
  ObjectStore reopened(dir_);
  EXPECT_TRUE(reopened.get(hash).has_value());
}

TEST_F(StoreTest, AppendAfterTornIndexTailSurvivesReopen) {
  {
    ObjectStore store(dir_);
    store.put("first");
  }
  {
    std::ofstream out(fs::path(dir_) / "index.jsonl", std::ios::app);
    out << "{\"kind\":\"pu";  // crash mid-append
  }
  std::string hash;
  {
    // The open cuts the fragment off, so these appends start fresh lines
    // instead of gluing onto it.
    ObjectStore store(dir_);
    hash = store.put("second");
    store.setRef("latest", hash);
  }
  ObjectStore reopened(dir_);
  EXPECT_TRUE(reopened.contains(hash));
  EXPECT_EQ(reopened.ref("latest"), hash);
}

TEST_F(StoreTest, PinnedObjectSurvivesEvictionPressure) {
  ObjectStore store(dir_, {.maxBytes = 30});
  const std::string pinned = store.put(std::string(10, 'a'));
  store.pin(pinned);
  EXPECT_TRUE(store.pinned(pinned));
  // Three younger puts would normally push `pinned` (the LRU entry) out.
  store.put(std::string(10, 'b'));
  store.put(std::string(10, 'c'));
  store.put(std::string(10, 'd'));
  EXPECT_TRUE(store.contains(pinned));
  EXPECT_GT(store.stats().evictions, 0u);
}

TEST_F(StoreTest, UnpinMakesObjectEvictableAgain) {
  ObjectStore store(dir_, {.maxBytes = 30});
  const std::string hash = store.put(std::string(10, 'a'));
  store.pin(hash);
  store.put(std::string(10, 'b'));
  store.put(std::string(10, 'c'));
  store.put(std::string(10, 'd'));
  EXPECT_TRUE(store.contains(hash));
  store.unpin(hash);
  EXPECT_FALSE(store.pinned(hash));
  store.put(std::string(10, 'e'));
  EXPECT_FALSE(store.contains(hash));
}

TEST_F(StoreTest, EvictionStopsWhenOnlyPinnedObjectsRemain) {
  ObjectStore store(dir_, {.maxBytes = 12});
  const std::string a = store.put("first pinned");
  store.pin(a);
  // Over the cap with no unpinned victim: the put must still land and
  // the pinned object must still be there.
  const std::string b = store.put("second blob over cap");
  EXPECT_TRUE(store.contains(a));
  EXPECT_TRUE(store.contains(b));
}

TEST_F(StoreTest, PinPersistsAcrossReopen) {
  std::string hash;
  {
    ObjectStore store(dir_, {.maxBytes = 30});
    hash = store.put(std::string(10, 'a'));
    store.pin(hash);
  }
  ObjectStore reopened(dir_, {.maxBytes = 30});
  EXPECT_TRUE(reopened.pinned(hash));
  reopened.put(std::string(10, 'b'));
  reopened.put(std::string(10, 'c'));
  reopened.put(std::string(10, 'd'));
  EXPECT_TRUE(reopened.contains(hash));
}

TEST_F(StoreTest, CompactIndexPreservesEntriesRefsPinsAndLruOrder) {
  ObjectStore store(dir_, {.maxBytes = 0});
  const std::string a = store.put("object a");
  const std::string b = store.put("object b");
  const std::string c = store.put("object c");
  store.setRef("latest", c);
  store.pin(b);
  // Touch `a` so it is the *newest* entry; after compaction + reopen the
  // LRU victim under pressure must still be `c` (oldest unpinned).
  EXPECT_TRUE(store.get(a).has_value());
  const std::size_t lines = store.compactIndex();
  // meta + 3 puts + 1 ref + 1 pin.
  EXPECT_EQ(lines, 6u);

  ObjectStore reopened(dir_, {.maxBytes = 26});
  EXPECT_EQ(reopened.objectCount(), 3u);
  EXPECT_TRUE(reopened.pinned(b));
  ASSERT_TRUE(reopened.ref("latest").has_value());
  EXPECT_EQ(*reopened.ref("latest"), c);
  reopened.put("object d!");
  EXPECT_FALSE(reopened.contains(c));
  EXPECT_TRUE(reopened.contains(a));
  EXPECT_TRUE(reopened.contains(b));
}

TEST_F(StoreTest, CompactIndexDropsTouchAndEvictChurn) {
  ObjectStore store(dir_);
  const std::string hash = store.put("churny object");
  for (int i = 0; i < 50; ++i) EXPECT_TRUE(store.get(hash).has_value());
  const auto sizeBefore = fs::file_size(fs::path(dir_) / "index.jsonl");
  EXPECT_EQ(store.compactIndex(), 2u);  // meta + one put
  const auto sizeAfter = fs::file_size(fs::path(dir_) / "index.jsonl");
  EXPECT_LT(sizeAfter, sizeBefore);
  ObjectStore reopened(dir_);
  EXPECT_TRUE(reopened.get(hash).has_value());
}

TEST_F(StoreTest, ReadsOfPinnedObjectsLeaveTheIndexUntouched) {
  ObjectStore store(dir_);
  const std::string pinned = store.put("history segment");
  store.pin(pinned);
  const fs::path index = fs::path(dir_) / "index.jsonl";
  const std::string before = readFile(index);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(store.get(pinned).has_value());
  EXPECT_EQ(store.put("history segment"), pinned);  // deduplicated
  EXPECT_EQ(readFile(index), before);

  // An unpinned object's read still journals exactly one touch line.
  const std::string loose = store.put("build artifact");
  const std::string withLoose = readFile(index);
  EXPECT_TRUE(store.get(loose).has_value());
  const std::string after = readFile(index);
  ASSERT_EQ(after.compare(0, withLoose.size(), withLoose), 0);
  const std::string added = after.substr(withLoose.size());
  EXPECT_EQ(std::count(added.begin(), added.end(), '\n'), 1);
  EXPECT_NE(added.find("\"kind\":\"touch\",\"hash\":\"" + loose + "\""),
            std::string::npos);
}

TEST_F(StoreTest, EvictionAfterPinGetUnpinFollowsInMemoryRecency) {
  ObjectStore store(dir_, {.maxBytes = 30});
  const std::string a = store.put(std::string(10, 'a'));
  const std::string b = store.put(std::string(10, 'b'));
  const std::string c = store.put(std::string(10, 'c'));
  store.pin(a);
  // The read of pinned `a` writes no touch line, but still makes `a`
  // more recent than `b` for as long as this handle lives.
  EXPECT_TRUE(store.get(a).has_value());
  store.unpin(a);
  const std::string d = store.put(std::string(10, 'd'));
  EXPECT_EQ(store.stats().evictions, 1u);
  EXPECT_FALSE(store.contains(b));
  EXPECT_TRUE(store.contains(a));
  EXPECT_TRUE(store.contains(c));
  EXPECT_TRUE(store.contains(d));
}

TEST_F(StoreTest, PutThatCannotWriteItsBlobThrowsAndPublishesNothing) {
  ObjectStore store(dir_);
  const fs::path index = fs::path(dir_) / "index.jsonl";
  const std::string before = readFile(index);
  const std::string bytes(4096, 'x');
  {
    const FileSizeLimit limit(16);
    EXPECT_THROW(store.put(bytes), Error);
  }
  const std::string hash = ObjectStore::hashBytes(bytes);
  EXPECT_FALSE(store.contains(hash));
  EXPECT_FALSE(fs::exists(store.objectPath(hash)));
  EXPECT_EQ(readFile(index), before);
  for (const auto& entry : fs::directory_iterator(dir_)) {
    EXPECT_FALSE(entry.path().filename().string().starts_with("tmp-"))
        << entry.path();
  }
  // With room again the same put lands whole.
  EXPECT_EQ(store.put(bytes), hash);
  EXPECT_EQ(store.get(hash), bytes);
}

TEST_F(StoreTest, FailedIndexAppendThrowsAndLeavesNoTornLine) {
  ObjectStore store(dir_);
  const std::string hash = store.put("latest manifest");
  const fs::path index = fs::path(dir_) / "index.jsonl";
  const std::string before = readFile(index);
  {
    // Room for a fragment of the ref line, not the whole line.
    const FileSizeLimit limit(before.size() + 8);
    EXPECT_THROW(store.setRef("latest", hash), Error);
    EXPECT_THROW(store.pin(hash), Error);
  }
  EXPECT_EQ(readFile(index), before);
  EXPECT_FALSE(store.ref("latest").has_value());
  EXPECT_FALSE(store.pinned(hash));
  // The next append starts a fresh line, so a reopen replays it.
  store.setRef("latest", hash);
  ObjectStore reopened(dir_);
  EXPECT_EQ(reopened.ref("latest"), hash);
  EXPECT_FALSE(reopened.pinned(hash));
}

class BuildCacheTest : public StoreTest {
 protected:
  BuildPlan planFor(const std::string& system) {
    const SystemRegistry systems = builtinSystems();
    Concretizer concretizer(repo_, systems.get(system).environment);
    return makeBuildPlan(
        *concretizer.concretize(Spec::parse("hpgmg%gcc")).root);
  }
  PackageRepository repo_ = builtinRepository();
};

TEST_F(BuildCacheTest, MissThenHitReusesEveryStep) {
  ObjectStore store(dir_);
  BuildCache cache(store, nullptr, nullptr);
  const BuildPlan plan = planFor("archer2");
  const std::string key = BuildCache::cacheKey(plan.rootHash, "env-fp",
                                               plan.planHash());
  EXPECT_FALSE(cache.lookup(key, plan).has_value());

  Builder builder(/*rebuildEveryRun=*/true);
  const BuildRecord record = builder.build(plan, &cache, "env-fp");
  EXPECT_GT(record.stepsExecuted, 0);

  const BuildRecord reused = builder.build(plan, &cache, "env-fp");
  EXPECT_EQ(reused.stepsExecuted, 0);
  EXPECT_EQ(reused.stepsReusedFromCache,
            static_cast<int>(plan.steps.size()));
  EXPECT_EQ(reused.binaryId, record.binaryId);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST_F(BuildCacheTest, EnvironmentDriftForcesRebuild) {
  ObjectStore store(dir_);
  BuildCache cache(store, nullptr, nullptr);
  const BuildPlan plan = planFor("archer2");
  Builder builder(/*rebuildEveryRun=*/true);
  builder.build(plan, &cache, "env-before");
  const BuildRecord rebuilt = builder.build(plan, &cache, "env-after");
  EXPECT_GT(rebuilt.stepsExecuted, 0);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST_F(BuildCacheTest, RecipeDriftForcesRebuild) {
  ObjectStore store(dir_);
  BuildCache cache(store, nullptr, nullptr);
  const BuildPlan archer = planFor("archer2");
  const BuildPlan cosma = planFor("cosma8");
  ASSERT_NE(archer.planHash(), cosma.planHash());
  Builder builder(/*rebuildEveryRun=*/true);
  builder.build(archer, &cache, "fp");
  const BuildRecord rebuilt = builder.build(cosma, &cache, "fp");
  EXPECT_GT(rebuilt.stepsExecuted, 0);
  EXPECT_EQ(cache.stats().hits, 0u);
}

// A record whose stored provenance disagrees with the plan (simulated by
// wiring one key at another plan's record) is drift, not a hit.
TEST_F(BuildCacheTest, MismatchedRecordIsDriftNotHit) {
  ObjectStore store(dir_);
  BuildCache cache(store, nullptr, nullptr);
  const BuildPlan archer = planFor("archer2");
  const BuildPlan cosma = planFor("cosma8");
  Builder builder(/*rebuildEveryRun=*/true);
  builder.build(archer, &cache, "fp");
  const std::string cosmaKey =
      BuildCache::cacheKey(cosma.rootHash, "fp", cosma.planHash());
  const std::string archerKey =
      BuildCache::cacheKey(archer.rootHash, "fp", archer.planHash());
  store.setRef("build/" + cosmaKey, *store.ref("build/" + archerKey));
  EXPECT_FALSE(cache.lookup(cosmaKey, cosma).has_value());
}

TEST_F(BuildCacheTest, LookupEmitsSpanAndCounters) {
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  ObjectStore store(dir_);
  BuildCache cache(store, &tracer, &metrics);
  const BuildPlan plan = planFor("archer2");
  Builder builder(/*rebuildEveryRun=*/true);
  builder.build(plan, &cache, "fp");
  builder.build(plan, &cache, "fp");
  EXPECT_EQ(metrics.counter("store.miss").value(), 1u);
  EXPECT_EQ(metrics.counter("store.hit").value(), 1u);
  const std::string jsonl = tracer.toJsonl(&metrics);
  EXPECT_NE(jsonl.find("store.lookup"), std::string::npos);
  EXPECT_NE(jsonl.find("\"outcome\":\"hit\""), std::string::npos);
  EXPECT_NE(jsonl.find("store.put"), std::string::npos);
}

TEST_F(BuildCacheTest, RecordRoundtrip) {
  BuildRecord record;
  record.rootHash = "roothash";
  record.planHash = "planhash";
  record.binaryId = "binid";
  record.buildSeconds = 12.5;
  record.stepsExecuted = 4;
  const auto parsed = BuildCache::parseRecord(BuildCache::serializeRecord(record));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->rootHash, "roothash");
  EXPECT_EQ(parsed->planHash, "planhash");
  EXPECT_EQ(parsed->binaryId, "binid");
  EXPECT_DOUBLE_EQ(parsed->buildSeconds, 12.5);
  EXPECT_EQ(parsed->stepsExecuted, 4);
  EXPECT_FALSE(BuildCache::parseRecord("not json").has_value());
  EXPECT_FALSE(BuildCache::parseRecord("{\"kind\":\"other\"}").has_value());
}

}  // namespace
}  // namespace rebench::store
