// Layer-1/3 store tests: content addressing, verified
// (corruption-rejecting) reads, ref files (publication, the unset rules,
// compare-and-swap), conversion of a rebench.store/1 index and of a
// manifests/ directory, verified manifest reads, and the
// provenance-keyed build cache's hit/drift behaviour.
#include <gtest/gtest.h>

#include <atomic>
#include <exception>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "core/concretizer/concretizer.hpp"
#include "core/obs/metrics.hpp"
#include "core/obs/trace.hpp"
#include "core/pkg/build_plan.hpp"
#include "core/store/build_cache.hpp"
#include "core/store/manifest.hpp"
#include "core/store/object_store.hpp"
#include "core/store/run_cache.hpp"
#include "core/sysconfig/system_config.hpp"
#include "core/util/error.hpp"
#include "dir_snapshot.hpp"
#include "file_size_limit.hpp"
#include "object_stamp.hpp"
#include "open_file_limit.hpp"

namespace rebench::store {
namespace {

namespace fs = std::filesystem;

/// A rebench.store/1 directory written by hand: blobs "older" and
/// "newer", and an index holding a superseded ref, a ref to a missing
/// object, pin/touch/evict churn and a torn tail.
void writeV1Store(const std::string& dir) {
  fs::create_directories(fs::path(dir) / "objects");
  for (const std::string bytes : {"older", "newer"}) {
    std::ofstream(fs::path(dir) / "objects" / ObjectStore::hashBytes(bytes),
                  std::ios::binary)
        << bytes;
  }
  const std::string older = ObjectStore::hashBytes("older");
  const std::string newer = ObjectStore::hashBytes("newer");
  std::ofstream(fs::path(dir) / "index.jsonl", std::ios::binary)
      << "{\"kind\":\"meta\",\"schema\":\"rebench.store/1\"}\n"
      << "{\"kind\":\"put\",\"hash\":\"" << older
      << "\",\"bytes\":5,\"tick\":0}\n"
      << "{\"kind\":\"put\",\"hash\":\"" << newer
      << "\",\"bytes\":5,\"tick\":1}\n"
      << "{\"kind\":\"ref\",\"name\":\"latest\",\"hash\":\"" << older
      << "\"}\n"
      << "{\"kind\":\"pin\",\"hash\":\"" << older << "\"}\n"
      << "{\"kind\":\"touch\",\"hash\":\"" << older
      << "\",\"tick\":2}\n"
      << "{\"kind\":\"ref\",\"name\":\"latest\",\"hash\":\"" << newer
      << "\"}\n"
      << "{\"kind\":\"ref\",\"name\":\"history/head\",\"hash\":\""
      << older << "\"}\n"
      << "{\"kind\":\"ref\",\"name\":\"build/gone\","
         "\"hash\":\"00000000deadbeef\"}\n"
      << "{\"kind\":\"evict\",\"hash\":\"00000000deadbeef\"}\n"
      << "{\"kind\":\"unpin\",\"hash\":\"" << older << "\"}\n"
      << "{\"kind\":\"ref\",\"name\":\"torn\",\"hash\":\"" << older;
}

/// The refs writeV1Store's index leaves live, as ref files.
void expectConvertedRefs(const std::string& dir) {
  const ObjectStore store(dir);
  EXPECT_EQ(store.ref("latest"), ObjectStore::hashBytes("newer"));
  EXPECT_EQ(store.ref("history/head"), ObjectStore::hashBytes("older"));
  EXPECT_FALSE(store.ref("build/gone").has_value());
  EXPECT_FALSE(store.ref("torn").has_value());
  EXPECT_FALSE(fs::exists(fs::path(dir) / "index.jsonl"));
  EXPECT_TRUE(fs::exists(fs::path(dir) / "index.jsonl.v1"));
  std::set<std::string> refFiles;
  for (const auto& entry :
       fs::recursive_directory_iterator(fs::path(dir) / "refs")) {
    if (entry.is_regular_file()) {
      refFiles.insert(
          fs::relative(entry.path(), fs::path(dir) / "refs").string());
    }
  }
  EXPECT_EQ(refFiles, (std::set<std::string>{"history/head", "latest"}));
}

/// A rendered manifest whose one FOM mean is 343758.52.
std::string renderedManifest(const std::string& test) {
  CampaignManifest manifest;
  manifest.invocation.mode = "run";
  manifest.invocation.benchmark = "babelstream";
  FomManifest fom;
  fom.test = test;
  fom.target = "noctua2:normal";
  fom.fom = "Add";
  fom.mean = 343758.52;
  fom.repeats = 1;
  manifest.foms.push_back(fom);
  return manifest.render();
}

/// `rendered` with its mean edited, at the same length.
std::string editedMean(std::string rendered) {
  const std::size_t at = rendered.find("343758.52");
  rendered[at] = '9';
  return rendered;
}

void writeFile(const fs::path& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

/// A store in the layout before manifests became objects: manifests/
/// holds an intact campaign-<h>.json, one whose bytes were edited after
/// it was named, and latest.json, a copy of the intact one.
struct ManifestsV1 {
  std::string intact = renderedManifest("Intact");
  std::string edited = renderedManifest("Edited");
  std::string intactHash = ObjectStore::hashBytes(intact);
  std::string editedHash = ObjectStore::hashBytes(edited);

  void write(const std::string& dir) const {
    const fs::path manifests = fs::path(dir) / "manifests";
    fs::create_directories(fs::path(dir) / "objects");
    fs::create_directories(manifests);
    writeFile(manifests / ("campaign-" + intactHash + ".json"), intact);
    writeFile(manifests / ("campaign-" + editedHash + ".json"),
              editedMean(edited));
    writeFile(manifests / "latest.json", intact);
  }

  /// What the conversion leaves: the intact manifest as an object named
  /// by the latest ref, nothing of the edited one, and every old file in
  /// manifests.v1.
  void expectConverted(const std::string& dir) const {
    const ObjectStore store(dir);
    EXPECT_EQ(store.peek(intactHash), intact);
    EXPECT_FALSE(store.contains(editedHash));
    EXPECT_FALSE(store.contains(ObjectStore::hashBytes(editedMean(edited))));
    EXPECT_EQ(store.objectCount(), 1u);
    EXPECT_EQ(store.ref(kLatestManifestRef), intactHash);
    EXPECT_FALSE(fs::exists(fs::path(dir) / "manifests"));
    std::set<std::string> retired;
    for (const auto& entry :
         fs::directory_iterator(fs::path(dir) / "manifests.v1")) {
      retired.insert(entry.path().filename().string());
    }
    EXPECT_EQ(retired, (std::set<std::string>{
                           "campaign-" + intactHash + ".json",
                           "campaign-" + editedHash + ".json",
                           "latest.json"}));
  }
};

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

TEST_F(StoreTest, RefToEvictedObjectReadsUnset) {
  ObjectStore store(dir_);
  const std::string hash = store.put("referenced bytes");
  store.setRef("build/key", hash);
  ASSERT_EQ(store.ref("build/key"), hash);
  fs::remove(store.objectPath(hash));
  EXPECT_FALSE(store.contains(hash));
  EXPECT_FALSE(store.ref("build/key").has_value());
  EXPECT_TRUE(fs::exists(fs::path(dir_) / "refs" / "build" / "key"));
}

// A ref file must hold exactly one hash and a newline; anything else
// (a foreign or hand-edited file) reads as unset.
TEST_F(StoreTest, MalformedRefFileReadsUnset) {
  ObjectStore store(dir_);
  const std::string hash = store.put("target");
  store.setRef("latest", hash);
  const fs::path file = fs::path(dir_) / "refs" / "latest";
  const std::vector<std::string> malformed = {
      hash,        hash + "\n\n", hash + " \n",
      "\n",        "",            "XYZ" + hash.substr(3) + "\n",
      hash.substr(1) + "\n"};
  for (const std::string& bytes : malformed) {
    std::ofstream(file, std::ios::binary | std::ios::trunc) << bytes;
    EXPECT_FALSE(store.ref("latest").has_value()) << '"' << bytes << '"';
  }
  std::ofstream(file, std::ios::binary | std::ios::trunc) << hash << "\n";
  EXPECT_EQ(store.ref("latest"), hash);
}

TEST_F(StoreTest, CompareAndSetRefPublishesOnlyOverTheExpectedHash) {
  ObjectStore store(dir_);
  const std::string a = store.put("first");
  const std::string b = store.put("second");
  EXPECT_FALSE(store.compareAndSetRef("history/head", a, b));
  EXPECT_FALSE(store.ref("history/head").has_value());
  EXPECT_TRUE(store.compareAndSetRef("history/head", "", a));
  EXPECT_FALSE(store.compareAndSetRef("history/head", "", b));
  EXPECT_EQ(store.ref("history/head"), a);
  EXPECT_TRUE(store.compareAndSetRef("history/head", a, b));
  EXPECT_EQ(store.ref("history/head"), b);
  // A head whose object is gone reads as unset, so "" matches it.
  fs::remove(store.objectPath(b));
  EXPECT_TRUE(store.compareAndSetRef("history/head", "", a));
  EXPECT_EQ(store.ref("history/head"), a);
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
  store.setObservability(&metrics);
  const std::string hash = store.put("tamper target");
  {
    std::ofstream out(store.objectPath(hash), std::ios::trunc);
    out << "tampered!";
  }
  EXPECT_FALSE(store.get(hash).has_value());
  EXPECT_EQ(metrics.counter("store.corrupt").value(), 1u);
}

// The store deletes and counts only bytes it read and found corrupt.  An
// object that exists but cannot be read (here every open fails with
// EMFILE) throws and stays, and reads whole once opens succeed again.
TEST_F(StoreTest, ObjectThatCannotBeReadThrowsAndStays) {
  ObjectStore store(dir_);
  const std::string hash = store.put("intact bytes");
  std::exception_ptr get;
  std::exception_ptr peek;
  {
    const OpenFileLimit limit;
    get = thrownBy([&] { store.get(hash); });
    peek = thrownBy([&] { store.peek(hash); });
  }
  ASSERT_TRUE(get && peek) << "an unreadable object read as absent";
  EXPECT_THROW(std::rethrow_exception(get), Error);
  EXPECT_THROW(std::rethrow_exception(peek), Error);
  EXPECT_TRUE(fs::exists(store.objectPath(hash)));
  EXPECT_EQ(store.stats().corrupt, 0u);
  EXPECT_EQ(store.get(hash), "intact bytes");
}

// A ref file that exists but cannot be read is an error, never unset: a
// history head read as unset would let the next compare-and-swap publish
// a segment with an empty prev and orphan the chain.
TEST_F(StoreTest, RefThatCannotBeReadThrowsInsteadOfReadingUnset) {
  ObjectStore store(dir_);
  const std::string hash = store.put("head segment");
  store.setRef("history/head", hash);
  std::exception_ptr failure;
  {
    const OpenFileLimit limit;
    failure = thrownBy([&] { store.ref("history/head"); });
  }
  ASSERT_TRUE(failure) << "an unreadable ref read as unset";
  EXPECT_THROW(std::rethrow_exception(failure), Error);
  EXPECT_EQ(store.ref("history/head"), hash);
  // A directory where the ref file belongs fails its read with EISDIR.
  fs::create_directories(fs::path(dir_) / "refs" / "manifests" / "latest");
  EXPECT_THROW(store.ref("manifests/latest"), Error);
}

// A run-cache record that exists but cannot be read (a directory where
// its object belongs) is corrupt to the lookup, so serve re-executes, and
// it stays where it is.
TEST_F(StoreTest, RunCacheRecordThatCannotBeReadIsCorruptAndStays) {
  ObjectStore store(dir_);
  RunCache cache(store);
  RunRecord record;
  record.key = "key";
  record.verdict = "ran:clean";
  record.manifestHash = store.put("manifest");
  cache.insert(record);
  const std::string object =
      store.objectPath(*store.ref(RunCache::refName("key")));
  fs::remove(object);
  fs::create_directory(object);
  EXPECT_EQ(cache.lookup("key").outcome, RunCache::Outcome::kCorrupt);
  EXPECT_TRUE(fs::is_directory(object));
  EXPECT_EQ(store.stats().corrupt, 0u);
  EXPECT_EQ(cache.stats().corrupt, 1u);
}

// Conversion replays the old index through JsonlLog, so an index naming
// another schema is refused rather than guessed at.
TEST_F(StoreTest, IndexSchemaMismatchThrows) {
  fs::create_directories(dir_);
  {
    std::ofstream out(fs::path(dir_) / "index.jsonl");
    out << "{\"kind\":\"meta\",\"schema\":\"rebench.store/999\"}\n";
  }
  EXPECT_THROW(ObjectStore{dir_}, Error);
  EXPECT_TRUE(fs::exists(fs::path(dir_) / "index.jsonl"));
}

// The first open of a rebench.store/1 directory converts its index: the
// last ref line per name wins, refs to missing objects and the torn tail
// are dropped, and the index is kept as index.jsonl.v1.
TEST_F(StoreTest, ToleratesTruncatedIndexTail) {
  writeV1Store(dir_);
  expectConvertedRefs(dir_);
}

// Reopening a converted store converts nothing a second time: a ref set
// after the conversion keeps its value, and the directory is unchanged.
TEST_F(StoreTest, AppendAfterTornIndexTailSurvivesReopen) {
  writeV1Store(dir_);
  std::string hash;
  {
    ObjectStore store(dir_);
    hash = store.put("after conversion");
    store.setRef("latest", hash);
  }
  const auto before = snapshotDir(dir_);
  ObjectStore reopened(dir_);
  EXPECT_EQ(reopened.ref("latest"), hash);
  EXPECT_EQ(reopened.ref("history/head"), ObjectStore::hashBytes("older"));
  EXPECT_EQ(snapshotDir(dir_), before);
}

// Two handles opening one rebench.store/1 directory at once convert it
// once between them and leave the refs a lone conversion leaves.
TEST_F(StoreTest, ConcurrentConversionsLeaveTheSameRefs) {
  for (int round = 0; round < 20; ++round) {
    fs::remove_all(dir_);
    writeV1Store(dir_);
    std::thread first([&] { ObjectStore{dir_}; });
    std::thread second([&] { ObjectStore{dir_}; });
    first.join();
    second.join();
    expectConvertedRefs(dir_);
  }
}

// The first open of a store with a manifests/ directory imports each
// campaign-<h>.json whose bytes hash to h, points the latest ref at
// latest.json's manifest and keeps the files in manifests.v1; a reopen
// converts nothing and changes no byte.
TEST_F(StoreTest, ManifestsDirectoryConvertsToObjectsAndARef) {
  const ManifestsV1 v1;
  v1.write(dir_);
  v1.expectConverted(dir_);
  const auto before = snapshotDir(dir_);
  ObjectStore reopened(dir_);
  EXPECT_EQ(snapshotDir(dir_), before);
}

// A latest.json whose manifest was not imported (its bytes were edited)
// leaves the latest ref unset rather than naming a missing object.
TEST_F(StoreTest, EditedLatestManifestLeavesTheRefUnset) {
  const ManifestsV1 v1;
  v1.write(dir_);
  writeFile(fs::path(dir_) / "manifests" / "latest.json",
            editedMean(v1.intact));
  const ObjectStore store(dir_);
  EXPECT_TRUE(store.contains(v1.intactHash));
  EXPECT_FALSE(store.ref(kLatestManifestRef).has_value());
  EXPECT_FALSE(fs::exists(fs::path(dir_) / "refs" / kLatestManifestRef));
}

// Two handles opening one old-layout store at once convert it once
// between them and leave what a lone conversion leaves.
TEST_F(StoreTest, ConcurrentManifestConversionsConvertOnce) {
  const ManifestsV1 v1;
  for (int round = 0; round < 20; ++round) {
    fs::remove_all(dir_);
    v1.write(dir_);
    std::thread first([&] { ObjectStore{dir_}; });
    std::thread second([&] { ObjectStore{dir_}; });
    first.join();
    second.join();
    v1.expectConverted(dir_);
  }
}

// A manifest file named as a store names manifests must hash to that
// name: an edited mean is refused with both hashes named.  A file with
// any other name is read as it is.
TEST_F(StoreTest, ManifestReadChecksTheHashItsNameRecords) {
  fs::create_directories(dir_);
  const std::string rendered = renderedManifest("Named");
  const std::string hash = ObjectStore::hashBytes(rendered);
  const std::string edited = editedMean(rendered);
  for (const std::string& name : {hash, "campaign-" + hash + ".json"}) {
    const std::string path = (fs::path(dir_) / name).string();
    writeFile(path, rendered);
    EXPECT_EQ(CampaignManifest::read(path).foms.at(0).mean, 343758.52);
    writeFile(path, edited);
    try {
      CampaignManifest::read(path);
      ADD_FAILURE() << name << ": an edited manifest was read";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(hash), std::string::npos) << what;
      EXPECT_NE(what.find(ObjectStore::hashBytes(edited)), std::string::npos)
          << what;
    }
  }
  const std::string other = (fs::path(dir_) / "edited.json").string();
  writeFile(other, edited);
  EXPECT_EQ(CampaignManifest::read(other).foms.at(0).mean, 943758.52);
}

// replay --store reads through CampaignManifest::load: a manifest object
// whose mean was edited is refused naming its hash, and the verified
// read deletes it, so a RunCache record citing it turns stale.
TEST_F(StoreTest, CorruptManifestObjectIsRefusedAndItsRecordsGoStale) {
  ObjectStore store(dir_);
  const std::string rendered = renderedManifest("Cached");
  const std::string hash = store.put(rendered);
  EXPECT_EQ(CampaignManifest::load(store, hash).foms.at(0).mean, 343758.52);
  RunCache cache(store);
  RunRecord record;
  record.key = "key";
  record.verdict = "ran:clean";
  record.manifestHash = hash;
  cache.insert(record);
  writeFile(store.objectPath(hash), editedMean(rendered));
  // A hit is a stat: the edit is not seen until a reader verifies.
  EXPECT_TRUE(cache.lookup("key").hit());
  for (int attempt = 0; attempt < 2; ++attempt) {
    try {
      CampaignManifest::load(store, hash);
      ADD_FAILURE() << "a corrupt manifest object was loaded";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(hash), std::string::npos);
    }
  }
  EXPECT_FALSE(store.contains(hash));
  EXPECT_EQ(cache.lookup("key").outcome, RunCache::Outcome::kStale);
}

// A read writes nothing: get, peek and ref (set or unset) leave every
// file and directory of the store as it was.
TEST_F(StoreTest, ReadsOfPinnedObjectsLeaveTheIndexUntouched) {
  ObjectStore store(dir_);
  const std::string hash = store.put("history segment");
  store.setRef("history/head", hash);
  const auto before = snapshotDir(dir_);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(store.get(hash), "history segment");
    EXPECT_EQ(store.peek(hash), "history segment");
    EXPECT_EQ(store.ref("history/head"), hash);
    EXPECT_FALSE(store.ref("runcache/unset").has_value());
  }
  EXPECT_EQ(store.put("history segment"), hash);  // deduplicated
  EXPECT_EQ(snapshotDir(dir_), before);
}

TEST_F(StoreTest, PutThatCannotWriteItsBlobThrowsAndPublishesNothing) {
  ObjectStore store(dir_);
  store.setRef("latest", store.put("first"));
  const auto before = snapshotDir(dir_);
  const std::string bytes(4096, 'x');
  {
    const FileSizeLimit limit(16);
    EXPECT_THROW(store.put(bytes), Error);
  }
  const std::string hash = ObjectStore::hashBytes(bytes);
  EXPECT_FALSE(store.contains(hash));
  EXPECT_EQ(snapshotDir(dir_), before);
  // With room again the same put lands whole.
  EXPECT_EQ(store.put(bytes), hash);
  EXPECT_EQ(store.get(hash), bytes);
}

// A ref is published whole or not at all: a setRef the file-size limit
// cuts short throws, leaves no temp file, and the old ref reads whole.
TEST_F(StoreTest, FailedIndexAppendThrowsAndLeavesNoTornLine) {
  ObjectStore store(dir_);
  const std::string old = store.put("first manifest");
  const std::string next = store.put("second manifest");
  store.setRef("latest", old);
  const auto before = snapshotDir(dir_);
  {
    // Room for part of the ref file, not all of it.
    const FileSizeLimit limit(8);
    EXPECT_THROW(store.setRef("latest", next), Error);
  }
  EXPECT_EQ(snapshotDir(dir_), before);
  EXPECT_EQ(store.ref("latest"), old);
  store.setRef("latest", next);
  EXPECT_EQ(ObjectStore(dir_).ref("latest"), next);
}

class BuildCacheTest : public StoreTest {
 protected:
  BuildPlan planFor(const std::string& system) {
    const SystemRegistry systems = builtinSystems();
    Concretizer concretizer(repo_, systems.get(system).environment);
    return makeBuildPlan(
        *concretizer.concretize(Spec::parse("hpgmg%gcc")).root);
  }
  /// The reuse path Pipeline::buildViaCache takes outside single-flight:
  /// a verified lookup, else a build that is inserted, reporting through
  /// the caller's hooks.
  BuildRecord buildThrough(BuildCache& cache, const BuildPlan& plan,
                           const std::string& envFingerprint,
                           obs::Tracer* tracer = nullptr,
                           obs::MetricsRegistry* metrics = nullptr) {
    const std::string key =
        BuildCache::cacheKey(plan.rootHash, envFingerprint, plan.planHash());
    if (std::optional<BuildRecord> hit =
            cache.lookup(key, plan, tracer, metrics)) {
      return *hit;
    }
    const BuildRecord record = Builder().build(plan);
    cache.insert(key, record, tracer);
    return record;
  }
  PackageRepository repo_ = builtinRepository();
};

TEST_F(BuildCacheTest, MissThenHitReusesEveryStep) {
  ObjectStore store(dir_);
  BuildCache cache(store);
  const BuildPlan plan = planFor("archer2");
  const std::string key = BuildCache::cacheKey(plan.rootHash, "env-fp",
                                               plan.planHash());
  EXPECT_FALSE(cache.lookup(key, plan, nullptr, nullptr).has_value());
  EXPECT_FALSE(cache.peek(key, plan).has_value());

  const BuildRecord record = buildThrough(cache, plan, "env-fp");
  EXPECT_GT(record.stepsExecuted, 0);

  const BuildRecord reused = buildThrough(cache, plan, "env-fp");
  EXPECT_EQ(reused.stepsExecuted, 0);
  EXPECT_EQ(reused.stepsReusedFromCache,
            static_cast<int>(plan.steps.size()));
  EXPECT_EQ(reused.binaryId, record.binaryId);
  const std::optional<BuildRecord> peeked = cache.peek(key, plan);
  ASSERT_TRUE(peeked.has_value());
  EXPECT_EQ(peeked->binaryId, record.binaryId);
  EXPECT_EQ(peeked->stepsExecuted, 0);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

// A build record that exists but cannot be read is rebuilt, as a corrupt
// one is, and stays where it is.
TEST_F(BuildCacheTest, RecordThatCannotBeReadIsRebuiltAndStays) {
  ObjectStore store(dir_);
  BuildCache cache(store);
  const BuildPlan plan = planFor("archer2");
  const std::string key =
      BuildCache::cacheKey(plan.rootHash, "env-fp", plan.planHash());
  buildThrough(cache, plan, "env-fp");
  const std::string object = store.objectPath(*store.ref("build/" + key));
  fs::remove(object);
  fs::create_directory(object);
  EXPECT_FALSE(BuildCache(store).peek(key, plan).has_value());
  EXPECT_GT(buildThrough(cache, plan, "env-fp").stepsExecuted, 0);
  EXPECT_TRUE(fs::is_directory(object));
  EXPECT_EQ(store.stats().corrupt, 0u);
}

TEST_F(BuildCacheTest, EnvironmentDriftForcesRebuild) {
  ObjectStore store(dir_);
  BuildCache cache(store);
  const BuildPlan plan = planFor("archer2");
  buildThrough(cache, plan, "env-before");
  const BuildRecord rebuilt = buildThrough(cache, plan, "env-after");
  EXPECT_GT(rebuilt.stepsExecuted, 0);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST_F(BuildCacheTest, RecipeDriftForcesRebuild) {
  ObjectStore store(dir_);
  BuildCache cache(store);
  const BuildPlan archer = planFor("archer2");
  const BuildPlan cosma = planFor("cosma8");
  ASSERT_NE(archer.planHash(), cosma.planHash());
  buildThrough(cache, archer, "fp");
  const BuildRecord rebuilt = buildThrough(cache, cosma, "fp");
  EXPECT_GT(rebuilt.stepsExecuted, 0);
  EXPECT_EQ(cache.stats().hits, 0u);
}

// A record whose stored provenance disagrees with the plan (simulated by
// wiring one key at another plan's record) is drift, not a hit, for the
// lookup and the executor's silent peek alike.
TEST_F(BuildCacheTest, MismatchedRecordIsDriftNotHit) {
  ObjectStore store(dir_);
  BuildCache cache(store);
  const BuildPlan archer = planFor("archer2");
  const BuildPlan cosma = planFor("cosma8");
  buildThrough(cache, archer, "fp");
  const std::string cosmaKey =
      BuildCache::cacheKey(cosma.rootHash, "fp", cosma.planHash());
  const std::string archerKey =
      BuildCache::cacheKey(archer.rootHash, "fp", archer.planHash());
  store.setRef("build/" + cosmaKey, *store.ref("build/" + archerKey));
  EXPECT_FALSE(cache.peek(cosmaKey, cosma).has_value());
  EXPECT_FALSE(cache.lookup(cosmaKey, cosma, nullptr, nullptr).has_value());
}

TEST_F(BuildCacheTest, LookupEmitsSpanAndCounters) {
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  ObjectStore store(dir_);
  BuildCache cache(store);
  const BuildPlan plan = planFor("archer2");
  buildThrough(cache, plan, "fp", &tracer, &metrics);
  buildThrough(cache, plan, "fp", &tracer, &metrics);
  EXPECT_EQ(metrics.counter("store.miss").value(), 1u);
  EXPECT_EQ(metrics.counter("store.hit").value(), 1u);
  const std::string jsonl = tracer.toJsonl(&metrics);
  EXPECT_NE(jsonl.find("store.lookup"), std::string::npos);
  EXPECT_NE(jsonl.find("\"outcome\":\"hit\""), std::string::npos);
  EXPECT_NE(jsonl.find("store.put"), std::string::npos);
}

// A campaign's cache keeps each verified record: the executor's peek and
// the lookups after it read the key's ref every time, but the record
// object only once while its file's stamp holds.
TEST_F(BuildCacheTest, PeekAndLookupsOfATrustedKeyReadTheRecordOnce) {
  ObjectStore store(dir_);
  const BuildPlan plan = planFor("archer2");
  const std::string key = BuildCache::cacheKey(plan.rootHash, "fp",
                                               plan.planHash());
  {
    BuildCache writer(store);
    buildThrough(writer, plan, "fp");
  }
  waitUntilTrustable(store.objectPath(*store.ref("build/" + key)));
  BuildCache cache(store);
  const std::uint64_t reads = store.stats().reads;
  ASSERT_TRUE(cache.peek(key, plan).has_value());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(cache.lookup(key, plan, nullptr, nullptr).has_value());
  }
  EXPECT_EQ(store.stats().reads, reads + 1);
  EXPECT_EQ(cache.stats().hits, 3u);
}

// A record rewritten in place after it was verified (same size and
// inode) moves its stamp: the next lookup re-reads it, reports it
// corrupt and deletes it, as a first read would.
TEST_F(BuildCacheTest, LookupRereadsARecordRewrittenAfterItWasVerified) {
  obs::Tracer tracer;
  ObjectStore store(dir_);
  BuildCache cache(store);
  const BuildPlan plan = planFor("archer2");
  const std::string key = BuildCache::cacheKey(plan.rootHash, "fp",
                                               plan.planHash());
  buildThrough(cache, plan, "fp");
  const std::string path = store.objectPath(*store.ref("build/" + key));
  waitUntilTrustable(path);
  ASSERT_TRUE(cache.lookup(key, plan, nullptr, nullptr).has_value());
  rewriteInPlace(path);
  const std::uint64_t reads = store.stats().reads;
  EXPECT_FALSE(cache.lookup(key, plan, &tracer, nullptr).has_value());
  EXPECT_EQ(store.stats().reads, reads + 1);
  EXPECT_EQ(store.stats().corrupt, 1u);
  EXPECT_FALSE(fs::exists(path));
  EXPECT_NE(tracer.toJsonl(nullptr).find("\"outcome\":\"corrupt\""),
            std::string::npos);
}

// The --jobs workers of one campaign share its cache: concurrent peeks
// and lookups of one trusted key make one verified read between them.
TEST_F(BuildCacheTest, ConcurrentLookupsShareOneVerifiedRead) {
  constexpr int kThreads = 8;
  constexpr int kRounds = 16;
  ObjectStore store(dir_);
  const BuildPlan plan = planFor("archer2");
  const std::string key = BuildCache::cacheKey(plan.rootHash, "fp",
                                               plan.planHash());
  {
    BuildCache writer(store);
    buildThrough(writer, plan, "fp");
  }
  waitUntilTrustable(store.objectPath(*store.ref("build/" + key)));
  BuildCache cache(store);
  const std::uint64_t reads = store.stats().reads;
  std::atomic<int> found{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        found += cache.peek(key, plan).has_value() ? 1 : 0;
        found += cache.lookup(key, plan, nullptr, nullptr).has_value() ? 1 : 0;
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(found.load(), 2 * kThreads * kRounds);
  EXPECT_EQ(store.stats().reads, reads + 1);
  EXPECT_EQ(cache.stats().hits, static_cast<std::uint64_t>(kThreads * kRounds));
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
