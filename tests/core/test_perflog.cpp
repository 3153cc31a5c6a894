#include "core/framework/perflog.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "core/util/error.hpp"

namespace rebench {
namespace {

PerfLogEntry sampleEntry() {
  PerfLogEntry entry;
  entry.timestamp = "T42";
  entry.system = "archer2";
  entry.partition = "compute";
  entry.environ = "gcc@11.2.0";
  entry.testName = "HpgmgFvBenchmark";
  entry.spec = "hpgmg@0.4%gcc@11.2.0+fv";
  entry.specHash = "abcdefg";
  entry.binaryId = "0011223344556677";
  entry.jobId = "17";
  entry.fomName = "l0";
  entry.value = 95.36;
  entry.unit = Unit::kMDofPerSec;
  entry.reference = 95.0;
  entry.lowerThresh = -0.10;
  entry.upperThresh = 0.10;
  entry.result = "pass";
  entry.extras["num_tasks"] = "8";
  return entry;
}

TEST(PerfLogEntry, SerializeParseRoundTrip) {
  const PerfLogEntry original = sampleEntry();
  const PerfLogEntry parsed = PerfLogEntry::parse(original.serialize());
  EXPECT_EQ(parsed.timestamp, original.timestamp);
  EXPECT_EQ(parsed.system, original.system);
  EXPECT_EQ(parsed.partition, original.partition);
  EXPECT_EQ(parsed.environ, original.environ);
  EXPECT_EQ(parsed.testName, original.testName);
  EXPECT_EQ(parsed.spec, original.spec);
  EXPECT_EQ(parsed.specHash, original.specHash);
  EXPECT_EQ(parsed.fomName, original.fomName);
  EXPECT_NEAR(parsed.value, original.value, 1e-6);
  EXPECT_EQ(parsed.unit, original.unit);
  ASSERT_TRUE(parsed.reference.has_value());
  EXPECT_NEAR(*parsed.reference, 95.0, 1e-6);
  EXPECT_EQ(parsed.result, "pass");
  EXPECT_EQ(parsed.extras.at("num_tasks"), "8");
}

TEST(PerfLogEntry, SpecialCharactersEscape) {
  PerfLogEntry entry = sampleEntry();
  entry.extras["launch"] = "srun --ntasks=8 | tee out%log\nnext";
  const PerfLogEntry parsed = PerfLogEntry::parse(entry.serialize());
  EXPECT_EQ(parsed.extras.at("launch"), entry.extras.at("launch"));
  // The serialized line must stay single-line.
  EXPECT_EQ(entry.serialize().find('\n'), std::string::npos);
}

TEST(PerfLogEntry, MissingReferenceStaysAbsent) {
  PerfLogEntry entry = sampleEntry();
  entry.reference.reset();
  const PerfLogEntry parsed = PerfLogEntry::parse(entry.serialize());
  EXPECT_FALSE(parsed.reference.has_value());
}

TEST(PerfLogEntry, MalformedLineThrows) {
  EXPECT_THROW(PerfLogEntry::parse("not a perflog line"), ParseError);
  EXPECT_THROW(PerfLogEntry::parse("bogus_key=1"), ParseError);
  // Numbers parse as whole tokens: no numeric prefix, no overflow.
  for (const char* bad :
       {"value=336565.526000abc", "value=abc", "value=1e999", "value=",
        "ref=1.5x", "lower=-0.1 ", "upper=0x10"}) {
    EXPECT_THROW(PerfLogEntry::parse(bad), ParseError) << bad;
  }
  try {
    PerfLogEntry::parse("test=T|value=12.5abc");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("value='12.5abc'"),
              std::string::npos)
        << e.what();
  }
}

TEST(PerfLog, InMemoryAppend) {
  PerfLog log;
  log.append(sampleEntry());
  log.append(sampleEntry());
  EXPECT_EQ(log.size(), 2u);
  const auto entries = PerfLog::parseLines(log.lines());
  EXPECT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].system, "archer2");
}

TEST(PerfLog, FileRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "rebench_perflog_test.log")
          .string();
  std::remove(path.c_str());
  {
    PerfLog log(path);
    PerfLogEntry a = sampleEntry();
    log.append(a);
    a.fomName = "l1";
    a.value = 83.43;
    log.append(a);
  }
  const auto entries = PerfLog::readFile(path);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[1].fomName, "l1");
  EXPECT_NEAR(entries[1].value, 83.43, 1e-6);
  std::remove(path.c_str());
}

TEST(PerfLog, ReadMissingFileThrows) {
  EXPECT_THROW(PerfLog::readFile("/nonexistent/rebench.log"), Error);
}

}  // namespace
}  // namespace rebench
