#include "core/framework/perflog.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/util/error.hpp"
#include "file_size_limit.hpp"

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
  // ...and are finite.
  for (const char* key : {"value", "ref", "lower", "upper"}) {
    for (const char* token : {"nan", "inf", "-inf", "INF", "infinity",
                              "nan(1)"}) {
      const std::string line = std::string(key) + "=" + token;
      EXPECT_THROW(PerfLogEntry::parse(line), ParseError) << line;
    }
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

// An append the file-size limit cuts short throws, naming the perflog,
// and the file keeps only the whole rows written before it.
TEST(PerfLog, FailedAppendThrowsAndLeavesOnlyWholeRows) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "rebench_perflog_limit.log")
          .string();
  std::remove(path.c_str());
  const std::string row = sampleEntry().serialize() + "\n";
  {
    PerfLog log(path);
    const FileSizeLimit limit(row.size() * 2 + row.size() / 2);
    log.append(sampleEntry());
    log.append(sampleEntry());
    try {
      log.append(sampleEntry());
      ADD_FAILURE() << "a torn append succeeded";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
    }
  }
  EXPECT_EQ(std::filesystem::file_size(path), row.size() * 2);
  EXPECT_EQ(PerfLog::readFile(path).size(), 2u);
  std::remove(path.c_str());
}

TEST(PerfLog, ReadMissingFileThrows) {
  EXPECT_THROW(PerfLog::readFile("/nonexistent/rebench.log"), Error);
}

TEST(PerfLogObject, DittoCodesFieldsEqualToTheLineAbove) {
  const std::vector<std::string> lines = {"ts=T0|fom=Copy|value=1|x:a=1",
                                          "ts=T1|fom=Copy|value=1",
                                          "ts=T1|fom=Mul|value=1|x:a=1|x:b=2"};
  const std::string object = encodePerflogObject(lines);
  EXPECT_EQ(object,
            "rebench.perflog/2|3\n"
            "ts=T0|fom=Copy|value=1|x:a=1\n"
            "ts=T1|=|=\n"
            "=|fom=Mul|=|x:a=1|x:b=2\n");
  EXPECT_EQ(decodePerflogObject(object),
            "ts=T0|fom=Copy|value=1|x:a=1\n"
            "ts=T1|fom=Copy|value=1\n"
            "ts=T1|fom=Mul|value=1|x:a=1|x:b=2\n");
  EXPECT_EQ(encodePerflogObject({}), "rebench.perflog/2|0\n");
  EXPECT_EQ(decodePerflogObject("rebench.perflog/2|0\n"), "");
}

TEST(PerfLogObject, EncoderRefusesLinesItCannotRoundTrip) {
  for (const std::string line : {"", "ts=T0||fom=Copy", "ts=T0|=", "=",
                                 "ts=T0|fom=Co\npy"}) {
    SCOPED_TRACE(line);
    const std::vector<std::string> lines = {"ts=T0|fom=Copy", line};
    EXPECT_THROW(encodePerflogObject(lines), Error);
  }
}

TEST(PerfLogObject, RawObjectsDecodeToThemselves) {
  const std::string raw = sampleEntry().serialize() + "\n";
  EXPECT_EQ(decodePerflogObject(raw), raw);
  EXPECT_EQ(decodePerflogObject(""), "");
}

TEST(PerfLogObject, DecoderRejectsDamagedObjects) {
  const auto message = [](const std::string& bytes) -> std::string {
    try {
      decodePerflogObject(bytes);
    } catch (const Error& e) {
      return e.what();
    }
    return "decoded";
  };
  EXPECT_EQ(message("rebench.perflog/3|1\nts=T0\n"),
            "perflog object has schema 'rebench.perflog/3' (this build reads "
            "rebench.perflog/2 and raw perflogs)");
  EXPECT_EQ(message("rebench.perflog/2\nts=T0\n"),
            "perflog object header has 1 fields (expected 2)");
  EXPECT_NE(message("rebench.perflog/2|1x\nts=T0\n").find("line count"),
            std::string::npos);
  EXPECT_EQ(message("rebench.perflog/2|2\nts=T0\n"),
            "perflog object holds 1 lines, its header says 2");
  EXPECT_EQ(message("rebench.perflog/2|1\nts=T0\nts=T1\n"),
            "perflog object holds 2 lines, its header says 1");
  EXPECT_EQ(message("rebench.perflog/2|1\nts=T0"),
            "perflog object does not end in a newline");
  EXPECT_EQ(message("rebench.perflog/2|1\nts=T0|=\n"),
            "perflog object's first line has a ditto field");
  EXPECT_EQ(message("rebench.perflog/2|2\nts=T0\nts=T1|=\n"),
            "perflog object line has a ditto past the end of the line above");
  EXPECT_EQ(message("rebench.perflog/2|2\nts=T0|fom=A\nts=T1|=\n"),
            "decoded");
}

}  // namespace
}  // namespace rebench
