// Bridges perflogs into DataFrames (the "assimilate" step of Principle 6).
//
// Three layers:
//   * perflogToDataFrame — entries to the 9-column analysis frame
//     (system/partition/environ/test/spec/fom/unit/result strings + value).
//   * assimilatePerflogs — streams each file in kChunkRows slices through
//     a TableAppender, so a million-row shard never holds more than one
//     chunk of parsed rows in memory; output is byte-identical to the old
//     read-everything-then-concat path.
//   * the colframe cache — entriesToTable serializes the FULL record
//     (every PerfLogEntry field plus sorted `x:<key>` columns with nulls
//     for absent extras) so the cached form is lossless;
//     tableToPerflogEntries reconstructs the exact entries and
//     loadOrConvertPerflog keys the cache by the perflog file's content
//     hash in the ObjectStore.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/framework/perflog.hpp"
#include "core/postproc/dataframe.hpp"
#include "core/store/object_store.hpp"

namespace rebench {

/// Converts parsed perflog entries into a frame with columns:
///   system, partition, environ, test, spec, fom, unit, result (strings)
///   and value (numeric).
DataFrame perflogToDataFrame(std::span<const PerfLogEntry> entries);

/// Reads several perflog files (one per system, as generated on isolated
/// machines) and concatenates them into one analysis frame.  Streaming:
/// at most one kChunkRows slice of parsed rows is buffered per file.
DataFrame assimilatePerflogs(std::span<const std::string> paths);

// ---- lossless columnar form (the colframe cache) ------------------------

/// Full-fidelity table: ts, version, system, partition, environ, test,
/// spec, spec_hash, binary_id, job_id, fom, value (f64), unit, ref (f64,
/// null when absent), lower, upper, result, then one `x:<key>` string
/// column per extras key in sorted order (null where a row lacks the key).
columnar::Table entriesToTable(std::span<const PerfLogEntry> entries);

/// Inverse of entriesToTable: reconstructs the exact entries (struct-level
/// lossless; re-serialization is byte-identical for rebench-written logs).
std::vector<PerfLogEntry> tableToPerflogEntries(const columnar::Table& table);

/// The 9-column analysis frame as a cheap projection of the full table
/// (codes copied, dictionaries shared — no strings touched).
DataFrame analysisFrameFromTable(const columnar::Table& table);

struct FrameCacheResult {
  columnar::Table table;  // lossless form; project with analysisFrameFromTable
  bool cacheHit = false;
};

/// Content-hash-keyed colframe cache: hashes the perflog file's bytes,
/// looks up ref `colframe/<hash>` in the store and verifies the cached
/// frame; on miss (or a corrupt or unreadable frame object, which reads
/// as a miss) parses the file, writes the columnar form back and installs
/// the ref.
FrameCacheResult loadOrConvertPerflog(store::ObjectStore& store,
                                      const std::string& path);

struct MergeStats {
  std::size_t inputs = 0;
  std::size_t rows = 0;
  std::size_t chunks = 0;
  std::size_t peakBufferedRows = 0;  // max parsed rows buffered at once
};

/// K-way merge of perflog files ordered by timestamp (numeric stamps,
/// one whole number token each as str::parseWhole reads them, compare
/// as numbers and sort before non-numeric ones, which compare
/// lexicographically; ties keep input order, then file order).  Holds at
/// most one `chunkRows` slice of parsed rows per input — merging N shards
/// of R rows each buffers O(N * chunkRows), not O(N * R).  Returns the
/// lossless table form.
columnar::Table mergePerflogsByTime(std::span<const std::string> paths,
                                    std::size_t chunkRows = columnar::kChunkRows,
                                    MergeStats* stats = nullptr);

}  // namespace rebench
