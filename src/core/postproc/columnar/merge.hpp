// Concatenation and streaming assimilation (rebench::columnar layer 3).
//
// Cross-system assimilation (Principle 6) is a row-wise concatenation of
// per-shard frames.  The TableAppender folds chunks into one output table
// as they arrive — schema-checked against the first chunk with an error
// naming the first mismatching column — so the perflog reader can stream
// a file in kChunkRows slices and never buffer more than one chunk of
// parsed input per source.  Dictionary codes are translated per chunk
// (O(dictionary), not O(rows)) instead of re-encoding strings row by row.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/postproc/columnar/table.hpp"

namespace rebench::columnar {

class TableAppender {
 public:
  /// Folds `chunk` into the output.  The first chunk fixes the schema;
  /// later chunks must match it (names and types, in order) or an Error
  /// naming the first mismatching column is thrown.
  void append(const Table& chunk);

  /// Finalizes and returns the accumulated table (appender resets).
  Table take();

 private:
  Table out_;
  std::size_t inputs_ = 0;  // chunks appended since the last take()
};

/// Throws rebench::Error describing the first mismatch between the
/// schemas of frame 1 and frame `otherIndex` (1-based, for messages).
/// Checks column count, then names, then types.
void requireSameSchema(const Table& first, const Table& other,
                       std::size_t otherIndex);

/// Row-wise concatenation with the row engine's error precedence (all
/// name mismatches reported before type mismatches).
Table concatTables(std::span<const Table* const> tables);

}  // namespace rebench::columnar
