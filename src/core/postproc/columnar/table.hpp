// Column collection (rebench::columnar layer 1).
//
// A Table is an ordered list of named, typed columns with a shared row
// count — the engine behind the public DataFrame façade.  Type and
// existence errors are thrown by the façade (to keep the row engine's
// exact messages); the Table itself offers lookups and builders only.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/postproc/columnar/column.hpp"

namespace rebench::columnar {

struct Column {
  std::string name;
  std::variant<DoubleColumn, StringColumn> data;

  bool isNumeric() const {
    return std::holds_alternative<DoubleColumn>(data);
  }
  const DoubleColumn& doubles() const { return std::get<DoubleColumn>(data); }
  DoubleColumn& doubles() { return std::get<DoubleColumn>(data); }
  const StringColumn& strs() const { return std::get<StringColumn>(data); }
  StringColumn& strs() { return std::get<StringColumn>(data); }
};

struct Table {
  std::vector<Column> columns;
  std::size_t rows = 0;

  /// First column with `name`; nullptr when absent (first match wins,
  /// like the row engine's linear scan).
  const Column* find(std::string_view name) const {
    for (const Column& col : columns) {
      if (col.name == name) return &col;
    }
    return nullptr;
  }
  Column* find(std::string_view name) {
    for (Column& col : columns) {
      if (col.name == name) return &col;
    }
    return nullptr;
  }

  std::vector<std::string> columnNames() const {
    std::vector<std::string> out;
    out.reserve(columns.size());
    for (const Column& col : columns) out.push_back(col.name);
    return out;
  }
};

/// Single-pass column-type sniffing (the CSV / extras ingest fix): each
/// cell is parsed as double exactly once on arrival and buffered tagged
/// (raw text + parsed value); the column type is committed only at end of
/// input.  The old reader classified with one full parse pass and then
/// re-parsed every cell to load it.
class TaggedColumnBuilder {
 public:
  /// Buffers one cell, attempting the numeric parse immediately (skipped
  /// once the column is known non-numeric).
  void add(std::string cell);
  /// Buffers a null cell; the column stays eligible for numeric commit.
  void addNull();

  std::size_t size() const { return raw_.size(); }
  std::size_t nullCount() const { return nulls_; }
  /// Commit-time decision: numeric iff non-empty and every non-null cell
  /// is one whole number token (str::parseWhole, the row engine's rule).
  bool numeric() const { return allNumeric_ && !raw_.empty(); }

  /// Destructive extraction; call exactly one of these per builder.
  DoubleColumn takeNumeric();
  StringColumn takeStrings();

 private:
  std::vector<std::string> raw_;
  std::vector<double> nums_;
  std::vector<bool> isNull_;
  std::size_t nulls_ = 0;
  bool allNumeric_ = true;
};

/// Appends a value (or a null) to either column flavour; used by the
/// perflog and CSV ingest paths.
void appendDouble(DoubleColumn& col, double value);
void appendDoubleNull(DoubleColumn& col);
void appendString(StringColumn& col, std::string_view value);
void appendStringNull(StringColumn& col);

}  // namespace rebench::columnar
