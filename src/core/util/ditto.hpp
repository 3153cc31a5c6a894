// Ditto-coded rows, the one encoding of history segments
// (rebench.history/2) and campaign perflog objects (rebench.perflog/2):
//
//   HEADER|...|N
//   field|field|...        (N rows, each ending in '\n')
//
// Fields are separated by '|' and rows may differ in width.  A non-empty
// field equal to the same field of the row above is written as a lone
// kDitto; the first row never is.  The header's last field is the row
// count.  What the fields mean, and the escaping that keeps '|', '\n' and
// a lone kDitto out of them, is the caller's.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rebench::ditto {

/// Marks a field equal to the same field of the row above.
inline constexpr std::string_view kDitto = "=";

/// Encodes rows one at a time, keeping only the row above.
class Writer {
 public:
  /// Starts the text with the header line `header|rows`; the caller then
  /// writes exactly `rows` rows.
  Writer(std::string_view header, std::size_t rows);

  /// Appends one row.  Throws rebench::Error on a field holding '|' or
  /// '\n', or equal to kDitto: it could not round-trip.
  void row(std::span<const std::string> fields);

  /// The encoded text; the writer is spent.
  std::string take() { return std::move(out_); }

 private:
  std::string out_;
  std::vector<std::string> above_;
};

/// Decodes a ditto-coded text row by row into views of its bytes, a
/// ditto resolved to the view above it.  The vectors of views are reused,
/// so a row allocates nothing once the widest row has been read.
/// `bytes`, `what` and `row` must outlive the reader.
class Reader {
 public:
  /// Reads the header.  Throws rebench::Error, naming the text `what`
  /// and its rows `row` ("perflog object", "line"), when `bytes` does not
  /// end in a newline, when the header does not have `headerFields`
  /// fields, or when its last is not the number of rows that follow.
  Reader(std::string_view bytes, std::size_t headerFields,
         std::string_view what, std::string_view row);

  /// The header's fields, row count included.
  std::span<const std::string_view> header() const { return header_; }
  std::uint64_t rows() const { return rows_; }

  /// Reads the next row into fields(); false after the last row.  Throws
  /// rebench::Error on a ditto in the first row or past the end of the
  /// row above.
  bool next();
  std::span<const std::string_view> fields() const { return fields_; }

 private:
  std::string_view rest_;
  std::string_view what_;
  std::string_view row_;
  std::uint64_t rows_ = 0;
  std::vector<std::string_view> header_;
  std::vector<std::string_view> fields_;  // the row next() read
  std::vector<std::string_view> line_;    // the row being read
};

}  // namespace rebench::ditto
