#include "core/util/ditto.hpp"

#include <algorithm>

#include "core/util/error.hpp"
#include "core/util/strings.hpp"

namespace rebench::ditto {

namespace {

/// Splits `line` on '|' into `fields` (views into `line`).
void split(std::string_view line, std::vector<std::string_view>& fields) {
  fields.clear();
  while (true) {
    const std::size_t bar = line.find('|');
    fields.push_back(line.substr(0, bar));
    if (bar == std::string_view::npos) return;
    line.remove_prefix(bar + 1);
  }
}

}  // namespace

Writer::Writer(std::string_view header, std::size_t rows)
    : out_(std::string(header) + "|" + std::to_string(rows) + "\n") {}

void Writer::row(std::span<const std::string> fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    const std::string& field = fields[i];
    if (field == kDitto || field.find_first_of("|\n") != std::string::npos) {
      throw Error("field '" + field + "' cannot be stored ditto-coded");
    }
    if (i != 0) out_ += '|';
    const bool ditto =
        !field.empty() && i < above_.size() && field == above_[i];
    out_ += ditto ? kDitto : std::string_view(field);
  }
  out_ += '\n';
  above_.assign(fields.begin(), fields.end());
}

Reader::Reader(std::string_view bytes, std::size_t headerFields,
               std::string_view what, std::string_view row)
    : what_(what), row_(row) {
  if (bytes.empty() || bytes.back() != '\n') {
    throw Error(std::string(what_) + " does not end in a newline");
  }
  const std::size_t end = bytes.find('\n');
  split(bytes.substr(0, end), header_);
  rest_ = bytes.substr(end + 1);
  if (header_.size() != headerFields) {
    throw Error(std::string(what_) + " header has " +
                std::to_string(header_.size()) + " fields (expected " +
                std::to_string(headerFields) + ")");
  }
  rows_ = str::parseWhole<std::uint64_t>(
      header_.back(), std::string(what_) + " " + std::string(row_) + " count");
  const auto held =
      static_cast<std::uint64_t>(std::count(rest_.begin(), rest_.end(), '\n'));
  if (held != rows_) {
    throw Error(std::string(what_) + " holds " + std::to_string(held) + " " +
                std::string(row_) + "s, its header says " +
                std::to_string(rows_));
  }
}

bool Reader::next() {
  if (rest_.empty()) return false;
  const std::size_t end = rest_.find('\n');
  split(rest_.substr(0, end), line_);
  rest_.remove_prefix(end + 1);
  for (std::size_t i = 0; i < line_.size(); ++i) {
    if (line_[i] != kDitto) continue;
    // Every row has a field, so only the first finds fields_ empty.
    if (fields_.empty()) {
      throw Error(std::string(what_) + "'s first " + std::string(row_) +
                  " has a ditto field");
    }
    if (i >= fields_.size()) {
      throw Error(std::string(what_) + " " + std::string(row_) +
                  " has a ditto past the end of the " + std::string(row_) +
                  " above");
    }
    line_[i] = fields_[i];
  }
  fields_.swap(line_);
  return true;
}

}  // namespace rebench::ditto
