#include "core/postproc/columnar/table.hpp"

#include <cmath>
#include <limits>

#include "core/util/error.hpp"
#include "core/util/strings.hpp"

namespace rebench::columnar {

void TaggedColumnBuilder::add(std::string cell) {
  if (allNumeric_) {
    try {
      nums_.push_back(str::parseWhole<double>(cell, "cell"));
    } catch (const ParseError&) {
      allNumeric_ = false;
      nums_.clear();
      nums_.shrink_to_fit();
    }
  }
  raw_.push_back(std::move(cell));
  isNull_.push_back(false);
}

void TaggedColumnBuilder::addNull() {
  if (allNumeric_) nums_.push_back(std::numeric_limits<double>::quiet_NaN());
  raw_.emplace_back();
  isNull_.push_back(true);
  ++nulls_;
}

DoubleColumn TaggedColumnBuilder::takeNumeric() {
  DoubleColumn col;
  col.values = std::move(nums_);
  for (const bool null : isNull_) col.validity.append(!null);
  return col;
}

StringColumn TaggedColumnBuilder::takeStrings() {
  StringColumn col;
  col.codes.reserve(raw_.size());
  for (std::size_t i = 0; i < raw_.size(); ++i) {
    if (isNull_[i]) {
      col.codes.push_back(kNullCode);
    } else {
      col.codes.push_back(col.dict->encode(raw_[i]));
    }
  }
  col.setNullCount(nulls_);
  return col;
}

void appendDouble(DoubleColumn& col, double value) {
  col.values.push_back(value);
  col.validity.append(true);
  col.invalidate();
}

void appendDoubleNull(DoubleColumn& col) {
  col.values.push_back(std::numeric_limits<double>::quiet_NaN());
  col.validity.append(false);
  col.invalidate();
}

void appendString(StringColumn& col, std::string_view value) {
  col.codes.push_back(col.dict->encode(value));
  col.invalidate();
}

void appendStringNull(StringColumn& col) {
  col.codes.push_back(kNullCode);
  col.setNullCount(col.nullCount() + 1);
  col.invalidate();
}

}  // namespace rebench::columnar
