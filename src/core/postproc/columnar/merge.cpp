#include "core/postproc/columnar/merge.hpp"

#include "core/util/error.hpp"

namespace rebench::columnar {

namespace {

std::string typeName(const Column& col) {
  return col.isNumeric() ? "numeric" : "string";
}

/// Appends one chunk's string column into the output column, translating
/// dictionary codes.  Shared dictionaries copy codes verbatim; foreign
/// dictionaries get a per-chunk translation table (O(dictionary size)).
void appendStringChunk(StringColumn& out, const StringColumn& chunk) {
  out.setNullCount(out.nullCount() + chunk.nullCount());
  if (out.dict == chunk.dict) {
    out.codes.insert(out.codes.end(), chunk.codes.begin(), chunk.codes.end());
    return;
  }
  std::vector<std::uint32_t> translate(chunk.dict->size());
  for (std::uint32_t c = 0; c < translate.size(); ++c) {
    translate[c] = out.dict->encode(chunk.dict->at(c));
  }
  out.codes.reserve(out.codes.size() + chunk.codes.size());
  for (const std::uint32_t c : chunk.codes) {
    out.codes.push_back(c == kNullCode ? kNullCode : translate[c]);
  }
}

void appendDoubleChunk(DoubleColumn& out, const DoubleColumn& chunk) {
  out.values.insert(out.values.end(), chunk.values.begin(),
                    chunk.values.end());
  if (chunk.validity.empty()) {
    out.validity.appendRun(chunk.values.size(), true);
  } else {
    for (std::size_t i = 0; i < chunk.values.size(); ++i) {
      out.validity.append(chunk.validity.valid(i));
    }
  }
}

}  // namespace

void requireSameSchema(const Table& first, const Table& other,
                       std::size_t otherIndex) {
  if (other.columns.size() != first.columns.size()) {
    throw Error("cannot concat frames: frame " + std::to_string(otherIndex) +
                " has " + std::to_string(other.columns.size()) +
                " column(s), frame 1 has " +
                std::to_string(first.columns.size()));
  }
  for (std::size_t c = 0; c < first.columns.size(); ++c) {
    if (other.columns[c].name != first.columns[c].name) {
      throw Error("cannot concat frames: column " + std::to_string(c + 1) +
                  " is '" + other.columns[c].name + "' in frame " +
                  std::to_string(otherIndex) + " but '" +
                  first.columns[c].name + "' in frame 1");
    }
  }
  for (std::size_t c = 0; c < first.columns.size(); ++c) {
    if (other.columns[c].isNumeric() != first.columns[c].isNumeric()) {
      throw Error("cannot concat frames: column '" + first.columns[c].name +
                  "' is " + typeName(other.columns[c]) + " in frame " +
                  std::to_string(otherIndex) + " but " +
                  typeName(first.columns[c]) + " in frame 1");
    }
  }
}

void TableAppender::append(const Table& chunk) {
  if (++inputs_ == 1) {
    out_ = chunk;  // deep copy of codes/values; dictionaries shared
    for (Column& col : out_.columns) {
      if (col.isNumeric()) {
        col.doubles().invalidate();
      } else {
        col.strs().invalidate();
      }
    }
    return;
  }
  requireSameSchema(out_, chunk, inputs_);
  for (std::size_t c = 0; c < out_.columns.size(); ++c) {
    if (out_.columns[c].isNumeric()) {
      appendDoubleChunk(out_.columns[c].doubles(), chunk.columns[c].doubles());
    } else {
      appendStringChunk(out_.columns[c].strs(), chunk.columns[c].strs());
    }
  }
  out_.rows += chunk.rows;
}

Table TableAppender::take() {
  Table out = std::move(out_);
  out_ = Table{};
  inputs_ = 0;
  return out;
}

Table concatTables(std::span<const Table* const> tables) {
  if (tables.empty()) return {};
  // Row-engine error precedence: every frame's column names are validated
  // before any type is, so a name mismatch in frame 3 outranks a type
  // mismatch in frame 2.
  const Table& first = *tables.front();
  for (std::size_t f = 1; f < tables.size(); ++f) {
    const Table& other = *tables[f];
    if (other.columns.size() != first.columns.size()) {
      requireSameSchema(first, other, f + 1);
    }
    for (std::size_t c = 0; c < first.columns.size(); ++c) {
      if (other.columns[c].name != first.columns[c].name) {
        requireSameSchema(first, other, f + 1);
      }
    }
  }
  TableAppender appender;
  for (const Table* table : tables) appender.append(*table);
  return appender.take();
}

}  // namespace rebench::columnar
