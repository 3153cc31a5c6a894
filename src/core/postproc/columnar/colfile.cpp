#include "core/postproc/columnar/colfile.hpp"

#include <cstring>
#include <stdexcept>

#include "core/obs/json.hpp"
#include "core/service/journal.hpp"
#include "core/util/error.hpp"

namespace rebench::columnar {

namespace {

constexpr std::uint32_t kEndianTag = 0x01020304;

template <typename T>
void putRaw(std::string& out, T value) {
  char buf[sizeof(T)];
  std::memcpy(buf, &value, sizeof(T));
  out.append(buf, sizeof(T));
}

template <typename T>
bool getRaw(std::string_view bytes, std::size_t& cursor, T& value) {
  if (cursor + sizeof(T) > bytes.size()) return false;
  std::memcpy(&value, bytes.data() + cursor, sizeof(T));
  cursor += sizeof(T);
  return true;
}

std::string encodeDoubleBlob(const DoubleColumn& col) {
  std::string out;
  const std::size_t rows = col.values.size();
  out.reserve(rows * sizeof(double) +
              (col.nullCount() > 0 ? (rows + 63) / 64 * 8 : 0));
  out.append(reinterpret_cast<const char*>(col.values.data()),
             rows * sizeof(double));
  if (col.nullCount() > 0) {
    out.append(reinterpret_cast<const char*>(col.validity.words().data()),
               col.validity.words().size() * sizeof(std::uint64_t));
  }
  return out;
}

std::string encodeStringBlob(const StringColumn& col) {
  std::string out;
  putRaw(out, static_cast<std::uint64_t>(col.dict->size()));
  for (const std::string& value : col.dict->values()) {
    putRaw(out, static_cast<std::uint32_t>(value.size()));
    out.append(value);
  }
  out.append(reinterpret_cast<const char*>(col.codes.data()),
             col.codes.size() * sizeof(std::uint32_t));
  return out;
}

std::string zoneJson(const std::vector<NumericZone>& zones) {
  std::string out = "[";
  for (std::size_t i = 0; i < zones.size(); ++i) {
    if (i != 0) out += ',';
    out += "{\"count\":" + std::to_string(zones[i].count) +
           ",\"nulls\":" + std::to_string(zones[i].nulls) +
           ",\"min\":" + service::formatExact(zones[i].min) +
           ",\"max\":" + service::formatExact(zones[i].max) + "}";
  }
  return out + "]";
}

std::string zoneJson(const std::vector<CodeZone>& zones) {
  std::string out = "[";
  for (std::size_t i = 0; i < zones.size(); ++i) {
    if (i != 0) out += ',';
    out += "{\"count\":" + std::to_string(zones[i].count) +
           ",\"nulls\":" + std::to_string(zones[i].nulls) +
           ",\"min_code\":" + std::to_string(zones[i].minCode) +
           ",\"max_code\":" + std::to_string(zones[i].maxCode) + "}";
  }
  return out + "]";
}

std::size_t expectedChunks(std::size_t rows) {
  return (rows + kChunkRows - 1) / kChunkRows;
}

bool decodeDoubleColumn(const obs::json::Value& meta, std::string_view blob,
                        std::size_t rows, DoubleColumn& out) {
  const auto nullCount = meta.integerOr<std::size_t>("null_count", 0);
  std::size_t expected = rows * sizeof(double);
  const std::size_t words = (rows + 63) / 64;
  if (nullCount > 0) expected += words * sizeof(std::uint64_t);
  if (blob.size() != expected) return false;

  out.values.resize(rows);
  std::memcpy(out.values.data(), blob.data(), rows * sizeof(double));
  if (nullCount > 0) {
    std::vector<std::uint64_t> bits(words);
    std::memcpy(bits.data(), blob.data() + rows * sizeof(double),
                words * sizeof(std::uint64_t));
    out.validity = NullBitmap::fromWords(std::move(bits), rows);
    if (out.validity.nullCount() != nullCount) return false;
  } else {
    out.validity.appendRun(rows, true);
  }

  const auto& zones = meta.at("zones").array;
  if (zones.size() != expectedChunks(rows)) return false;
  std::vector<NumericZone> loaded;
  loaded.reserve(zones.size());
  for (const obs::json::Value& z : zones) {
    NumericZone zone;
    zone.count = z.integerOr<std::uint32_t>("count", 0);
    zone.nulls = z.integerOr<std::uint32_t>("nulls", 0);
    zone.min = z.numberOr("min", 0.0);
    zone.max = z.numberOr("max", 0.0);
    loaded.push_back(zone);
  }
  out.setZones(std::move(loaded));
  return true;
}

bool decodeStringColumn(const obs::json::Value& meta, std::string_view blob,
                        std::size_t rows, StringColumn& out) {
  const auto nullCount = meta.integerOr<std::size_t>("null_count", 0);
  std::size_t cursor = 0;
  std::uint64_t dictCount = 0;
  if (!getRaw(blob, cursor, dictCount)) return false;
  auto dict = std::make_shared<Dictionary>();
  for (std::uint64_t d = 0; d < dictCount; ++d) {
    std::uint32_t len = 0;
    if (!getRaw(blob, cursor, len)) return false;
    if (cursor + len > blob.size()) return false;
    dict->encode(blob.substr(cursor, len));
    cursor += len;
  }
  // A blob whose dictionary held duplicate entries would decode to fewer
  // codes than the footer promises — refuse it.
  if (dict->size() != dictCount) return false;
  if (blob.size() - cursor != rows * sizeof(std::uint32_t)) return false;
  out.codes.resize(rows);
  std::memcpy(out.codes.data(), blob.data() + cursor,
              rows * sizeof(std::uint32_t));
  out.dict = std::move(dict);

  std::size_t nulls = 0;
  for (const std::uint32_t c : out.codes) {
    if (c == kNullCode) {
      ++nulls;
    } else if (c >= dictCount) {
      return false;
    }
  }
  if (nulls != nullCount) return false;
  out.setNullCount(nulls);

  const auto& zones = meta.at("zones").array;
  if (zones.size() != expectedChunks(rows)) return false;
  std::vector<CodeZone> loaded;
  loaded.reserve(zones.size());
  for (const obs::json::Value& z : zones) {
    CodeZone zone;
    zone.count = z.integerOr<std::uint32_t>("count", 0);
    zone.nulls = z.integerOr<std::uint32_t>("nulls", 0);
    zone.minCode = z.integerOr<std::uint32_t>("min_code", 0);
    zone.maxCode = z.integerOr<std::uint32_t>("max_code", 0);
    loaded.push_back(zone);
  }
  out.setZones(std::move(loaded));
  return true;
}

}  // namespace

std::string writeColFrame(store::ObjectStore& store, const Table& table) {
  std::string footer = "{\"schema\":\"" + std::string(kColFrameSchema) +
                       "\",\"rows\":" + std::to_string(table.rows) +
                       ",\"chunk_rows\":" + std::to_string(kChunkRows) +
                       ",\"endian\":" + std::to_string(kEndianTag) +
                       ",\"columns\":[";
  for (std::size_t c = 0; c < table.columns.size(); ++c) {
    const Column& col = table.columns[c];
    if (c != 0) footer += ',';
    std::string blob;
    std::string type;
    std::string zones;
    std::size_t nullCount = 0;
    if (col.isNumeric()) {
      type = "f64";
      blob = encodeDoubleBlob(col.doubles());
      zones = zoneJson(col.doubles().zones());
      nullCount = col.doubles().nullCount();
    } else {
      type = "dict";
      blob = encodeStringBlob(col.strs());
      zones = zoneJson(col.strs().zones());
      nullCount = col.strs().nullCount();
    }
    const std::string hash = store.put(blob);
    footer += "{\"name\":" + obs::json::quote(col.name) + ",\"type\":\"" +
              type + "\",\"blob\":\"" + hash +
              "\",\"null_count\":" + std::to_string(nullCount) +
              ",\"zones\":" + zones + "}";
  }
  footer += "]}";
  return store.put(footer);
}

std::optional<Table> readColFrame(store::ObjectStore& store,
                                  const std::string& footerHash) {
  const std::optional<std::string> footerBytes = store.get(footerHash);
  if (!footerBytes) return std::nullopt;
  obs::json::Value footer;
  try {
    footer = obs::json::parse(*footerBytes);
  } catch (const std::exception&) {
    return std::nullopt;
  }
  if (!footer.isObject() ||
      footer.stringOr("schema", "") != kColFrameSchema ||
      footer.integerOr<std::uint32_t>("endian", 0) != kEndianTag ||
      !footer.contains("columns") || !footer.at("columns").isArray()) {
    return std::nullopt;
  }
  // Zone maps are chunked at write-time granularity; a frame written with
  // a different chunk size would mislabel chunks, so refuse it (the cache
  // then falls back to a re-parse and rewrite at the current size).
  if (footer.integerOr<std::size_t>("chunk_rows", 0) != kChunkRows) {
    return std::nullopt;
  }

  Table table;
  table.rows = footer.integerOr<std::size_t>("rows", 0);
  for (const obs::json::Value& meta : footer.at("columns").array) {
    if (!meta.isObject() || !meta.contains("zones") ||
        !meta.at("zones").isArray()) {
      return std::nullopt;
    }
    const std::string blobHash = meta.stringOr("blob", "");
    const std::optional<std::string> blob = store.get(blobHash);
    if (!blob) return std::nullopt;
    const std::string type = meta.stringOr("type", "");
    Column col;
    col.name = meta.stringOr("name", "");
    try {
      if (type == "f64") {
        DoubleColumn data;
        if (!decodeDoubleColumn(meta, *blob, table.rows, data)) {
          return std::nullopt;
        }
        col.data = std::move(data);
      } else if (type == "dict") {
        StringColumn data;
        if (!decodeStringColumn(meta, *blob, table.rows, data)) {
          return std::nullopt;
        }
        col.data = std::move(data);
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
    table.columns.push_back(std::move(col));
  }
  return table;
}

}  // namespace rebench::columnar
