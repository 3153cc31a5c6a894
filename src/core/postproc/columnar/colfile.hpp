// On-disk columnar frame layout (`rebench.colframe/1`).
//
// A converted frame is stored in the ObjectStore as one blob per column
// plus a JSON footer that carries the schema and the per-chunk zone maps:
//
//   footer   {"schema":"rebench.colframe/1","rows":R,"chunk_rows":65536,
//             "endian":16909060,"columns":[
//               {"name":"value","type":"f64","blob":"<hash>",
//                "null_count":0,"zones":[{"count":..,"nulls":..,
//                                         "min":..,"max":..},..]},
//               {"name":"system","type":"dict","blob":"<hash>",
//                "null_count":0,"zones":[{"count":..,"nulls":..,
//                                         "min_code":..,"max_code":..},..]}]}
//   f64 blob  raw doubles (rows*8 bytes) [+ validity words when nulls > 0]
//   dict blob u64 entry count, then (u32 len, bytes) per entry, then raw
//             u32 codes (rows*4 bytes)
//
// Column data is a contiguous array at a fixed offset — the layout is
// mmap-friendly — and zone maps live in the footer, so a predicate can
// decide which chunks matter before any column blob is even fetched.
// Zone-map doubles are serialized with shortest-round-trip formatting
// (service::formatExact): a lossy rendering could widen or *narrow* a
// chunk's [min,max] and make a skip unsafe.
//
// Reads are verified twice over: the ObjectStore re-hashes every blob,
// and the decoder cross-checks sizes, code ranges and null counts against
// the footer.  Any mismatch reads as "absent" — the cache degrades to a
// re-parse, never to a wrong frame (the BuildCache discipline).
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "core/postproc/columnar/table.hpp"
#include "core/store/object_store.hpp"

namespace rebench::columnar {

inline constexpr std::string_view kColFrameSchema = "rebench.colframe/1";

/// Serializes `table` into the store (one blob per column + footer) and
/// returns the footer hash.  Deterministic: the same table yields the
/// same bytes and therefore the same hashes.
std::string writeColFrame(store::ObjectStore& store, const Table& table);

/// Verified load; nullopt when the footer or any column blob is missing,
/// corrupt, or inconsistent with the footer metadata; throws as get does
/// when one cannot be read.  Zone maps from the footer are attached to
/// the loaded columns, so predicates skip chunks without a rebuild pass.
std::optional<Table> readColFrame(store::ObjectStore& store,
                                  const std::string& footerHash);

}  // namespace rebench::columnar
