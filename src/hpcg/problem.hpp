// HPCG problem geometry.
//
// The global domain is a structured 3D grid, decomposed into z-slabs
// across MPI ranks (the paper runs HPCG "MPI only on a single node").
// Within a slab, indices are x-fastest: idx = i + nx*(j + ny*k).
#pragma once

#include <cstddef>

namespace rebench::hpcg {

struct Geometry {
  int nx = 16;        // local x extent (== global)
  int ny = 16;        // local y extent (== global)
  int nzLocal = 16;   // this rank's slab thickness
  int nzGlobal = 16;  // total z extent
  int zOffset = 0;    // first global z-plane owned by this rank

  std::size_t localPoints() const {
    return static_cast<std::size_t>(nx) * ny * nzLocal;
  }
  std::size_t planePoints() const {
    return static_cast<std::size_t>(nx) * ny;
  }

  std::size_t index(int i, int j, int k) const {
    return static_cast<std::size_t>(i) +
           static_cast<std::size_t>(nx) *
               (static_cast<std::size_t>(j) +
                static_cast<std::size_t>(ny) * static_cast<std::size_t>(k));
  }

  bool hasLowerNeighbor() const { return zOffset > 0; }
  bool hasUpperNeighbor() const {
    return zOffset + nzLocal < nzGlobal;
  }

  /// Balanced slab for `rank` of `numRanks` over a cube of `n`^3 points.
  static Geometry slab(int n, int rank, int numRanks);
};

}  // namespace rebench::hpcg
