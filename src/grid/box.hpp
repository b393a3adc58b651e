// 3D structured grid box with lexicographic (x fastest) cell indexing.
#pragma once

#include <cstdint>

#include "util/common.hpp"

namespace smg {

/// A structured nx*ny*nz grid.  Cell (i,j,k) has linear index
/// i + nx*(j + ny*k); x is the unit-stride dimension (SIMD dimension).
struct Box {
  int nx = 0;
  int ny = 0;
  int nz = 0;

  constexpr std::int64_t size() const noexcept {
    return static_cast<std::int64_t>(nx) * ny * nz;
  }

  constexpr bool contains(int i, int j, int k) const noexcept {
    return i >= 0 && i < nx && j >= 0 && j < ny && k >= 0 && k < nz;
  }

  constexpr std::int64_t idx(int i, int j, int k) const noexcept {
    return i + static_cast<std::int64_t>(nx) * (j + static_cast<std::int64_t>(ny) * k);
  }

  constexpr bool operator==(const Box&) const noexcept = default;
};

}  // namespace smg
