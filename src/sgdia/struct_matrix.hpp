// SG-DIA (structured-grid diagonal) sparse matrix.
//
// This is the index-free format of guideline §3.2: a structured matrix stores
// one value per (cell, stencil-offset) pair and *no* integer index arrays, so
// truncating values to FP16 halves (vs FP32) or quarters (vs FP64) the whole
// memory footprint — unlike CSR where the index arrays are incompressible.
//
// Layouts (§5.1):
//  * AOS  — values of one cell's stencil entries are contiguous
//           (hypre SMG/PFMG order); scalar-friendly, SIMD-hostile for
//           mixed precision because each 2-byte entry needs its own fcvt.
//  * SOA  — values of one stencil offset over all cells are contiguous;
//           one vector-convert per SIMD width, the paper's optimized form.
//  * SOAL — line-blocked SOA: within each grid line (fixed j,k) the nx-long
//           runs of all stencil offsets are stored back to back.  Same
//           SIMD-per-offset inner loops as SOA, but a kernel sweeping a line
//           touches one contiguous region instead of ndiag strided streams —
//           the single-stream access pattern hardware prefetchers love.
//           This is the layout behind the "MG-fp16/fp32(opt)" numbers.
//
// Vector PDEs (rhd-3T, oil-4C, solid-3D) attach an r x r dense block to every
// stencil entry; `block_size` is a runtime parameter and scalar problems use
// block_size == 1.
//
// Entries whose neighbor falls outside the box are stored (to keep the format
// rectangular) but are zero by construction; kernels never read them because
// per-diagonal loop bounds exclude them.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <span>

#include "fp/convert.hpp"
#include "fp/precision.hpp"
#include "grid/box.hpp"
#include "grid/stencil.hpp"
#include "util/aligned.hpp"
#include "util/common.hpp"

namespace smg {

enum class Layout {
  AOS,
  SOA,
  SOAL,
};

constexpr std::string_view to_string(Layout l) noexcept {
  switch (l) {
    case Layout::AOS:
      return "aos";
    case Layout::SOA:
      return "soa";
    case Layout::SOAL:
      return "soal";
  }
  return "?";
}

template <class T>
class StructMat {
 public:
  using value_type = T;

  StructMat() = default;

  StructMat(Box box, Stencil st, int block_size = 1,
            Layout layout = Layout::SOA)
      : box_(box),
        st_(std::move(st)),
        bs_(block_size),
        layout_(layout),
        ncells_(box.size()),
        block2_(static_cast<std::int64_t>(block_size) * block_size) {
    SMG_CHECK(block_size >= 1, "block size must be positive");
    nvals_ = static_cast<std::size_t>(ncells_) * st_.ndiag() * block2_;
    // kSimdSlack zero-initialized spare elements allow SIMD kernels to issue
    // full-width loads at the tail of any diagonal run (the excess lanes are
    // masked out of the computation).
    vals_.assign(nvals_ + kSimdSlack, T{});
  }

  /// Elements of read-safe slack past the logical value array.
  static constexpr std::size_t kSimdSlack = 16;

  const Box& box() const noexcept { return box_; }
  const Stencil& stencil() const noexcept { return st_; }
  int block_size() const noexcept { return bs_; }
  Layout layout() const noexcept { return layout_; }
  std::int64_t ncells() const noexcept { return ncells_; }
  std::int64_t nrows() const noexcept { return ncells_ * bs_; }
  int ndiag() const noexcept { return st_.ndiag(); }

  /// All stored values, including boundary-truncated zeros.
  std::span<T> values() noexcept { return {vals_.data(), nvals_}; }
  std::span<const T> values() const noexcept {
    return {vals_.data(), nvals_};
  }

  /// Base index of the r x r block at (cell, diag).
  std::int64_t block_index(std::int64_t cell, int d) const noexcept {
    switch (layout_) {
      case Layout::AOS:
        return (cell * st_.ndiag() + d) * block2_;
      case Layout::SOA:
        return (static_cast<std::int64_t>(d) * ncells_ + cell) * block2_;
      case Layout::SOAL: {
        const std::int64_t line = cell / box_.nx;
        const std::int64_t i = cell % box_.nx;
        return ((line * st_.ndiag() + d) * box_.nx + i) * block2_;
      }
    }
    return 0;
  }

  T& at(std::int64_t cell, int d, int br = 0, int bc = 0) noexcept {
    return vals_[block_index(cell, d) + br * bs_ + bc];
  }
  const T& at(std::int64_t cell, int d, int br = 0, int bc = 0) const noexcept {
    return vals_[block_index(cell, d) + br * bs_ + bc];
  }

  // Distinctly named from at(cell, ...): an int literal first argument would
  // otherwise silently select the wrong overload.
  T& at_ijk(int i, int j, int k, int d, int br = 0, int bc = 0) noexcept {
    return at(box_.idx(i, j, k), d, br, bc);
  }
  const T& at_ijk(int i, int j, int k, int d, int br = 0,
                  int bc = 0) const noexcept {
    return at(box_.idx(i, j, k), d, br, bc);
  }

  /// Contiguous values of one stencil offset (SOA layout only).
  std::span<const T> diag_run(int d) const noexcept {
    SMG_CHECK(layout_ == Layout::SOA, "diag_run requires SOA layout");
    return {vals_.data() + static_cast<std::size_t>(d) * ncells_ * block2_,
            static_cast<std::size_t>(ncells_ * block2_)};
  }

  /// Number of in-box (logical) nonzero slots: excludes boundary truncation.
  std::int64_t nnz_logical() const noexcept {
    std::int64_t total = 0;
    for (int d = 0; d < st_.ndiag(); ++d) {
      const Offset& o = st_.offset(d);
      const std::int64_t vx = std::max(0, box_.nx - std::abs(int(o.dx)));
      const std::int64_t vy = std::max(0, box_.ny - std::abs(int(o.dy)));
      const std::int64_t vz = std::max(0, box_.nz - std::abs(int(o.dz)));
      total += vx * vy * vz;
    }
    return total * block2_;
  }

  /// Stored bytes of floating-point data (the Table 2 accounting).
  std::size_t value_bytes() const noexcept { return nvals_ * sizeof(T); }

  /// Zero all entries whose neighbor lies outside the box (invariant repair
  /// after bulk writes).
  void clear_out_of_box() noexcept {
    for (int d = 0; d < st_.ndiag(); ++d) {
      const Offset& o = st_.offset(d);
      for (int k = 0; k < box_.nz; ++k) {
        for (int j = 0; j < box_.ny; ++j) {
          for (int i = 0; i < box_.nx; ++i) {
            if (!box_.contains(i + o.dx, j + o.dy, k + o.dz)) {
              T* b = vals_.data() + block_index(box_.idx(i, j, k), d);
              for (std::int64_t q = 0; q < block2_; ++q) {
                b[q] = T{};
              }
            }
          }
        }
      }
    }
  }

  /// True if every out-of-box slot is exactly zero.
  bool out_of_box_clear() const noexcept {
    for (int d = 0; d < st_.ndiag(); ++d) {
      const Offset& o = st_.offset(d);
      for (int k = 0; k < box_.nz; ++k) {
        for (int j = 0; j < box_.ny; ++j) {
          for (int i = 0; i < box_.nx; ++i) {
            if (!box_.contains(i + o.dx, j + o.dy, k + o.dz)) {
              const T* b = vals_.data() + block_index(box_.idx(i, j, k), d);
              for (std::int64_t q = 0; q < block2_; ++q) {
                if (static_cast<float>(b[q]) != 0.0f) {
                  return false;
                }
              }
            }
          }
        }
      }
    }
    return true;
  }

  const T* data() const noexcept { return vals_.data(); }
  T* data() noexcept { return vals_.data(); }

 private:
  Box box_{};
  Stencil st_{};
  int bs_ = 1;
  Layout layout_ = Layout::SOA;
  std::int64_t ncells_ = 0;
  std::int64_t block2_ = 1;
  std::size_t nvals_ = 0;
  avec<T> vals_;
};

/// Re-convert `a` into the existing matrix `out` (same box, stencil, and
/// block size; any layout), overwriting its values in place — no allocation.
/// This is the autopilot's re-truncation path: a level can be re-stored at a
/// different safety or precision from the retained FP64 setup matrix without
/// redoing the Galerkin chain.  Returns overflow stats when narrowing.
template <class Dst, class Src>
void convert_into(const StructMat<Src>& a, StructMat<Dst>& out,
                  TruncateReport* report = nullptr) {
  SMG_CHECK(out.box() == a.box() && out.block_size() == a.block_size() &&
                out.ndiag() == a.ndiag(),
            "convert_into requires an identically shaped destination");
  const Layout layout = out.layout();
  const int bs = a.block_size();
  const std::int64_t block2 = static_cast<std::int64_t>(bs) * bs;

  const auto run = [](const Src* src, Dst* dst, std::size_t n,
                      TruncateReport& rep) {
    if constexpr (is_storage_only_v<Dst>) {
      rep += truncate<Dst, Src>({src, n}, {dst, n});
    } else {
      for (std::size_t q = 0; q < n; ++q) {
        dst[q] = static_cast<Dst>(static_cast<double>(src[q]));
      }
    }
  };

  // Both SOA-family layouts are contiguous per (line, diagonal) run of
  // nx * bs^2 values: convert run-wise (per-element block_index would
  // dominate the setup phase otherwise).  AOS involvement falls back to one
  // block per (cell, diagonal).  Runs are disjoint and the report is an
  // integer sum, so any thread count gives the same bytes and counts.
  const bool runs = a.layout() != Layout::AOS && layout != Layout::AOS;
  const Box& box = a.box();
  const std::int64_t nunits =
      runs ? static_cast<std::int64_t>(box.ny) * box.nz : a.ncells();
  const std::int64_t cells_per_unit = runs ? box.nx : 1;
  const auto unit_len = static_cast<std::size_t>(cells_per_unit * block2);
  TruncateReport rep;
#pragma omp parallel
  {
    TruncateReport part;
#pragma omp for schedule(static) nowait
    for (std::int64_t u = 0; u < nunits; ++u) {
      const std::int64_t cell0 = u * cells_per_unit;
      for (int d = 0; d < a.ndiag(); ++d) {
        run(a.data() + a.block_index(cell0, d),
            out.data() + out.block_index(cell0, d), unit_len, part);
      }
    }
#pragma omp critical(smg_convert_into)
    rep += part;
  }
  if (report != nullptr) {
    *report = rep;
  }
}

/// Copy with a different layout and/or value type; returns overflow stats
/// when narrowing (used by the hierarchy to detect the need to scale).
template <class Dst, class Src>
StructMat<Dst> convert(const StructMat<Src>& a, Layout layout,
                       TruncateReport* report = nullptr) {
  StructMat<Dst> out(a.box(), a.stencil(), a.block_size(), layout);
  convert_into(a, out, report);
  return out;
}

}  // namespace smg
