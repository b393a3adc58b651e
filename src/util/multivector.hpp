// MultiVector: a panel of k right-hand-side columns stored row-major
// interleaved, the layout the multi-RHS kernels stream.
//
// Element (row, col) lives at data()[row * padded_cols() + col].  The row
// stride is padded to the next power of two so that
//  * the k-column inner loop of every panel kernel is a fixed-trip-count
//    SIMD loop over one contiguous run, and
//  * a row never straddles a cache line it did not have to: 64 is a
//    multiple of every padded row size up to 16 doubles, so each row run
//    of up to 1024 bytes starts cache-line aligned (the backing store is
//    64-byte aligned and 64 % (kpad * sizeof(T)) == 0 or vice versa).
//
// Padding columns are REAL storage: they are zero-initialised and every
// panel kernel computes over them uniformly (branch-free inner loops).
// All panel operations preserve "padding stays finite zero": multigrid
// smoothing of a zero RHS with zero guess is zero, q2 scaling of zero is
// zero, and the batched-CG driver never applies an update to a padding
// column.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "util/aligned.hpp"
#include "util/common.hpp"

namespace smg {

namespace detail {

/// Next power of two >= k (k >= 1).  The padded panel width.
constexpr int panel_padded_cols(int k) noexcept {
  int p = 1;
  while (p < k) {
    p *= 2;
  }
  return p;
}

static_assert(panel_padded_cols(1) == 1);
static_assert(panel_padded_cols(2) == 2);
static_assert(panel_padded_cols(3) == 4);
static_assert(panel_padded_cols(5) == 8);
static_assert(panel_padded_cols(8) == 8);
static_assert(panel_padded_cols(9) == 16);
static_assert(panel_padded_cols(16) == 16);

}  // namespace detail

template <class T>
class MultiVector {
 public:
  /// Cache-line alignment of the backing store.  A power-of-two row size
  /// (kpad * sizeof(T)) either divides 64 or is a multiple of 64, so no
  /// row run of <= 64 bytes ever splits a cache line.
  static constexpr std::size_t kAlign = 64;
  static_assert((kAlign & (kAlign - 1)) == 0, "alignment must be pow2");
  static_assert(kAlign % alignof(T) == 0, "element alignment must divide 64");

  MultiVector() = default;
  MultiVector(std::int64_t rows, int cols) { resize(rows, cols); }

  /// Resize to rows x cols, zero-filling everything (padding included).
  /// The fill is the storage's first touch, split across threads like the
  /// row-parallel kernels that stream the panel.
  void resize(std::int64_t rows, int cols) {
    SMG_CHECK(rows >= 0 && cols >= 1, "MultiVector: bad shape");
    rows_ = rows;
    cols_ = cols;
    kpad_ = detail::panel_padded_cols(cols);
    data_.clear();
    data_.resize(static_cast<std::size_t>(rows_) * kpad_);
    fill(T{});
  }

  void fill(T v) {
    T* SMG_RESTRICT d = data_.data();
    const std::size_t n = data_.size();
#pragma omp parallel for simd schedule(static)
    for (std::size_t i = 0; i < n; ++i) {
      d[i] = v;
    }
  }

  std::int64_t rows() const noexcept { return rows_; }
  int cols() const noexcept { return cols_; }
  int padded_cols() const noexcept { return kpad_; }
  /// Total elements including padding columns.
  std::size_t size() const noexcept { return data_.size(); }
  bool empty() const noexcept { return data_.empty(); }

  T* data() noexcept { return data_.data(); }
  const T* data() const noexcept { return data_.data(); }

  T* row(std::int64_t r) noexcept { return data_.data() + r * kpad_; }
  const T* row(std::int64_t r) const noexcept {
    return data_.data() + r * kpad_;
  }

  T& at(std::int64_t r, int c) noexcept { return data_[r * kpad_ + c]; }
  const T& at(std::int64_t r, int c) const noexcept {
    return data_[r * kpad_ + c];
  }

  /// Copy column c into a contiguous vector (for single-RHS reductions and
  /// per-column coarse solves).
  void extract_col(int c, std::span<T> out) const {
    SMG_CHECK(static_cast<std::int64_t>(out.size()) == rows_,
              "extract_col: size mismatch");
    const T* SMG_RESTRICT src = data_.data() + c;
    for (std::int64_t r = 0; r < rows_; ++r) {
      out[static_cast<std::size_t>(r)] = src[r * kpad_];
    }
  }

  /// Scatter a contiguous vector into column c.
  void insert_col(int c, std::span<const T> in) {
    SMG_CHECK(static_cast<std::int64_t>(in.size()) == rows_,
              "insert_col: size mismatch");
    T* SMG_RESTRICT dst = data_.data() + c;
    for (std::int64_t r = 0; r < rows_; ++r) {
      dst[r * kpad_] = in[static_cast<std::size_t>(r)];
    }
  }

 private:
  std::int64_t rows_ = 0;
  int cols_ = 0;
  int kpad_ = 0;
  uvec<T> data_;
};

}  // namespace smg
