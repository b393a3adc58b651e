// Vector (BLAS-1) kernels in iterative/compute precision.
//
// Guideline §3.4: vectors never drop below FP32, so these kernels are plain
// same-precision loops; OpenMP-simd annotated and trivially vectorizable.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "obs/telemetry.hpp"
#include "util/common.hpp"
#include "util/multivector.hpp"

namespace smg {

template <class T>
void axpy(T alpha, std::span<const T> x, std::span<T> y) noexcept {
  const obs::KernelSpan span(obs::Kind::Blas1);
  const std::size_t n = y.size();
#pragma omp parallel for simd
  for (std::size_t i = 0; i < n; ++i) {
    y[i] += alpha * x[i];
  }
}

/// y = x + alpha*y (the "xpay" update of CG's direction vector).
template <class T>
void xpay(std::span<const T> x, T alpha, std::span<T> y) noexcept {
  const obs::KernelSpan span(obs::Kind::Blas1);
  const std::size_t n = y.size();
#pragma omp parallel for simd
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = x[i] + alpha * y[i];
  }
}

/// z = x - y (the Krylov residual r = b - A x).
template <class T>
void sub(std::span<const T> x, std::span<const T> y, std::span<T> z) noexcept {
  const std::size_t n = z.size();
#pragma omp parallel for simd
  for (std::size_t i = 0; i < n; ++i) {
    z[i] = x[i] - y[i];
  }
}

template <class T>
void scal(T alpha, std::span<T> x) noexcept {
  const obs::KernelSpan span(obs::Kind::Blas1);
  const std::size_t n = x.size();
#pragma omp parallel for simd
  for (std::size_t i = 0; i < n; ++i) {
    x[i] *= alpha;
  }
}

template <class T>
void set_zero(std::span<T> x) noexcept {
  const std::size_t n = x.size();
#pragma omp parallel for simd
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = T{0};
  }
}

template <class Dst, class Src>
void copy_convert(std::span<const Src> x, std::span<Dst> y) noexcept {
  const std::size_t n = y.size();
#pragma omp parallel for simd
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = static_cast<Dst>(x[i]);
  }
}

/// y = x ./ d — the Q^{-1/2} entry/exit wrap of ScaleThenSetup
/// (A^{-1} = Q^{-1/2} Â^{-1} Q^{-1/2}).
template <class T>
void ewise_div(std::span<const T> x, std::span<const T> d,
               std::span<T> y) noexcept {
  const std::size_t n = y.size();
#pragma omp parallel for simd
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = x[i] / d[i];
  }
}

namespace detail {

inline constexpr std::int64_t kDotBlock = 4096;  ///< rows per block partial
inline constexpr int kDotLanes = 8;              ///< accumulators per column

/// The one deterministic reduction: out[c] = x[:, c] . y[:, c] for the k
/// real columns of a row-major panel with row stride kp (k = kp = 1 is a
/// plain vector).  The summation order is explicit and depends only on the
/// row count:
///  * rows are cut into fixed kDotBlock-row blocks;
///  * inside a block, row i (block-relative) feeds lane i % kDotLanes of its
///    column, one pinned fma per element, tail rows included;
///  * each block's lanes are combined by one fixed tree,
///    ((l0 + l4) + (l2 + l6)) + ((l1 + l5) + (l3 + l7));
///  * the block partials are combined by a sequential pairwise tree.
/// Threads only decide which blocks they sum, so the result is independent
/// of the OpenMP thread count, and every panel column is bitwise the same
/// reduction on the extracted column.  A block's rows are one contiguous
/// run of the panel, so the lanes of all kp columns form one kDotLanes*kp
/// accumulator row that the run folds into element by element.
template <class T>
void dot_panel(const T* SMG_RESTRICT x, const T* SMG_RESTRICT y,
               std::int64_t rows, int kp, int k, double* out) {
  const obs::KernelSpan span(obs::Kind::Blas1);
  const std::int64_t nblocks = (rows + kDotBlock - 1) / kDotBlock;
  const std::int64_t w = std::int64_t{kDotLanes} * kp;
  // Shared across the parallel region below (must NOT be thread_local: the
  // worker threads all write into this one vector, indexed by block).  One
  // block's worth at least, so an empty panel reduces to +0.
  std::vector<double> lanes(
      static_cast<std::size_t>(std::max<std::int64_t>(nblocks, 1) * w), 0.0);
#pragma omp parallel for schedule(static) if (nblocks > 1)
  for (std::int64_t b = 0; b < nblocks; ++b) {
    const std::int64_t lo = b * kDotBlock * kp;
    const std::int64_t m = std::min(rows * kp, lo + kDotBlock * kp) - lo;
    double* SMG_RESTRICT acc = lanes.data() + b * w;
    for (std::int64_t e0 = 0; e0 < m; e0 += w) {
      const std::int64_t len = std::min(w, m - e0);
      const T* SMG_RESTRICT xs = x + lo + e0;
      const T* SMG_RESTRICT ys = y + lo + e0;
#pragma omp simd
      for (std::int64_t j = 0; j < len; ++j) {
        acc[j] = mul_add(static_cast<double>(xs[j]),
                         static_cast<double>(ys[j]), acc[j]);
      }
    }
    for (int half = kDotLanes / 2; half >= 1; half /= 2) {
      for (std::int64_t j = 0; j < half * kp; ++j) {
        acc[j] += acc[j + half * kp];
      }
    }
  }
  // Sequential pairwise tree over the per-block sums: fixed combination
  // order regardless of which thread produced which partial.
  for (std::int64_t width = nblocks; width > 1;) {
    const std::int64_t half = (width + 1) / 2;
    for (std::int64_t i = 0; i + half < width; ++i) {
      for (int c = 0; c < k; ++c) {
        lanes[static_cast<std::size_t>(i * w + c)] +=
            lanes[static_cast<std::size_t>((i + half) * w + c)];
      }
    }
    width = half;
  }
  std::copy_n(lanes.begin(), k, out);
}

}  // namespace detail

/// The dot product, accumulated in double regardless of T (iterative-
/// precision safety: FP32 Krylov still needs robust inner products): the
/// one-column case of detail::dot_panel, so the result is independent of
/// the OpenMP thread count and identical run to run.
template <class T>
double dot_deterministic(std::span<const T> x, std::span<const T> y) {
  double out = 0.0;
  detail::dot_panel(x.data(), y.data(), static_cast<std::int64_t>(x.size()),
                    1, 1, &out);
  return out;
}

template <class T>
double nrm2_deterministic(std::span<const T> x) {
  return std::sqrt(dot_deterministic(x, x));
}

// ---------------------------------------------------------------------------
// Multi-RHS (panel) BLAS-1.  The masked updates touch ONLY the selected
// columns — frozen (converged / broken) columns of the batched solver must
// stay bitwise untouched, and even a nominal y += 0 * x could flip a -0 or
// manufacture a NaN from a non-finite frozen column.  Per active column the
// update keeps the single-RHS kernel's source shape.
// ---------------------------------------------------------------------------

/// y[:, c] += alpha[c] * x[:, c] for every column with active[c] != 0.
/// One column is the plain contiguous axpy; wider panels make one
/// row-major pass (a per-column pass over the interleaved panel would
/// fetch one full cache line per touched element and so re-stream both
/// panels once per column).
template <class T>
void axpy_cols(std::span<const T> alpha, const MultiVector<T>& x,
               MultiVector<T>& y, const unsigned char* active) noexcept {
  if (y.padded_cols() == 1) {
    if (active == nullptr || active[0] != 0) {
      axpy<T>(alpha[0], {x.data(), x.size()}, {y.data(), y.size()});
    }
    return;
  }
  const obs::KernelSpan span(obs::Kind::Blas1);
  const std::int64_t rows = y.rows();
  const int k = y.cols();
  const int kp = y.padded_cols();
  const T* SMG_RESTRICT xp = x.data();
  T* SMG_RESTRICT yp = y.data();
  const T* SMG_RESTRICT al = alpha.data();
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < rows; ++i) {
    const T* SMG_RESTRICT xr = xp + i * kp;
    T* SMG_RESTRICT yr = yp + i * kp;
    for (int c = 0; c < k; ++c) {
      if (active != nullptr && active[c] == 0) {
        continue;
      }
      yr[c] += al[c] * xr[c];
    }
  }
}

/// y[:, c] = x[:, c] + alpha[c] * y[:, c] for every active column; one
/// column is the plain contiguous xpay, as in axpy_cols.
template <class T>
void xpay_cols(const MultiVector<T>& x, std::span<const T> alpha,
               MultiVector<T>& y, const unsigned char* active) noexcept {
  if (y.padded_cols() == 1) {
    if (active == nullptr || active[0] != 0) {
      xpay<T>({x.data(), x.size()}, alpha[0], {y.data(), y.size()});
    }
    return;
  }
  const obs::KernelSpan span(obs::Kind::Blas1);
  const std::int64_t rows = y.rows();
  const int k = y.cols();
  const int kp = y.padded_cols();
  const T* SMG_RESTRICT xp = x.data();
  T* SMG_RESTRICT yp = y.data();
  const T* SMG_RESTRICT al = alpha.data();
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < rows; ++i) {
    const T* SMG_RESTRICT xr = xp + i * kp;
    T* SMG_RESTRICT yr = yp + i * kp;
    for (int c = 0; c < k; ++c) {
      if (active != nullptr && active[c] == 0) {
        continue;
      }
      yr[c] = xr[c] + al[c] * yr[c];
    }
  }
}

/// Panel dot products out[c] = x[:, c] . y[:, c] for every real column,
/// one pass over both panels.  Each column is bitwise dot_deterministic on
/// the extracted column, at any thread count (detail::dot_panel).
template <class T>
void dot_many(const MultiVector<T>& x, const MultiVector<T>& y,
              std::span<double> out) {
  detail::dot_panel(x.data(), y.data(), x.rows(), x.padded_cols(), x.cols(),
                    out.data());
}

/// out[c] = ||x[:, c]||_2: each column bitwise nrm2_deterministic.
template <class T>
void nrm2_many(const MultiVector<T>& x, std::span<double> out) {
  dot_many(x, x, out);
  for (auto& v : out) {
    v = std::sqrt(v);
  }
}

}  // namespace smg
