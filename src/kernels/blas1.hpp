// Vector (BLAS-1) kernels in iterative/compute precision.
//
// Guideline §3.4: vectors never drop below FP32, so these kernels are plain
// same-precision loops; OpenMP-simd annotated and trivially vectorizable.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
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

/// Dot product accumulated in double regardless of T (iterative-precision
/// safety: FP32 Krylov still needs robust inner products).
template <class T>
double dot(std::span<const T> x, std::span<const T> y) noexcept {
  const obs::KernelSpan span(obs::Kind::Blas1);
  const std::size_t n = x.size();
  double acc = 0.0;
#pragma omp parallel for simd reduction(+ : acc)
  for (std::size_t i = 0; i < n; ++i) {
    acc += static_cast<double>(x[i]) * static_cast<double>(y[i]);
  }
  return acc;
}

/// Deterministic dot product: fixed 4096-element blocks are each summed
/// with a simd reduction (a fixed order for a given binary), blocks are
/// combined by a sequential pairwise tree.  The result is independent of
/// the OpenMP thread count and identical run to run — unlike the plain
/// `dot`, whose `reduction(+)` combines per-thread partials in
/// scheduler-dependent order.  Costs one extra pass of block partials
/// (n/4096 doubles); selected by SolveOptions::deterministic_reductions
/// (on by default).
template <class T>
double dot_deterministic(std::span<const T> x, std::span<const T> y) {
  const obs::KernelSpan span(obs::Kind::Blas1);
  constexpr std::size_t kBlock = 4096;
  const std::size_t n = x.size();
  const std::size_t nblocks = (n + kBlock - 1) / kBlock;
  if (nblocks <= 1) {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      acc += static_cast<double>(x[i]) * static_cast<double>(y[i]);
    }
    return acc;
  }
  // Shared across the parallel region below (must NOT be thread_local: the
  // worker threads all write into this one vector, indexed by block).
  std::vector<double> partial(nblocks, 0.0);
#pragma omp parallel for
  for (std::size_t b = 0; b < nblocks; ++b) {
    const std::size_t lo = b * kBlock;
    const std::size_t hi = std::min(lo + kBlock, n);
    double acc = 0.0;
#pragma omp simd reduction(+ : acc)
    for (std::size_t i = lo; i < hi; ++i) {
      acc += static_cast<double>(x[i]) * static_cast<double>(y[i]);
    }
    partial[b] = acc;
  }
  // Sequential pairwise tree over the per-block sums: fixed combination
  // order regardless of which thread produced which partial.
  for (std::size_t width = nblocks; width > 1;) {
    const std::size_t half = (width + 1) / 2;
    for (std::size_t i = 0; i + half < width; ++i) {
      partial[i] += partial[i + half];
    }
    width = half;
  }
  return partial[0];
}

template <class T>
double nrm2(std::span<const T> x) noexcept {
  return std::sqrt(dot(x, x));
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
template <class T>
void axpy_cols(std::span<const T> alpha, const MultiVector<T>& x,
               MultiVector<T>& y, const unsigned char* active) noexcept {
  const obs::KernelSpan span(obs::Kind::Blas1);
  const std::int64_t rows = y.rows();
  const int k = y.cols();
  const int kp = y.padded_cols();
  const T* SMG_RESTRICT xp = x.data();
  T* SMG_RESTRICT yp = y.data();
  const T* SMG_RESTRICT al = alpha.data();
  // Row-major single pass: a per-column pass over the interleaved panel
  // would fetch one full cache line per touched element and so re-stream
  // both panels once per column.
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

/// y[:, c] = x[:, c] + alpha[c] * y[:, c] for every active column.
template <class T>
void xpay_cols(const MultiVector<T>& x, std::span<const T> alpha,
               MultiVector<T>& y, const unsigned char* active) noexcept {
  const obs::KernelSpan span(obs::Kind::Blas1);
  const std::int64_t rows = y.rows();
  const int k = y.cols();
  const int kp = y.padded_cols();
  const T* SMG_RESTRICT xp = x.data();
  T* SMG_RESTRICT yp = y.data();
  const T* SMG_RESTRICT al = alpha.data();
  // Row-major single pass, as in axpy_cols.
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

/// Fused one-pass panel dot products: out[c] = x[:, c] . y[:, c] for all
/// real columns.  Blocked like dot_deterministic (4096-row blocks summed
/// sequentially, combined by a sequential pairwise tree), so the result is
/// thread-count independent and deterministic — but NOT bitwise equal to
/// dot()/dot_deterministic() on the extracted column (different block
/// geometry).  The batched solver uses this only behind
/// SolveManyOptions::fast_reductions.
template <class T>
void dot_many(const MultiVector<T>& x, const MultiVector<T>& y,
              std::span<double> out) {
  const obs::KernelSpan span(obs::Kind::Blas1);
  constexpr std::int64_t kBlock = 4096;
  const std::int64_t rows = x.rows();
  const int k = x.cols();
  const int kp = x.padded_cols();
  const T* SMG_RESTRICT xp = x.data();
  const T* SMG_RESTRICT yp = y.data();
  const std::int64_t nblocks = (rows + kBlock - 1) / kBlock;
  if (nblocks <= 1) {
    for (int c = 0; c < k; ++c) {
      double acc = 0.0;
      for (std::int64_t i = 0; i < rows; ++i) {
        acc += static_cast<double>(xp[i * kp + c]) *
               static_cast<double>(yp[i * kp + c]);
      }
      out[static_cast<std::size_t>(c)] = acc;
    }
    return;
  }
  std::vector<double> partial(static_cast<std::size_t>(nblocks) * k, 0.0);
#pragma omp parallel for schedule(static)
  for (std::int64_t b = 0; b < nblocks; ++b) {
    const std::int64_t lo = b * kBlock;
    const std::int64_t hi = std::min(lo + kBlock, rows);
    double* SMG_RESTRICT pb = partial.data() + b * k;
    for (std::int64_t i = lo; i < hi; ++i) {
      const T* SMG_RESTRICT xr = xp + i * kp;
      const T* SMG_RESTRICT yr = yp + i * kp;
#pragma omp simd
      for (int c = 0; c < k; ++c) {
        pb[c] += static_cast<double>(xr[c]) * static_cast<double>(yr[c]);
      }
    }
  }
  for (std::int64_t width = nblocks; width > 1;) {
    const std::int64_t half = (width + 1) / 2;
    for (std::int64_t i = 0; i + half < width; ++i) {
      double* SMG_RESTRICT dst = partial.data() + i * k;
      const double* SMG_RESTRICT src = partial.data() + (i + half) * k;
      for (int c = 0; c < k; ++c) {
        dst[c] += src[c];
      }
    }
    width = half;
  }
  for (int c = 0; c < k; ++c) {
    out[static_cast<std::size_t>(c)] = partial[static_cast<std::size_t>(c)];
  }
}

/// out[c] = ||x[:, c]||_2 via dot_many; same determinism caveat.
template <class T>
void nrm2_many(const MultiVector<T>& x, std::span<double> out) {
  dot_many(x, x, out);
  for (auto& v : out) {
    v = std::sqrt(v);
  }
}

template <class T>
double nrm_inf(std::span<const T> x) noexcept {
  const std::size_t n = x.size();
  double m = 0.0;
#pragma omp parallel for simd reduction(max : m)
  for (std::size_t i = 0; i < n; ++i) {
    m = std::max(m, std::abs(static_cast<double>(x[i])));
  }
  return m;
}

}  // namespace smg
