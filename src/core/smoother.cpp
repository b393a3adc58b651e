#include "core/smoother.hpp"

#include <algorithm>
#include <cmath>

#include "util/common.hpp"

#if defined(_OPENMP)
#include <omp.h>
#endif

namespace smg {

namespace {

/// In-place Gauss-Jordan inverse of a small row-major matrix.
void invert_block(double* a, int n) {
  double aug[kMaxBlockSize * 2 * kMaxBlockSize];
  SMG_CHECK(n <= kMaxBlockSize, "block size > 8 unsupported");
  // Build [A | I].
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) {
      aug[r * 2 * n + c] = a[r * n + c];
      aug[r * 2 * n + n + c] = (r == c) ? 1.0 : 0.0;
    }
  }
  for (int col = 0; col < n; ++col) {
    int p = col;
    double pmax = std::abs(aug[col * 2 * n + col]);
    for (int r = col + 1; r < n; ++r) {
      const double v = std::abs(aug[r * 2 * n + col]);
      if (v > pmax) {
        pmax = v;
        p = r;
      }
    }
    SMG_CHECK(pmax > 0.0, "singular diagonal block in smoother setup");
    if (p != col) {
      for (int c = 0; c < 2 * n; ++c) {
        std::swap(aug[col * 2 * n + c], aug[p * 2 * n + c]);
      }
    }
    const double inv = 1.0 / aug[col * 2 * n + col];
    for (int c = 0; c < 2 * n; ++c) {
      aug[col * 2 * n + c] *= inv;
    }
    for (int r = 0; r < n; ++r) {
      if (r == col) {
        continue;
      }
      const double m = aug[r * 2 * n + col];
      if (m != 0.0) {
        for (int c = 0; c < 2 * n; ++c) {
          aug[r * 2 * n + c] -= m * aug[col * 2 * n + c];
        }
      }
    }
  }
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) {
      a[r * n + c] = aug[r * 2 * n + n + c];
    }
  }
}

}  // namespace

std::size_t truncate_smoother_data(avec<double>& data, Prec storage) {
  if (storage == Prec::FP64) {
    return 0;
  }
  const auto n = static_cast<std::int64_t>(data.size());
  double* v = data.data();
  std::size_t guarded = 0;
#pragma omp parallel for schedule(static) reduction(+ : guarded)
  for (std::int64_t i = 0; i < n; ++i) {
    if (!truncate_smoother_value(v[i], storage)) {
      ++guarded;
    }
  }
  return guarded;
}

avec<double> compute_invdiag(const StructMat<double>& A) {
  const int center = A.stencil().center();
  SMG_CHECK(center >= 0, "smoother setup needs a diagonal entry");
  const int bs = A.block_size();
  SMG_CHECK(bs <= kMaxBlockSize, "block size > 8 unsupported");
  const std::int64_t block2 = static_cast<std::int64_t>(bs) * bs;
  avec<double> inv(static_cast<std::size_t>(A.ncells() * block2));
#pragma omp parallel for schedule(static)
  for (std::int64_t cell = 0; cell < A.ncells(); ++cell) {
    double blk[kMaxBlockSize * kMaxBlockSize];
    const double* src = A.data() + A.block_index(cell, center);
    for (std::int64_t q = 0; q < block2; ++q) {
      blk[q] = src[q];
    }
    invert_block(blk, bs);
    for (std::int64_t q = 0; q < block2; ++q) {
      inv[static_cast<std::size_t>(cell * block2 + q)] = blk[q];
    }
  }
  return inv;
}

WavefrontSchedule plan_smoother_wavefront(const Box& box, const Stencil& st,
                                          Layout layout,
                                          SmootherParallel mode) {
  if (mode == SmootherParallel::Sequential) {
    return {};
  }
  int threads = 1;
#if defined(_OPENMP)
  threads = omp_get_max_threads();
#endif
  if (mode == SmootherParallel::Auto && threads <= 1) {
    return {};
  }
  WavefrontSchedule wf = layout == Layout::AOS
                             ? WavefrontSchedule::cells(box, st)
                             : WavefrontSchedule::lines(box, st);
  if (!wf.valid()) {
    return {};  // stencil outside the wavefront bound: sequential fallback
  }
  if (mode == SmootherParallel::Auto) {
    // A wavefront level must feed every thread to beat the sequential
    // sweep's perfect locality; a line is a big work item (nx cells x
    // ndiag), a cell a tiny one, so the cell path needs far more slack
    // before the per-level barrier amortizes.
    const double floor_par = layout == Layout::AOS
                                 ? 16.0 * std::max(4, threads)
                                 : 1.0 * std::max(4, threads);
    if (wf.mean_parallelism() < floor_par) {
      return {};
    }
  }
  return wf;
}

}  // namespace smg
