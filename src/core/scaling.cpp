#include "core/scaling.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "kernels/loops.hpp"
#include "util/common.hpp"

namespace smg {

namespace {

/// Per-dof diagonal entries a_rr (from the center stencil block).
avec<double> extract_diagonal(const StructMat<double>& A) {
  const int center = A.stencil().center();
  SMG_CHECK(center >= 0, "scaling requires a center diagonal");
  const int bs = A.block_size();
  avec<double> diag(static_cast<std::size_t>(A.nrows()));
  for (std::int64_t cell = 0; cell < A.ncells(); ++cell) {
    for (int br = 0; br < bs; ++br) {
      diag[static_cast<std::size_t>(cell * bs + br)] =
          A.at(cell, center, br, br);
    }
  }
  return diag;
}

/// Visit every in-box entry as (row_dof, col_dof, value&) over contiguous
/// per-(diagonal, line) runs — the hot path of both G_max and the scaling
/// pass, so no per-entry bounds checks.
template <class F>
void for_each_entry_runs(StructMat<double>& A, F&& f) {
  const Box& box = A.box();
  const Stencil& st = A.stencil();
  const int bs = A.block_size();
  for (int d = 0; d < st.ndiag(); ++d) {
    for (int k = 0; k < box.nz; ++k) {
      for (int j = 0; j < box.ny; ++j) {
        const DiagRange r = diag_range(box, st.offset(d), j, k);
        if (!r.line_valid || r.ihi <= r.ilo) {
          continue;
        }
        const std::int64_t base = box.idx(0, j, k);
        for (int i = r.ilo; i < r.ihi; ++i) {
          const std::int64_t cell = base + i;
          const std::int64_t nbr = cell + r.shift;
          double* blk = A.data() + A.block_index(cell, d);
          for (int br = 0; br < bs; ++br) {
            for (int bc = 0; bc < bs; ++bc) {
              f(cell * bs + br, nbr * bs + bc, blk[br * bs + bc]);
            }
          }
        }
      }
    }
  }
}

}  // namespace

AbsRange abs_range(const StructMat<double>& A) {
  const double* v = A.data();
  const auto n = static_cast<std::int64_t>(A.values().size());
  AbsRange r;
#pragma omp parallel
  {
    AbsRange part;
#pragma omp for schedule(static) nowait
    for (std::int64_t i = 0; i < n; ++i) {
      const double a = std::abs(v[i]);
      part.max_abs = std::max(part.max_abs, a);
      if (v[i] != 0.0) {
        part.min_nonzero = std::min(part.min_nonzero, a);
      }
    }
#pragma omp critical(smg_abs_range)
    {
      r.max_abs = std::max(r.max_abs, part.max_abs);
      r.min_nonzero = std::min(r.min_nonzero, part.min_nonzero);
    }
  }
  return r;
}

double max_abs_value(const StructMat<double>& A) {
  return abs_range(A).max_abs;
}

double min_abs_nonzero(const StructMat<double>& A) {
  return abs_range(A).min_nonzero;
}

bool diagonal_positive(const StructMat<double>& A) {
  const int center = A.stencil().center();
  if (center < 0) {
    return false;
  }
  const int bs = A.block_size();
  for (std::int64_t cell = 0; cell < A.ncells(); ++cell) {
    for (int br = 0; br < bs; ++br) {
      const double d = A.at(cell, center, br, br);
      if (!(d > 0.0) || !std::isfinite(d)) {
        return false;
      }
    }
  }
  return true;
}

double compute_gmax(const StructMat<double>& A, double S) {
  if (!diagonal_positive(A)) {
    // sqrt(d_r d_c) is undefined (or 0/inf): no G admits Theorem 4.1's
    // bound.  NaN — not 0 — so callers can distinguish "no admissible G"
    // from a legitimately tiny one.
    return std::numeric_limits<double>::quiet_NaN();
  }
  const avec<double> diag = extract_diagonal(A);
  // Track m = max over entries of v^2 / (d_r d_c) without per-entry
  // divisions: a division happens only when the maximum improves.
  double m = 0.0;
  bool any = false;
  auto& mutA = const_cast<StructMat<double>&>(A);
  for_each_entry_runs(mutA, [&](std::int64_t r, std::int64_t c, double& v) {
    if (v == 0.0) {
      return;
    }
    const double dr = diag[static_cast<std::size_t>(r)];
    const double dc = diag[static_cast<std::size_t>(c)];
    const double v2 = v * v;
    const double dd = dr * dc;
    if (v2 > m * dd) {
      m = v2 / dd;
    }
    any = true;
  });
  if (!any) {
    return std::numeric_limits<double>::infinity();
  }
  // G_max = S * min sqrt(d_r d_c)/|v| = S / sqrt(max v^2/(d_r d_c)).
  return S / std::sqrt(m);
}

ScaleResult scale_matrix(StructMat<double>& A, double safety, double S) {
  ScaleResult res;
  if (!diagonal_positive(A)) {
    // A zero/negative/non-finite a_rr would turn G_max (and every scaled
    // entry touching that dof) into NaN and poison the whole hierarchy.
    // Leave A untouched; the caller stores this level unscaled in compute
    // precision instead.
    res.diag_ok = false;
    res.gmax = std::numeric_limits<double>::quiet_NaN();
    return res;
  }
  res.gmax = compute_gmax(A, S);
  res.G = safety * res.gmax;
  if (!(res.G > 0.0) || !std::isfinite(res.G)) {
    // All-zero matrix (gmax = inf) or nonsensical safety: nothing to scale.
    return res;
  }

  const avec<double> diag = extract_diagonal(A);
  res.q2.resize(diag.size());
  // inv_sqrt_q[r] = 1/sqrt(q_r) = sqrt(G / a_rr); q2[r] = sqrt(a_rr / G).
  avec<double> inv_sqrt_q(diag.size());
  for (std::size_t r = 0; r < diag.size(); ++r) {
    res.q2[r] = std::sqrt(diag[r] / res.G);
    inv_sqrt_q[r] = 1.0 / res.q2[r];
  }

  const double* SMG_RESTRICT isq = inv_sqrt_q.data();
  for_each_entry_runs(A, [&](std::int64_t r, std::int64_t c, double& v) {
    v *= isq[r] * isq[c];
  });
  res.applied = true;
  return res;
}

}  // namespace smg
