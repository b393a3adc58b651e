#include "core/scaling.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <type_traits>

#include "kernels/loops.hpp"
#include "util/common.hpp"

namespace smg {

namespace {

/// Reads the per-dof diagonal a_rr (the (br, br) entries of the center
/// block) into `diag`; false when some a_rr is zero, negative or non-finite
/// or there is no center diagonal — Theorem 4.1 then has no Q.
bool positive_diagonal(const StructMat<double>& A, avec<double>& diag) {
  const int center = A.stencil().center();
  if (center < 0) {
    return false;
  }
  const int bs = A.block_size();
  const std::int64_t nc = A.ncells();
  diag.resize(static_cast<std::size_t>(A.nrows()));
  double* SMG_RESTRICT dg = diag.data();
  bool ok = true;
#pragma omp parallel for schedule(static) reduction(&& : ok)
  for (std::int64_t cell = 0; cell < nc; ++cell) {
    for (int br = 0; br < bs; ++br) {
      const double d = A.at(cell, center, br, br);
      dg[cell * bs + br] = d;
      ok = ok && d > 0.0 && std::isfinite(d);
    }
  }
  return ok;
}

/// Visit every in-box entry as (row_dof, col_dof, value&) over contiguous
/// per-(diagonal, line) runs — the hot path of both G_max and the scaling
/// pass, so no per-entry bounds checks.  The lines are shared out by an
/// orphaned `omp for`: called inside a parallel region, each thread visits
/// its own lines (every entry exactly once overall); called outside one,
/// the calling thread visits them all.
template <class M, class F>
void for_each_entry_runs(M& A, F&& f) {
  const Box& box = A.box();
  const Stencil& st = A.stencil();
  const int bs = A.block_size();
  const std::int64_t nlines = static_cast<std::int64_t>(box.ny) * box.nz;
#pragma omp for schedule(static)
  for (std::int64_t line = 0; line < nlines; ++line) {
    const int j = static_cast<int>(line % box.ny);
    const int k = static_cast<int>(line / box.ny);
    const std::int64_t base = line * box.nx;
    for (int d = 0; d < st.ndiag(); ++d) {
      const DiagRange r = diag_range(box, st.offset(d), j, k);
      if (!r.line_valid) {
        continue;
      }
      for (int i = r.ilo; i < r.ihi; ++i) {
        const std::int64_t cell = base + i;
        const std::int64_t nbr = cell + r.shift;
        auto* blk = A.data() + A.block_index(cell, d);
        for (int br = 0; br < bs; ++br) {
          for (int bc = 0; bc < bs; ++bc) {
            f(cell * bs + br, nbr * bs + bc, blk[br * bs + bc]);
          }
        }
      }
    }
  }
}

/// G_max = S / sqrt(m) with m the exact maximum of v^2 / (d_r d_c) over
/// the nonzero entries; +inf when there are none.  A max is exact, so the
/// result does not depend on the visit order or the thread count.
double gmax_of(const StructMat<double>& A, const avec<double>& diag,
               double S) {
  const double* SMG_RESTRICT dg = diag.data();
  double m = 0.0;
  bool any = false;
#pragma omp parallel reduction(max : m) reduction(|| : any)
  for_each_entry_runs(A, [&](std::int64_t r, std::int64_t c, double v) {
    if (v == 0.0) {
      return;
    }
    const double ratio = (v * v) / (dg[r] * dg[c]);
    if (ratio > m) {
      m = ratio;
    }
    any = true;
  });
  if (!any) {
    return std::numeric_limits<double>::infinity();
  }
  // G_max = S * min sqrt(d_r d_c)/|v| = S / sqrt(max v^2/(d_r d_c)).
  return S / std::sqrt(m);
}

/// 1 / q2 per dof: the Q^{-1/2} factors of the scaled entries.
avec<double> inverse_sqrt_q(std::span<const double> q2) {
  const auto n = static_cast<std::int64_t>(q2.size());
  avec<double> isq(q2.size());
#pragma omp parallel for schedule(static)
  for (std::int64_t r = 0; r < n; ++r) {
    isq[static_cast<std::size_t>(r)] = 1.0 / q2[static_cast<std::size_t>(r)];
  }
  return isq;
}

/// Widen `r` by `v`.  A NaN changes neither end.
void fold_range(double v, AbsRange& r) {
  const double a = std::abs(v);
  r.max_abs = std::max(r.max_abs, a);
  if (v != 0.0) {
    r.min_nonzero = std::min(r.min_nonzero, a);
  }
}

void merge_range(const AbsRange& part, AbsRange& r) {
  r.max_abs = std::max(r.max_abs, part.max_abs);
  r.min_nonzero = std::min(r.min_nonzero, part.min_nonzero);
}

template <class T>
StructMat<T> store_scaled_as(const StructMat<double>& A, const double* isq,
                             Layout layout, TruncateReport& trunc,
                             AbsRange& range) {
  auto out = StructMat<T>::uninitialized(A.box(), A.stencil(),
                                         A.block_size(), layout);
  const Box& box = A.box();
  const Stencil& st = A.stencil();
  const int bs = A.block_size();
  const std::int64_t block2 = static_cast<std::int64_t>(bs) * bs;
  // The work units of convert_into: one (line, diagonal) run when neither
  // layout is AOS, one (cell, diagonal) block otherwise.
  const bool runs = A.layout() != Layout::AOS && layout != Layout::AOS;
  const std::int64_t nunits =
      runs ? static_cast<std::int64_t>(box.ny) * box.nz : A.ncells();
  const int cells_per_unit = runs ? box.nx : 1;
  const auto unit_len = static_cast<std::size_t>(cells_per_unit * block2);
#pragma omp parallel
  {
    TruncateReport part_trunc;
    AbsRange part_range;
    avec<double> buf(unit_len);
    double* SMG_RESTRICT b = buf.data();
#pragma omp for schedule(static) nowait
    for (std::int64_t u = 0; u < nunits; ++u) {
      const std::int64_t cell0 = u * cells_per_unit;
      const std::int64_t line = cell0 / box.nx;
      const auto i0 = static_cast<int>(cell0 - line * box.nx);
      const int j = static_cast<int>(line % box.ny);
      const int k = static_cast<int>(line / box.ny);
      for (int d = 0; d < st.ndiag(); ++d) {
        const double* src = A.data() + A.block_index(cell0, d);
        std::copy_n(src, unit_len, b);
        // Out-of-box slots keep their (zero) value unscaled, as in
        // scale_matrix.
        const DiagRange r = diag_range(box, st.offset(d), j, k);
        if (r.line_valid) {
          const int hi = std::min(r.ihi, i0 + cells_per_unit);
          for (int i = std::max(r.ilo, i0); i < hi; ++i) {
            const std::int64_t cell = cell0 + (i - i0);
            const double* SMG_RESTRICT isq_r = isq + cell * bs;
            const double* SMG_RESTRICT isq_c = isq + (cell + r.shift) * bs;
            double* blk = b + (i - i0) * block2;
            for (int br = 0; br < bs; ++br) {
              for (int bc = 0; bc < bs; ++bc) {
                blk[br * bs + bc] *= isq_r[br] * isq_c[bc];
              }
            }
          }
        }
        for (std::size_t q = 0; q < unit_len; ++q) {
          fold_range(b[q], part_range);
        }
        convert_run(static_cast<const double*>(b),
                    out.data() + out.block_index(cell0, d), unit_len,
                    part_trunc);
      }
    }
#pragma omp critical(smg_store_scaled)
    {
      trunc += part_trunc;
      merge_range(part_range, range);
    }
  }
  return out;
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
      fold_range(v[i], part);
    }
#pragma omp critical(smg_abs_range)
    merge_range(part, r);
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
  avec<double> diag;
  return positive_diagonal(A, diag);
}

double compute_gmax(const StructMat<double>& A, double S) {
  avec<double> diag;
  if (!positive_diagonal(A, diag)) {
    // sqrt(d_r d_c) is undefined (or 0/inf): no G admits Theorem 4.1's
    // bound.  NaN — not 0 — so callers can distinguish "no admissible G"
    // from a legitimately tiny one.
    return std::numeric_limits<double>::quiet_NaN();
  }
  return gmax_of(A, diag, S);
}

ScaleResult scale_factors(const StructMat<double>& A, double safety,
                          double S) {
  ScaleResult res;
  avec<double> diag;
  if (!positive_diagonal(A, diag)) {
    // A zero/negative/non-finite a_rr would turn G_max (and every scaled
    // entry touching that dof) into NaN and poison the whole hierarchy.
    // No scaling; the caller stores this level unscaled in compute
    // precision instead.
    res.diag_ok = false;
    res.gmax = std::numeric_limits<double>::quiet_NaN();
    return res;
  }
  res.gmax = gmax_of(A, diag, S);
  res.G = safety * res.gmax;
  if (!(res.G > 0.0) || !std::isfinite(res.G)) {
    // All-zero matrix (gmax = inf) or nonsensical safety: nothing to scale.
    return res;
  }
  // q2[r] = sqrt(q_r) = sqrt(a_rr / G).
  const auto n = static_cast<std::int64_t>(diag.size());
  res.q2.resize(diag.size());
#pragma omp parallel for schedule(static)
  for (std::int64_t r = 0; r < n; ++r) {
    const auto u = static_cast<std::size_t>(r);
    res.q2[u] = std::sqrt(diag[u] / res.G);
  }
  res.applied = true;
  return res;
}

void apply_scaling(StructMat<double>& A, std::span<const double> q2) {
  SMG_CHECK(static_cast<std::int64_t>(q2.size()) == A.nrows(),
            "apply_scaling: one q2 entry per dof");
  const avec<double> inv_sqrt_q = inverse_sqrt_q(q2);
  const double* SMG_RESTRICT isq = inv_sqrt_q.data();
#pragma omp parallel
  for_each_entry_runs(A, [&](std::int64_t r, std::int64_t c, double& v) {
    v *= isq[r] * isq[c];
  });
}

ScaleResult scale_matrix(StructMat<double>& A, double safety, double S) {
  ScaleResult res = scale_factors(A, safety, S);
  if (res.applied) {
    apply_scaling(A, res.q2);
  }
  return res;
}

ScaledStore store_scaled(const StructMat<double>& A,
                         std::span<const double> q2, Prec p, Layout layout) {
  SMG_CHECK(static_cast<std::int64_t>(q2.size()) == A.nrows(),
            "store_scaled: one q2 entry per dof");
  const avec<double> isq = inverse_sqrt_q(q2);
  ScaledStore s;
  s.A = AnyMat::build(p, [&]<class T>(std::type_identity<T>) {
    return store_scaled_as<T>(A, isq.data(), layout, s.trunc, s.range);
  });
  return s;
}

}  // namespace smg
