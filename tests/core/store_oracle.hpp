// Reference level store for the store tests: the serial scale-then-truncate
// sequence the hierarchy ran before the fused Fixed-policy pass — copy the
// FP64 level, derive G_max with the running-max rule, scale the copy entry
// by entry, take its magnitude range, then truncate it value by value.
// core/scaling's compute_gmax, scale_matrix and store_scaled, and
// AnyMat::from must match it bit for bit (store bytes, q2, G, G_max, range
// and truncation counts).  The only change from that sequence is the
// per-value conversion, which goes through the storage type's double
// constructor: the same bytes for half, the single-rounding ones for
// bfloat16 and fp8.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

#include "core/scaling.hpp"
#include "kernels/loops.hpp"
#include "sgdia/struct_matrix.hpp"
#include "util/aligned.hpp"

namespace smg::oracle {

/// Per-dof diagonal entries a_rr (from the center stencil block).
inline avec<double> extract_diagonal(const StructMat<double>& A) {
  const int center = A.stencil().center();
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

inline bool diagonal_positive(const StructMat<double>& A) {
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

/// Visit every in-box entry as (row_dof, col_dof, value&), serially.
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

/// G_max by the serial running-max rule: m is replaced by v^2 / (d_r d_c)
/// only when v^2 > m * d_r d_c, so one division per improvement.
inline double compute_gmax(const StructMat<double>& A, double S) {
  if (!oracle::diagonal_positive(A)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  const avec<double> diag = oracle::extract_diagonal(A);
  double m = 0.0;
  bool any = false;
  auto& mutA = const_cast<StructMat<double>&>(A);
  oracle::for_each_entry_runs(mutA, [&](std::int64_t r, std::int64_t c,
                                        double& v) {
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
  return S / std::sqrt(m);
}

/// Serial in-place scaling with G = safety * G_max.
inline ScaleResult scale_matrix(StructMat<double>& A, double safety,
                                double S) {
  ScaleResult res;
  if (!oracle::diagonal_positive(A)) {
    res.diag_ok = false;
    res.gmax = std::numeric_limits<double>::quiet_NaN();
    return res;
  }
  res.gmax = oracle::compute_gmax(A, S);
  res.G = safety * res.gmax;
  if (!(res.G > 0.0) || !std::isfinite(res.G)) {
    return res;
  }
  const avec<double> diag = oracle::extract_diagonal(A);
  res.q2.resize(diag.size());
  avec<double> inv_sqrt_q(diag.size());
  for (std::size_t r = 0; r < diag.size(); ++r) {
    res.q2[r] = std::sqrt(diag[r] / res.G);
    inv_sqrt_q[r] = 1.0 / res.q2[r];
  }
  const double* isq = inv_sqrt_q.data();
  oracle::for_each_entry_runs(A, [&](std::int64_t r, std::int64_t c,
                                     double& v) {
    v *= isq[r] * isq[c];
  });
  res.applied = true;
  return res;
}

/// Serial magnitude range; NaN entries are skipped.
inline AbsRange abs_range(const StructMat<double>& A) {
  AbsRange r;
  for (const double v : A.values()) {
    const double a = std::abs(v);
    r.max_abs = std::max(r.max_abs, a);
    if (v != 0.0) {
      r.min_nonzero = std::min(r.min_nonzero, a);
    }
  }
  return r;
}

/// One value at a time, counters by branch.
template <class Dst>
TruncateReport truncate(const double* src, Dst* dst, std::size_t n) {
  TruncateReport rep;
  for (std::size_t i = 0; i < n; ++i) {
    const double s = src[i];
    const Dst d = static_cast<Dst>(s);
    if constexpr (is_storage_only_v<Dst>) {
      if (std::isfinite(s) && d.is_inf()) {
        ++rep.overflowed;
      }
      if (s != 0.0 && d.is_zero()) {
        ++rep.underflowed;
      }
      if constexpr (!std::is_same_v<Dst, bfloat16>) {
        if (d.is_subnormal()) {
          ++rep.subnormal;
        }
      }
    }
    dst[i] = d;
  }
  return rep;
}

/// Serial conversion of `a` into a zero-filled matrix of `layout`, entry by
/// entry.
template <class Dst>
StructMat<Dst> convert(const StructMat<double>& a, Layout layout,
                       TruncateReport& rep) {
  StructMat<Dst> out(a.box(), a.stencil(), a.block_size(), layout);
  const int bs = a.block_size();
  const auto block2 = static_cast<std::size_t>(bs) * bs;
  for (std::int64_t cell = 0; cell < a.ncells(); ++cell) {
    for (int d = 0; d < a.ndiag(); ++d) {
      rep += oracle::truncate<Dst>(a.data() + a.block_index(cell, d),
                           out.data() + out.block_index(cell, d), block2);
    }
  }
  return out;
}

/// Everything a scaled level store produces.
template <class Dst>
struct ScaledLevel {
  ScaleResult scale;
  AbsRange range;
  TruncateReport trunc;
  StructMat<Dst> stored;
};

/// The old scaled store: copy, scale, range, convert.
template <class Dst>
ScaledLevel<Dst> store_scaled(const StructMat<double>& A, double safety,
                              double S, Layout layout) {
  ScaledLevel<Dst> out;
  StructMat<double> scaled = A;
  out.scale = oracle::scale_matrix(scaled, safety, S);
  out.range = oracle::abs_range(scaled);
  out.stored = oracle::convert<Dst>(scaled, layout, out.trunc);
  return out;
}

}  // namespace smg::oracle
