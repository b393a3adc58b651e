// Geometric transfer operators between consecutive levels.
//
// Vertex-aligned full coarsening: coarse index I maps to fine index 2I along
// every coarsened dimension (a dimension shorter than MGConfig::min_dim is
// left uncoarsened — StructMG-style semicoarsening falls out of this for
// pencil-shaped grids).  Prolongation P is (tri)linear interpolation and the
// restriction is *normalized full weighting* R = (1/2^d) P^T where d is the
// number of coarsened dimensions.  Any R = c P^T yields the same Galerkin
// correction in exact arithmetic; the 1/2-per-dimension normalization keeps
// coarse-operator magnitudes on the same scale as the fine operator, which
// matters once levels are truncated to FP16: an unnormalized P^T grows
// entries ~4x per level and silently re-creates the overflow that scaling
// just removed.  Per-dimension interpolation weights: an even fine point
// copies its coarse owner (weight 1), an odd fine point averages its two
// coarse neighbors (weight 1/2 each, boundary-truncated).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>

#include "grid/box.hpp"
#include "obs/telemetry.hpp"
#include "util/aligned.hpp"
#include "util/common.hpp"
#include "util/multivector.hpp"

namespace smg {

/// Geometry of one coarsening step.
struct Coarsening {
  Box fine{};
  Box coarse{};
  std::array<bool, 3> mask{};  ///< which dims were halved

  static Coarsening make(const Box& fine, int min_dim) {
    Coarsening c;
    c.fine = fine;
    c.mask = {fine.nx >= min_dim, fine.ny >= min_dim, fine.nz >= min_dim};
    c.coarse = Box{c.mask[0] ? (fine.nx + 1) / 2 : fine.nx,
                   c.mask[1] ? (fine.ny + 1) / 2 : fine.ny,
                   c.mask[2] ? (fine.nz + 1) / 2 : fine.nz};
    return c;
  }

  /// Coupling-aware variant (StructMG-style "high-dimensional coarsening"):
  /// a dimension is only halved if it is long enough AND its directional
  /// coupling strength is at least `threshold` times the strongest
  /// coarsenable dimension's.  Point smoothers leave error smooth along
  /// strongly coupled directions only, so semicoarsening the strong
  /// direction(s) is what keeps anisotropic problems (the paper's weather
  /// case) converging grid-independently.
  static Coarsening make(const Box& fine, int min_dim,
                         const std::array<double, 3>& strength,
                         double threshold) {
    Coarsening c;
    c.fine = fine;
    const std::array<bool, 3> can = {fine.nx >= min_dim, fine.ny >= min_dim,
                                     fine.nz >= min_dim};
    double smax = 0.0;
    for (int d = 0; d < 3; ++d) {
      if (can[static_cast<std::size_t>(d)]) {
        smax = std::max(smax, strength[static_cast<std::size_t>(d)]);
      }
    }
    for (int d = 0; d < 3; ++d) {
      c.mask[static_cast<std::size_t>(d)] =
          can[static_cast<std::size_t>(d)] &&
          strength[static_cast<std::size_t>(d)] >= threshold * smax;
    }
    c.coarse = Box{c.mask[0] ? (fine.nx + 1) / 2 : fine.nx,
                   c.mask[1] ? (fine.ny + 1) / 2 : fine.ny,
                   c.mask[2] ? (fine.nz + 1) / 2 : fine.nz};
    return c;
  }

  bool any() const noexcept { return mask[0] || mask[1] || mask[2]; }

  /// Full-weighting normalization: R = restrict_scale() * P^T.
  double restrict_scale() const noexcept {
    double s = 1.0;
    for (bool m : mask) {
      if (m) {
        s *= 0.5;
      }
    }
    return s;
  }
};

namespace detail {

/// Coarse parents of fine coordinate x in one dimension: up to two
/// (index, weight) pairs.  Uncoarsened dims map identically.
struct Parents {
  int idx[2];
  double w[2];
  int count;
};

inline Parents parents_of(int x, int nc, bool coarsened) noexcept {
  Parents p{};
  if (!coarsened) {
    p.idx[0] = x;
    p.w[0] = 1.0;
    p.count = 1;
    return p;
  }
  if ((x & 1) == 0) {
    p.idx[0] = x / 2;
    p.w[0] = 1.0;
    p.count = 1;
    return p;
  }
  p.count = 0;
  const int lo = (x - 1) / 2;
  const int hi = (x + 1) / 2;
  if (lo >= 0 && lo < nc) {
    p.idx[p.count] = lo;
    p.w[p.count] = 0.5;
    ++p.count;
  }
  if (hi >= 0 && hi < nc) {
    p.idx[p.count] = hi;
    p.w[p.count] = 0.5;
    ++p.count;
  }
  return p;
}

/// Fine children of coarse coordinate X in one dimension: the transpose
/// enumeration of parents_of — up to three (index, weight) pairs, ascending.
/// Gather-form restriction iterates these, which makes every coarse dof the
/// property of exactly one loop iteration (race-free under OpenMP), unlike
/// the scatter form where concurrent fine points add into shared parents.
struct Children {
  int idx[3];
  double w[3];
  int count;
};

inline Children children_of(int X, int nf, bool coarsened) noexcept {
  Children c{};
  if (!coarsened) {
    c.idx[0] = X;
    c.w[0] = 1.0;
    c.count = 1;
    return c;
  }
  c.count = 0;
  for (int t = -1; t <= 1; ++t) {
    const int xf = 2 * X + t;
    if (xf >= 0 && xf < nf) {
      c.idx[c.count] = xf;
      c.w[c.count] = t == 0 ? 1.0 : 0.5;
      ++c.count;
    }
  }
  return c;
}

/// The lines of the other grid that one output line reads, in the
/// per-point (a, b) = (z, y) fold order, with their y/z weight products.
struct LineRows {
  int j[9]{};
  int k[9]{};
  double w[9]{};
  int n = 0;

  void add(int jj, int kk, double ww) noexcept {
    j[n] = jj;
    k[n] = kk;
    w[n] = ww;
    ++n;
  }
};

/// Prolongation rows of fine line (j, k): its y/z coarse parents.
inline LineRows prolong_rows(const Coarsening& c, int j, int k) noexcept {
  LineRows r;
  const Parents pk = parents_of(k, c.coarse.nz, c.mask[2]);
  const Parents pj = parents_of(j, c.coarse.ny, c.mask[1]);
  for (int a = 0; a < pk.count; ++a) {
    for (int b = 0; b < pj.count; ++b) {
      r.add(pj.idx[b], pk.idx[a], pk.w[a] * pj.w[b]);
    }
  }
  return r;
}

/// Restriction rows of coarse line (J, K): its y/z fine children.
inline LineRows restrict_rows(const Coarsening& c, int J, int K) noexcept {
  LineRows r;
  const double rscale = c.restrict_scale();
  const Children ck = children_of(K, c.fine.nz, c.mask[2]);
  const Children cj = children_of(J, c.fine.ny, c.mask[1]);
  for (int a = 0; a < ck.count; ++a) {
    for (int b = 0; b < cj.count; ++b) {
      r.add(cj.idx[b], ck.idx[a], rscale * ck.w[a] * cj.w[b]);
    }
  }
  return r;
}

/// One output line's hoisted transfer stencil: its rows' line pointers and
/// weights, each weight cast to CT once per line — `full` for an x-term of
/// weight 1, `half` for one of weight 1/2.  Every weight is a product of 1,
/// 1/2 and restrict_scale(), all powers of two, so (CT)(w_zy * w_x) is
/// exactly the per-point (CT)(w_z * w_y * w_x), and each w * v product is
/// exact whenever it is a normal number.  The folds are pinned through
/// mul_add: written as `acc += w * v`, GCC -O3 left some terms of the
/// vectorized restriction run uncontracted, which differs from the per-point
/// fold once w * v is subnormal and rounds.
template <class CT>
struct LineStencil {
  const CT* row[9];
  CT full[9];
  CT half[9];
  int n;

  template <class LineFn>
  LineStencil(const LineRows& r, LineFn&& line) : n(r.n) {
    for (int t = 0; t < n; ++t) {
      row[t] = line(r.j[t], r.k[t]);
      full[t] = static_cast<CT>(r.w[t]);
      half[t] = static_cast<CT>(r.w[t] * 0.5);
    }
  }
};

/// This thread's scratch of at least n values, grown and never shrunk.  A
/// buffer allocated per call instead interleaves small allocations with the
/// solver's large frees; through heap placement alone that raised the peak
/// RSS of a 128^3 laplace27 setup-and-solve loop by 17 MB.
template <class CT>
CT* line_scratch(std::size_t n) {
  thread_local avec<CT> buf;
  if (buf.size() < n) {
    buf.resize(n);
  }
  return buf.data();
}

/// u += P e on fine line (j, k).  Each point holds w contiguous values (bs
/// dofs times panel columns), each folded independently.  `u` addresses
/// point 0; line(J, K) returns coarse line (J, K) from its point 0.
///
/// Every value keeps the per-point fold: from CT{0}, rows in (a, b) order,
/// each row's x-parents ascending, the sum added to u once.  Rows are applied
/// one at a time over the whole line with the partial sums in a scratch line
/// `acc`, so each pass is a contiguous run: even points 2I read parent I, odd
/// points 2I+1 read I and I+1, and an odd point without an upper parent
/// reads only I.  Even and odd sums live in separate halves of `acc` and are
/// interleaved into u by the last pass.
template <int WC, class CT, class LineFn>
void prolong_run(const Coarsening& c, int j, int k, int W, LineFn&& line,
                 CT* SMG_RESTRICT u) {
  const std::int64_t w = WC > 0 ? WC : W;
  const LineStencil<CT> s(prolong_rows(c, j, k), line);
  const int nf = c.fine.nx;
  const std::int64_t n = nf * w;
  CT* SMG_RESTRICT acc = line_scratch<CT>(static_cast<std::size_t>(n));
  for (std::int64_t q = 0; q < n; ++q) {
    acc[q] = CT{0};
  }
  if (!c.mask[0]) {
    for (int r = 0; r < s.n; ++r) {
      const CT wf = s.full[r];
      const CT* SMG_RESTRICT p = s.row[r];
      for (std::int64_t q = 0; q < n; ++q) {
        acc[q] = mul_add(wf, p[q], acc[q]);
      }
    }
    for (std::int64_t q = 0; q < n; ++q) {
      u[q] += acc[q];
    }
    return;
  }
  // Even points 2I for I in [0, e1), odd points 2I+1 for I in [0, o1);
  // those in [0, o2) have both parents.
  const int nc = c.coarse.nx;
  const int e1 = (nf + 1) / 2;
  const int o1 = nf / 2;
  const int o2 = std::max(0, std::min(o1, nc - 1));
  const std::int64_t ne = e1 * w;
  const std::int64_t n2 = o2 * w;
  CT* SMG_RESTRICT ev = acc;
  CT* SMG_RESTRICT od = acc + ne;
  for (int r = 0; r < s.n; ++r) {
    const CT wf = s.full[r];
    const CT wh = s.half[r];
    const CT* SMG_RESTRICT p = s.row[r];
    for (std::int64_t q = 0; q < ne; ++q) {
      ev[q] = mul_add(wf, p[q], ev[q]);
    }
    for (std::int64_t q = 0; q < n2; ++q) {
      od[q] = mul_add(wh, p[q], od[q]);
      od[q] = mul_add(wh, p[q + w], od[q]);
    }
    for (int I = o2; I < std::min(o1, nc); ++I) {
      CT* SMG_RESTRICT d = od + I * w;
      const CT* SMG_RESTRICT pi = p + I * w;
      for (std::int64_t q = 0; q < w; ++q) {
        d[q] = mul_add(wh, pi[q], d[q]);
      }
    }
  }
  for (std::int64_t m = 0; m < o1; ++m) {
    for (std::int64_t q = 0; q < w; ++q) {
      u[2 * m * w + q] += ev[m * w + q];
      u[(2 * m + 1) * w + q] += od[m * w + q];
    }
  }
  if (nf & 1) {
    for (std::int64_t q = 0; q < w; ++q) {
      u[2 * o1 * w + q] += ev[o1 * w + q];
    }
  }
}

/// f = R r on coarse line (J, K).  `f` addresses point 0; line(j, k) returns
/// fine line (j, k) from its point 0.  Rows fold one at a time straight into
/// f, from CT{0}, each row's x-children ascending — the per-point order.
/// Interior points I in [1, nf/2) read children 2I-1, 2I, 2I+1 as one run;
/// the clipped edge points (at most one per end) go through children_of.
template <int WC, class CT, class LineFn>
void restrict_run(const Coarsening& c, int J, int K, int W, LineFn&& line,
                  CT* SMG_RESTRICT f) {
  const std::int64_t w = WC > 0 ? WC : W;
  const LineStencil<CT> s(restrict_rows(c, J, K), line);
  const int nc = c.coarse.nx;
  const std::int64_t n = nc * w;
  for (std::int64_t q = 0; q < n; ++q) {
    f[q] = CT{0};
  }
  if (!c.mask[0]) {
    for (int r = 0; r < s.n; ++r) {
      const CT wf = s.full[r];
      const CT* SMG_RESTRICT p = s.row[r];
      for (std::int64_t q = 0; q < n; ++q) {
        f[q] = mul_add(wf, p[q], f[q]);
      }
    }
    return;
  }
  const int nf = c.fine.nx;
  const int a1 = std::max(1, std::min(nc, nf / 2));
  for (int r = 0; r < s.n; ++r) {
    const CT wf = s.full[r];
    const CT wh = s.half[r];
    const CT* SMG_RESTRICT p = s.row[r] + w;
    CT* SMG_RESTRICT d = f + w;
    for (std::int64_t m = 0; m < a1 - 1; ++m) {
      for (std::int64_t q = 0; q < w; ++q) {
        const CT* SMG_RESTRICT pm = p + 2 * m * w + q;
        CT a = d[m * w + q];
        a = mul_add(wh, pm[0], a);
        a = mul_add(wf, pm[w], a);
        a = mul_add(wh, pm[2 * w], a);
        d[m * w + q] = a;
      }
    }
    const auto edge = [&](int I) {
      const Children ci = children_of(I, nf, true);
      CT* SMG_RESTRICT e = f + I * w;
      for (int t = 0; t < ci.count; ++t) {
        const CT wx = ci.idx[t] == 2 * I ? wf : wh;
        const CT* SMG_RESTRICT pi = s.row[r] + ci.idx[t] * w;
        for (std::int64_t q = 0; q < w; ++q) {
          e[q] = mul_add(wx, pi[q], e[q]);
        }
      }
    };
    edge(0);
    for (int I = a1; I < nc; ++I) {
      edge(I);
    }
  }
}

/// The transfer line primitive every prolongation kernel runs on (see
/// prolong_run); W = 1 runs a compile-time-width copy so the x runs
/// vectorize across points.
template <class CT, class LineFn>
void prolong_line(const Coarsening& c, int j, int k, int W, LineFn&& line,
                  CT* u) {
  if (W == 1) {
    prolong_run<1>(c, j, k, W, line, u);
  } else {
    prolong_run<0>(c, j, k, W, line, u);
  }
}

/// The transfer line primitive every restriction kernel runs on (see
/// restrict_run).
template <class CT, class LineFn>
void restrict_line(const Coarsening& c, int J, int K, int W, LineFn&& line,
                   CT* f) {
  if (W == 1) {
    restrict_run<1>(c, J, K, W, line, f);
  } else {
    restrict_run<0>(c, J, K, W, line, f);
  }
}

/// f = R r over the whole grid, W values per point: one restrict_line per
/// coarse line.  Each coarse dof is written by exactly one iteration, so the
/// loop parallelizes race-free with a result independent of the thread
/// count.
template <class CT>
void restrict_grid(const Coarsening& c, int W, const CT* rp, CT* fp) {
  const obs::KernelSpan span(obs::Kind::Restrict);
  const auto line = [&](int j, int k) { return rp + c.fine.idx(0, j, k) * W; };
#pragma omp parallel for collapse(2) schedule(static)
  for (int K = 0; K < c.coarse.nz; ++K) {
    for (int J = 0; J < c.coarse.ny; ++J) {
      restrict_line(c, J, K, W, line, fp + c.coarse.idx(0, J, K) * W);
    }
  }
}

/// u += P e over the whole grid, W values per point: one prolong_line per
/// fine line, each fine dof written by exactly one iteration.
template <class CT>
void prolong_grid(const Coarsening& c, int W, const CT* ep, CT* up) {
  const obs::KernelSpan span(obs::Kind::Prolong);
  const auto line = [&](int J, int K) {
    return ep + c.coarse.idx(0, J, K) * W;
  };
#pragma omp parallel for collapse(2) schedule(static)
  for (int k = 0; k < c.fine.nz; ++k) {
    for (int j = 0; j < c.fine.ny; ++j) {
      prolong_line(c, j, k, W, line, up + c.fine.idx(0, j, k) * W);
    }
  }
}

}  // namespace detail

/// f_c = R r_f with R = P^T, in gather form, bitwise independent of the
/// thread count.  Vectors are dof-indexed (block size bs).  The fused
/// residual_restrict (kernels/fused.hpp) runs the same line primitive on its
/// residual planes and so matches this bitwise.
template <class CT>
void restrict_to_coarse(const Coarsening& c, int bs, std::span<const CT> rf,
                        std::span<CT> fc) {
  SMG_CHECK(static_cast<std::int64_t>(rf.size()) == c.fine.size() * bs &&
                static_cast<std::int64_t>(fc.size()) == c.coarse.size() * bs,
            "restrict size mismatch");
  detail::restrict_grid(c, bs, rf.data(), fc.data());
}

/// Panel restriction: F_c = R R_f for all columns of the panel.  A panel
/// point is bs * kp contiguous values, so the same line primitive folds
/// every column exactly as restrict_to_coarse folds that column alone.
template <class CT>
void restrict_to_coarse_many(const Coarsening& c, int bs,
                             const MultiVector<CT>& rf, MultiVector<CT>& fc) {
  SMG_CHECK(rf.rows() == c.fine.size() * bs &&
                fc.rows() == c.coarse.size() * bs &&
                rf.padded_cols() == fc.padded_cols(),
            "restrict_many size mismatch");
  detail::restrict_grid(c, bs * rf.padded_cols(), rf.data(), fc.data());
}

/// u_f += P e_c: each fine line gathers from its coarse parents, bitwise
/// independent of the thread count.
template <class CT>
void prolong_add(const Coarsening& c, int bs, std::span<const CT> ec,
                 std::span<CT> uf) {
  SMG_CHECK(static_cast<std::int64_t>(uf.size()) == c.fine.size() * bs &&
                static_cast<std::int64_t>(ec.size()) == c.coarse.size() * bs,
            "prolong size mismatch");
  detail::prolong_grid(c, bs, ec.data(), uf.data());
}

/// Panel prolongation: U_f += P E_c for all columns; column c is bitwise
/// identical to prolong_add on that column.
template <class CT>
void prolong_add_many(const Coarsening& c, int bs, const MultiVector<CT>& ec,
                      MultiVector<CT>& uf) {
  SMG_CHECK(uf.rows() == c.fine.size() * bs &&
                ec.rows() == c.coarse.size() * bs &&
                uf.padded_cols() == ec.padded_cols(),
            "prolong_many size mismatch");
  detail::prolong_grid(c, bs * uf.padded_cols(), ec.data(), uf.data());
}

}  // namespace smg
