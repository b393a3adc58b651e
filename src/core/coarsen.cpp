#include "core/coarsen.hpp"

#include <cmath>
#include <cstdlib>
#include <vector>

#include "util/common.hpp"

namespace smg {

namespace {

/// Per-dimension lookup tables for the per-cell rule, computed once per
/// coarsening instead of per cell.
struct DimTables {
  /// R-support of coarse index c: up to 3 (fine index, weight) pairs.
  struct RSup {
    int fi[3];
    double w[3];
    int count;
  };
  /// P-parents of fine index f: up to 2 (coarse index, weight) pairs.
  struct PPar {
    int ci[2];
    double w[2];
    int count;
  };
  std::vector<RSup> rsup;   // size: coarse extent
  std::vector<PPar> ppar;   // size: fine extent
};

DimTables make_tables(int nf, int nc, bool coarsened) {
  DimTables t;
  t.rsup.resize(static_cast<std::size_t>(nc));
  t.ppar.resize(static_cast<std::size_t>(nf));
  for (int c = 0; c < nc; ++c) {
    auto& s = t.rsup[static_cast<std::size_t>(c)];
    s.count = 0;
    if (!coarsened) {
      s.fi[0] = c;
      s.w[0] = 1.0;
      s.count = 1;
      continue;
    }
    const int center = 2 * c;
    const int offs[3] = {center - 1, center, center + 1};
    const double ws[3] = {0.5, 1.0, 0.5};
    for (int q = 0; q < 3; ++q) {
      if (offs[q] >= 0 && offs[q] < nf) {
        s.fi[s.count] = offs[q];
        s.w[s.count] = ws[q];
        ++s.count;
      }
    }
  }
  // P-parents are the transpose of the R-supports (R = P^T up to scale):
  // fine index f's parents are the coarse indices whose support holds f,
  // ascending, with the same weights.
  for (int c = 0; c < nc; ++c) {
    const auto& s = t.rsup[static_cast<std::size_t>(c)];
    for (int q = 0; q < s.count; ++q) {
      auto& d = t.ppar[static_cast<std::size_t>(s.fi[q])];
      d.ci[d.count] = c;
      d.w[d.count] = s.w[q];
      ++d.count;
    }
  }
  return t;
}

/// Clipping class of coarse index c along one dimension of extent nc:
/// bit 0 = low end, bit 1 = high end, 0 = interior.  Extent 1 makes the
/// only index both ends.  With the Coarsening::make extents (nf = 2nc-1 or
/// 2nc when halved, nf = nc otherwise) no interior index clips its
/// R-support, its fine neighbors or their P-parents, so every index of one
/// class has the same per-cell rule up to translation.
int clip_class(int c, int nc) noexcept {
  return (c == 0 ? 1 : 0) | (c == nc - 1 ? 2 : 0);
}

/// A coarse index of class `cls` (which must occur at extent nc).
int representative(int cls, int nc) noexcept {
  return cls == 0 ? 1 : (cls == 2 ? nc - 1 : 0);
}

/// One `A_c += w * A` contribution, as value offsets from the first fine
/// block and the first coarse block of the coarse cell it belongs to.
struct Term {
  std::int64_t src;
  std::int64_t dst;
  double w;
};

/// The per-cell Galerkin rule on coarse cell (ci,cj,ck):
///   A_c(I, J-I) += rscale * R(I,i) * A(i, i+s) * P(i+s, J)
/// passed to `emit` as Terms in its summation order (R-support z,y,x; fine
/// stencil entry; P-parents z,y,x).  A is SOA.
template <class Emit>
void cell_terms(const StructMat<double>& A, const Coarsening& c,
                const DimTables& tx, const DimTables& ty, const DimTables& tz,
                const int (&cdiag_of)[3][3][3], int ci, int cj, int ck,
                Emit&& emit) {
  const Box& fine = c.fine;
  const Stencil& st = A.stencil();
  const std::int64_t block2 =
      static_cast<std::int64_t>(A.block_size()) * A.block_size();
  const double rscale = c.restrict_scale();
  const std::int64_t fbase =
      fine.idx(c.mask[0] ? 2 * ci : ci, c.mask[1] ? 2 * cj : cj,
               c.mask[2] ? 2 * ck : ck);
  const auto& sz = tz.rsup[static_cast<std::size_t>(ck)];
  const auto& sy = ty.rsup[static_cast<std::size_t>(cj)];
  const auto& sx = tx.rsup[static_cast<std::size_t>(ci)];
  for (int a = 0; a < sz.count; ++a) {
    const int fk = sz.fi[a];
    for (int bq = 0; bq < sy.count; ++bq) {
      const int fj = sy.fi[bq];
      const double wzy = sz.w[a] * sy.w[bq];
      for (int e = 0; e < sx.count; ++e) {
        const int fi = sx.fi[e];
        const double wr = rscale * wzy * sx.w[e];
        const std::int64_t fcell = fine.idx(fi, fj, fk);
        for (int d = 0; d < st.ndiag(); ++d) {
          const Offset& o = st.offset(d);
          const int gi = fi + o.dx;
          const int gj = fj + o.dy;
          const int gk = fk + o.dz;
          if (!fine.contains(gi, gj, gk)) {
            continue;
          }
          const std::int64_t src =
              (static_cast<std::int64_t>(d) * fine.size() + fcell - fbase) *
              block2;
          const auto& pi = tx.ppar[static_cast<std::size_t>(gi)];
          const auto& pj = ty.ppar[static_cast<std::size_t>(gj)];
          const auto& pk = tz.ppar[static_cast<std::size_t>(gk)];
          for (int qa = 0; qa < pk.count; ++qa) {
            const int ddz = pk.ci[qa] - ck;
            if (ddz < -1 || ddz > 1) {
              continue;
            }
            for (int qb = 0; qb < pj.count; ++qb) {
              const int ddy = pj.ci[qb] - cj;
              if (ddy < -1 || ddy > 1) {
                continue;
              }
              const double wzy2 = pk.w[qa] * pj.w[qb];
              for (int qc = 0; qc < pi.count; ++qc) {
                const int ddx = pi.ci[qc] - ci;
                if (ddx < -1 || ddx > 1) {
                  continue;
                }
                const int cd = cdiag_of[ddz + 1][ddy + 1][ddx + 1];
                emit(Term{src, cd * c.coarse.size() * block2,
                          wr * wzy2 * pi.w[qc]});
              }
            }
          }
        }
      }
    }
  }
}

/// dst[i] += w * src[i * S] over one coarse x-run (scalar blocks).
template <int S>
void line_axpy(double* SMG_RESTRICT dst, const double* SMG_RESTRICT src,
               double w, std::int64_t n) noexcept {
  for (std::int64_t i = 0; i < n; ++i) {
    dst[i] += w * src[i * S];
  }
}

/// Block variant: block i of dst gains w times the block at i * sstride.
void line_axpy_blocks(double* SMG_RESTRICT dst,
                      const double* SMG_RESTRICT src, double w,
                      std::int64_t n, std::int64_t sstride,
                      std::int64_t block2) noexcept {
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t q = 0; q < block2; ++q) {
      dst[i * block2 + q] += w * src[i * sstride + q];
    }
  }
}

}  // namespace

std::array<double, 3> coupling_strengths(const StructMat<double>& A) {
  std::array<double, 3> s = {0.0, 0.0, 0.0};
  const Stencil& st = A.stencil();
  const int bs = A.block_size();
  const std::int64_t block2 = static_cast<std::int64_t>(bs) * bs;
  for (int d = 0; d < st.ndiag(); ++d) {
    const Offset& o = st.offset(d);
    const int l1 =
        std::abs(int(o.dx)) + std::abs(int(o.dy)) + std::abs(int(o.dz));
    if (l1 != 1) {
      continue;  // center, edge, and corner entries carry mixed directions
    }
    const int dim = o.dx != 0 ? 0 : (o.dy != 0 ? 1 : 2);
    double mass = 0.0;
    for (std::int64_t cell = 0; cell < A.ncells(); ++cell) {
      const double* blk = A.data() + A.block_index(cell, d);
      for (std::int64_t q = 0; q < block2; ++q) {
        mass += std::abs(blk[q]);
      }
    }
    s[static_cast<std::size_t>(dim)] += mass;
  }
  return s;
}

StructMat<double> galerkin_coarsen(const StructMat<double>& A,
                                   const Coarsening& c) {
  SMG_CHECK(A.box() == c.fine, "coarsening geometry mismatch");
  const Box& fine = c.fine;
  const Box& coarse = c.coarse;
  const auto halved = [](int nf, int nc, bool m) {
    return nc == (m ? (nf + 1) / 2 : nf);
  };
  SMG_CHECK(halved(fine.nx, coarse.nx, c.mask[0]) &&
                halved(fine.ny, coarse.ny, c.mask[1]) &&
                halved(fine.nz, coarse.nz, c.mask[2]),
            "coarse extents do not follow the coarsening mask");
  if (A.layout() != Layout::SOA) {
    // The line kernel walks SOA diagonals; layout changes are exact copies.
    return convert<double>(
        galerkin_coarsen(convert<double>(A, Layout::SOA), c), A.layout());
  }
  const int bs = A.block_size();
  const std::int64_t block2 = static_cast<std::int64_t>(bs) * bs;

  StructMat<double> Ac(coarse, Stencil::make(Pattern::P3d27), bs, Layout::SOA);
  const Stencil& cst = Ac.stencil();

  // Coarse offset (dx,dy,dz) in {-1,0,1}^3 -> index in the 3d27 stencil.
  int cdiag_of[3][3][3];
  for (int dz = -1; dz <= 1; ++dz) {
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dx = -1; dx <= 1; ++dx) {
        cdiag_of[dz + 1][dy + 1][dx + 1] = cst.find(dx, dy, dz);
        SMG_CHECK(cdiag_of[dz + 1][dy + 1][dx + 1] >= 0, "3d27 incomplete");
      }
    }
  }

  const DimTables tx = make_tables(fine.nx, coarse.nx, c.mask[0]);
  const DimTables ty = make_tables(fine.ny, coarse.ny, c.mask[1]);
  const DimTables tz = make_tables(fine.nz, coarse.nz, c.mask[2]);

  // One term table per occurring (x, y, z) clipping class, built by the
  // per-cell rule on a representative cell: every cell of a class applies
  // the same terms at the same offsets from its own fine and coarse base.
  const auto occurs = [](int cls, int nc) {
    const int rep = representative(cls, nc);
    return rep < nc && clip_class(rep, nc) == cls;
  };
  std::vector<Term> table[64];
  for (int k = 0; k < 64; ++k) {
    const int cx = k & 3, cy = (k >> 2) & 3, cz = k >> 4;
    if (occurs(cx, coarse.nx) && occurs(cy, coarse.ny) &&
        occurs(cz, coarse.nz)) {
      cell_terms(A, c, tx, ty, tz, cdiag_of, representative(cx, coarse.nx),
                 representative(cy, coarse.ny), representative(cz, coarse.nz),
                 [&](const Term& t) { table[k].push_back(t); });
    }
  }

  // Runs of equal x class along a coarse x-line: low end, interior, high.
  struct Run {
    int x0, x1, cls;
  };
  std::vector<Run> runs;
  for (int ci = 0; ci < coarse.nx; ++ci) {
    const int cls = clip_class(ci, coarse.nx);
    if (runs.empty() || runs.back().cls != cls) {
      runs.push_back({ci, ci, cls});
    }
    runs.back().x1 = ci + 1;
  }

  // Each term is a strided axpy along the coarse x-line: every coarse entry
  // receives its terms in the per-cell order, so the result is bitwise the
  // per-cell product's at any thread count.
  const std::int64_t sstride = (c.mask[0] ? 2 : 1) * block2;
  const double* av = A.data();
  double* acv = Ac.data();
#pragma omp parallel for collapse(2) schedule(static)
  for (int ck = 0; ck < coarse.nz; ++ck) {
    for (int cj = 0; cj < coarse.ny; ++cj) {
      const int cyz =
          4 * (clip_class(cj, coarse.ny) + 4 * clip_class(ck, coarse.nz));
      const int fj = c.mask[1] ? 2 * cj : cj;
      const int fk = c.mask[2] ? 2 * ck : ck;
      for (const Run& run : runs) {
        const double* a =
            av + fine.idx(c.mask[0] ? 2 * run.x0 : run.x0, fj, fk) * block2;
        double* ac = acv + coarse.idx(run.x0, cj, ck) * block2;
        const std::int64_t n = run.x1 - run.x0;
        for (const Term& t : table[run.cls + cyz]) {
          if (block2 != 1) {
            line_axpy_blocks(ac + t.dst, a + t.src, t.w, n, sstride, block2);
          } else if (c.mask[0]) {
            line_axpy<2>(ac + t.dst, a + t.src, t.w, n);
          } else {
            line_axpy<1>(ac + t.dst, a + t.src, t.w, n);
          }
        }
      }
    }
  }
  return Ac;
}

}  // namespace smg
