// Reference Galerkin product for the coarsening tests: the per-cell rule
// A_c(I, J-I) += rscale * R(I,i) * A(i, i+s) * P(i+s, J), evaluated one
// coarse cell at a time, with the stencil-collapse shortcut for interior
// cells of SOA inputs.  galerkin_coarsen must match it bit for bit.
#pragma once

#include <cmath>
#include <cstdlib>
#include <vector>

#include "core/transfer.hpp"
#include "sgdia/struct_matrix.hpp"
#include "util/common.hpp"

namespace smg::oracle {

/// Per-dimension lookup tables for the triple product, computed once per
/// coarsening instead of per cell (parents_of in the innermost loop used to
/// dominate the whole setup phase).
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

inline DimTables make_tables(int nf, int nc, bool coarsened) {
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
  for (int f = 0; f < nf; ++f) {
    const auto p = detail::parents_of(f, nc, coarsened);
    auto& d = t.ppar[static_cast<std::size_t>(f)];
    d.count = p.count;
    for (int q = 0; q < p.count; ++q) {
      d.ci[q] = p.idx[q];
      d.w[q] = p.w[q];
    }
  }
  return t;
}

/// The per-cell Galerkin product, in the layout of A.
inline StructMat<double> galerkin_coarsen_per_cell(const StructMat<double>& A,
                                                   const Coarsening& c) {
  SMG_CHECK(A.box() == c.fine, "coarsening geometry mismatch");
  const Box& fine = c.fine;
  const Box& coarse = c.coarse;
  const Stencil& st = A.stencil();
  const int bs = A.block_size();
  const int nd = st.ndiag();
  const std::int64_t block2 = static_cast<std::int64_t>(bs) * bs;

  StructMat<double> Ac(coarse, Stencil::make(Pattern::P3d27), bs, A.layout());
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
  const double rscale = c.restrict_scale();

  // Hoist the stencil offsets into flat arrays.
  int odx[32], ody[32], odz[32];
  SMG_CHECK(nd <= 32, "stencil wider than 3x3x3 is unsupported");
  for (int d = 0; d < nd; ++d) {
    odx[d] = st.offset(d).dx;
    ody[d] = st.offset(d).dy;
    odz[d] = st.offset(d).dz;
  }

  // ---- stencil collapse for interior coarse cells (StructMG-style) ----
  // Away from boundaries, every coarse cell applies the *same* linear map
  // from the fine stencil values in its 2I-neighborhood to its 27 coarse
  // entries.  Precompute that map once as a flat tuple list:
  //   read fine value at (cell 2I + t, diag d)  ->  scatter to coarse diag
  //   cd with weight w.
  // The generic per-cell path below remains for boundary cells (and non-SOA
  // chains), where clipping makes the weights cell-dependent.
  struct Read {
    std::int64_t aoff;  ///< value offset relative to block (2I, diag 0)
    int ntarget;
  };
  struct Target {
    int cd;
    double w;
  };
  std::vector<Read> reads;
  std::vector<Target> targets;
  const bool collapse_ok = A.layout() == Layout::SOA;
  if (collapse_ok) {
    // Relative P-parents of a fine offset g (in [-2,2]) for one dimension.
    const auto rel_parents = [](int g, bool coarsened, int out_ci[2],
                                double out_w[2]) {
      if (!coarsened) {
        out_ci[0] = g;
        out_w[0] = 1.0;
        return 1;
      }
      if ((g & 1) == 0) {
        out_ci[0] = g / 2;
        out_w[0] = 1.0;
        return 1;
      }
      // Odd offsets: round toward both neighbors with weight 1/2.  (g-1)/2
      // with C++ truncation handles negative g correctly for g in {-1, 1}:
      const int lo = (g - 1) / 2 + ((g < 0 && (g - 1) % 2 != 0) ? -1 : 0);
      out_ci[0] = lo;
      out_w[0] = 0.5;
      out_ci[1] = lo + 1;
      out_w[1] = 0.5;
      return 2;
    };
    const int tx0 = c.mask[0] ? -1 : 0, tx1 = c.mask[0] ? 1 : 0;
    const int ty0 = c.mask[1] ? -1 : 0, ty1 = c.mask[1] ? 1 : 0;
    const int tz0 = c.mask[2] ? -1 : 0, tz1 = c.mask[2] ? 1 : 0;
    for (int tzv = tz0; tzv <= tz1; ++tzv) {
      for (int tyv = ty0; tyv <= ty1; ++tyv) {
        for (int txv = tx0; txv <= tx1; ++txv) {
          const double wr =
              rscale * (txv == 0 ? 1.0 : 0.5) * (tyv == 0 ? 1.0 : 0.5) *
              (tzv == 0 ? 1.0 : 0.5);
          const std::int64_t foff =
              txv + static_cast<std::int64_t>(fine.nx) *
                        (tyv + static_cast<std::int64_t>(fine.ny) * tzv);
          for (int d = 0; d < nd; ++d) {
            Read rd;
            rd.aoff =
                (static_cast<std::int64_t>(d) * A.ncells() + foff) * block2;
            rd.ntarget = 0;
            int cix[2], ciy[2], ciz[2];
            double wx[2], wy[2], wz[2];
            const int npx =
                rel_parents(txv + odx[d], c.mask[0], cix, wx);
            const int npy =
                rel_parents(tyv + ody[d], c.mask[1], ciy, wy);
            const int npz =
                rel_parents(tzv + odz[d], c.mask[2], ciz, wz);
            for (int a = 0; a < npz; ++a) {
              for (int bq = 0; bq < npy; ++bq) {
                for (int e = 0; e < npx; ++e) {
                  SMG_CHECK(std::abs(cix[e]) <= 1 && std::abs(ciy[bq]) <= 1 &&
                                std::abs(ciz[a]) <= 1,
                            "collapse target outside 3d27");
                  targets.push_back(
                      {cdiag_of[ciz[a] + 1][ciy[bq] + 1][cix[e] + 1],
                       wr * wz[a] * wy[bq] * wx[e]});
                  ++rd.ntarget;
                }
              }
            }
            reads.push_back(rd);
          }
        }
      }
    }
  }
  // Interior range where the collapse map is exact (no clipping anywhere).
  const auto interior = [&](int idx, int nc_d) {
    return idx >= 1 && idx <= nc_d - 2;
  };

#pragma omp parallel for collapse(2) schedule(static)
  for (int ck = 0; ck < coarse.nz; ++ck) {
    for (int cj = 0; cj < coarse.ny; ++cj) {
      const auto& sz = tz.rsup[static_cast<std::size_t>(ck)];
      const auto& sy = ty.rsup[static_cast<std::size_t>(cj)];
      for (int ci = 0; ci < coarse.nx; ++ci) {
        const std::int64_t ccell = coarse.idx(ci, cj, ck);
        if (collapse_ok && interior(ci, coarse.nx) &&
            interior(cj, coarse.ny) && interior(ck, coarse.nz)) {
          const int fi = c.mask[0] ? 2 * ci : ci;
          const int fj = c.mask[1] ? 2 * cj : cj;
          const int fk = c.mask[2] ? 2 * ck : ck;
          const std::int64_t fbase = fine.idx(fi, fj, fk) * block2;
          double acc[27 * 64];
          const int nacc = 27 * static_cast<int>(block2);
          for (int q = 0; q < nacc; ++q) {
            acc[q] = 0.0;
          }
          const double* SMG_RESTRICT av = A.data();
          const Target* SMG_RESTRICT tg = targets.data();
          std::size_t tpos = 0;
          for (const Read& rd : reads) {
            const double* SMG_RESTRICT ablk = av + fbase + rd.aoff;
            for (int q = 0; q < rd.ntarget; ++q, ++tpos) {
              const int cd = tg[tpos].cd;
              const double w = tg[tpos].w;
              for (std::int64_t bb = 0; bb < block2; ++bb) {
                acc[cd * block2 + bb] += w * ablk[bb];
              }
            }
          }
          for (int cd = 0; cd < 27; ++cd) {
            double* cblk = Ac.data() + Ac.block_index(ccell, cd);
            for (std::int64_t bb = 0; bb < block2; ++bb) {
              cblk[bb] = acc[cd * block2 + bb];
            }
          }
          continue;
        }
        const auto& sx = tx.rsup[static_cast<std::size_t>(ci)];
        // A_c(I, J-I) += rscale * R(I,i) * A(i, i+s) * P(i+s, J)
        for (int a = 0; a < sz.count; ++a) {
          const int fk = sz.fi[a];
          for (int bq = 0; bq < sy.count; ++bq) {
            const int fj = sy.fi[bq];
            const double wzy = sz.w[a] * sy.w[bq];
            for (int e = 0; e < sx.count; ++e) {
              const int fi = sx.fi[e];
              const double wr = rscale * wzy * sx.w[e];
              const std::int64_t fcell = fine.idx(fi, fj, fk);
              for (int d = 0; d < nd; ++d) {
                const int gi = fi + odx[d];
                const int gj = fj + ody[d];
                const int gk = fk + odz[d];
                if (static_cast<unsigned>(gi) >=
                        static_cast<unsigned>(fine.nx) ||
                    static_cast<unsigned>(gj) >=
                        static_cast<unsigned>(fine.ny) ||
                    static_cast<unsigned>(gk) >=
                        static_cast<unsigned>(fine.nz)) {
                  continue;
                }
                const double* ablk = A.data() + A.block_index(fcell, d);
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
                      const double w = wr * wzy2 * pi.w[qc];
                      const int cd = cdiag_of[ddz + 1][ddy + 1][ddx + 1];
                      double* cblk = Ac.data() + Ac.block_index(ccell, cd);
                      for (std::int64_t q = 0; q < block2; ++q) {
                        cblk[q] += w * ablk[q];
                      }
                    }
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  return Ac;
}

}  // namespace smg::oracle
