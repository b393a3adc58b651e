// Galerkin coarsening validated against an explicit dense R A P product
// and, bit for bit, against the per-cell reference rule.
#include <gtest/gtest.h>
#include <omp.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "core/coarsen.hpp"
#include "galerkin_oracle.hpp"
#include "problems/problem.hpp"
#include "util/rng.hpp"

namespace smg {
namespace {

/// Dense n_f x n_c prolongation matrix from the same parent rule the
/// transfer operators use (per dof, block size bs).
std::vector<double> dense_prolongation(const Coarsening& c, int bs) {
  const std::int64_t nf = c.fine.size() * bs;
  const std::int64_t nc = c.coarse.size() * bs;
  std::vector<double> P(static_cast<std::size_t>(nf * nc), 0.0);
  for (int k = 0; k < c.fine.nz; ++k) {
    const auto pk = detail::parents_of(k, c.coarse.nz, c.mask[2]);
    for (int j = 0; j < c.fine.ny; ++j) {
      const auto pj = detail::parents_of(j, c.coarse.ny, c.mask[1]);
      for (int i = 0; i < c.fine.nx; ++i) {
        const auto pi = detail::parents_of(i, c.coarse.nx, c.mask[0]);
        const std::int64_t frow = c.fine.idx(i, j, k);
        for (int a = 0; a < pk.count; ++a) {
          for (int b = 0; b < pj.count; ++b) {
            for (int e = 0; e < pi.count; ++e) {
              const double w = pk.w[a] * pj.w[b] * pi.w[e];
              const std::int64_t ccol =
                  c.coarse.idx(pi.idx[e], pj.idx[b], pk.idx[a]);
              for (int q = 0; q < bs; ++q) {
                P[static_cast<std::size_t>((frow * bs + q) * nc + ccol * bs +
                                           q)] += w;
              }
            }
          }
        }
      }
    }
  }
  return P;
}

std::vector<double> dense_of(const StructMat<double>& A) {
  const std::int64_t n = A.nrows();
  std::vector<double> D(static_cast<std::size_t>(n * n), 0.0);
  const Box& box = A.box();
  const Stencil& st = A.stencil();
  const int bs = A.block_size();
  for (int k = 0; k < box.nz; ++k) {
    for (int j = 0; j < box.ny; ++j) {
      for (int i = 0; i < box.nx; ++i) {
        const std::int64_t cell = box.idx(i, j, k);
        for (int d = 0; d < st.ndiag(); ++d) {
          const Offset& o = st.offset(d);
          if (!box.contains(i + o.dx, j + o.dy, k + o.dz)) {
            continue;
          }
          const std::int64_t nbr = box.idx(i + o.dx, j + o.dy, k + o.dz);
          for (int br = 0; br < bs; ++br) {
            for (int bc = 0; bc < bs; ++bc) {
              D[static_cast<std::size_t>((cell * bs + br) * n + nbr * bs +
                                         bc)] = A.at(cell, d, br, bc);
            }
          }
        }
      }
    }
  }
  return D;
}

StructMat<double> random_matrix(const Box& box, Pattern p, int bs,
                                std::uint64_t seed) {
  StructMat<double> A(box, Stencil::make(p), bs, Layout::SOA);
  Rng rng(seed);
  for (auto& v : A.values()) {
    v = rng.uniform(-1.0, 1.0);
  }
  A.clear_out_of_box();
  return A;
}

struct CoarsenCase {
  Box fine;
  Pattern pattern;
  int bs;
};

class CoarsenParam : public ::testing::TestWithParam<CoarsenCase> {};

TEST_P(CoarsenParam, MatchesDenseTripleProduct) {
  const auto& cc = GetParam();
  auto A = random_matrix(cc.fine, cc.pattern, cc.bs, 77);
  const Coarsening c = Coarsening::make(cc.fine, 5);
  ASSERT_TRUE(c.any());
  const StructMat<double> Ac = galerkin_coarsen(A, c);
  EXPECT_EQ(Ac.stencil().ndiag(), 27);
  EXPECT_EQ(Ac.box(), c.coarse);

  const auto P = dense_prolongation(c, cc.bs);
  const auto D = dense_of(A);
  const std::int64_t nf = c.fine.size() * cc.bs;
  const std::int64_t nc = c.coarse.size() * cc.bs;

  // T = A * P  (nf x nc), then R A P = P^T T (nc x nc).
  std::vector<double> T(static_cast<std::size_t>(nf * nc), 0.0);
  for (std::int64_t r = 0; r < nf; ++r) {
    for (std::int64_t q = 0; q < nf; ++q) {
      const double a = D[static_cast<std::size_t>(r * nf + q)];
      if (a == 0.0) {
        continue;
      }
      for (std::int64_t col = 0; col < nc; ++col) {
        T[static_cast<std::size_t>(r * nc + col)] +=
            a * P[static_cast<std::size_t>(q * nc + col)];
      }
    }
  }
  std::vector<double> RAP(static_cast<std::size_t>(nc * nc), 0.0);
  const double rscale = c.restrict_scale();  // R = rscale * P^T
  for (std::int64_t q = 0; q < nf; ++q) {
    for (std::int64_t r = 0; r < nc; ++r) {
      const double p = rscale * P[static_cast<std::size_t>(q * nc + r)];
      if (p == 0.0) {
        continue;
      }
      for (std::int64_t col = 0; col < nc; ++col) {
        RAP[static_cast<std::size_t>(r * nc + col)] +=
            p * T[static_cast<std::size_t>(q * nc + col)];
      }
    }
  }

  const auto Dc = dense_of(Ac);
  for (std::int64_t r = 0; r < nc; ++r) {
    for (std::int64_t col = 0; col < nc; ++col) {
      EXPECT_NEAR(Dc[static_cast<std::size_t>(r * nc + col)],
                  RAP[static_cast<std::size_t>(r * nc + col)], 1e-11)
          << "entry (" << r << "," << col << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CoarsenParam,
    ::testing::Values(CoarsenCase{Box{6, 6, 6}, Pattern::P3d7, 1},
                      CoarsenCase{Box{7, 7, 7}, Pattern::P3d7, 1},
                      CoarsenCase{Box{6, 5, 7}, Pattern::P3d19, 1},
                      CoarsenCase{Box{5, 6, 5}, Pattern::P3d27, 1},
                      CoarsenCase{Box{6, 6, 3}, Pattern::P3d7, 1},  // semi
                      CoarsenCase{Box{5, 5, 5}, Pattern::P3d7, 2},
                      CoarsenCase{Box{5, 5, 5}, Pattern::P3d15, 3}));

TEST(Coarsen, PreservesSymmetry) {
  // Galerkin with R = P^T maps symmetric A to symmetric A_c.
  auto A = random_matrix(Box{7, 6, 6}, Pattern::P3d7, 1, 31);
  // Symmetrize A first.
  const Box& box = A.box();
  const Stencil& st = A.stencil();
  for (int k = 0; k < box.nz; ++k) {
    for (int j = 0; j < box.ny; ++j) {
      for (int i = 0; i < box.nx; ++i) {
        for (int d = 0; d < st.ndiag(); ++d) {
          const Offset& o = st.offset(d);
          if (!o.before_center() || !box.contains(i + o.dx, j + o.dy,
                                                  k + o.dz)) {
            continue;
          }
          const int dt = st.find(-o.dx, -o.dy, -o.dz);
          A.at(box.idx(i + o.dx, j + o.dy, k + o.dz), dt) =
              A.at(box.idx(i, j, k), d);
        }
      }
    }
  }
  const Coarsening c = Coarsening::make(box, 5);
  const auto Ac = galerkin_coarsen(A, c);
  const auto Dc = dense_of(Ac);
  const std::int64_t n = Ac.nrows();
  for (std::int64_t r = 0; r < n; ++r) {
    for (std::int64_t cidx = 0; cidx < n; ++cidx) {
      EXPECT_NEAR(Dc[static_cast<std::size_t>(r * n + cidx)],
                  Dc[static_cast<std::size_t>(cidx * n + r)], 1e-12);
    }
  }
}

TEST(Coarsen, PoissonCoarseGridIsStillMMatrixLikeInInterior) {
  // 7-point Poisson: coarse diag positive everywhere; off-diagonals stay
  // non-positive at interior coarse cells.  (Boundary-truncated half-weight
  // interpolation can produce small positive boundary entries — a known
  // property of Galerkin operators with Dirichlet truncation, not a bug.)
  const Box box{9, 9, 9};
  StructMat<double> A(box, Stencil::make(Pattern::P3d7), 1, Layout::SOA);
  const int center = A.stencil().center();
  for (std::int64_t cell = 0; cell < A.ncells(); ++cell) {
    for (int d = 0; d < A.ndiag(); ++d) {
      A.at(cell, d) = d == center ? 6.0 : -1.0;
    }
  }
  A.clear_out_of_box();
  const Coarsening c = Coarsening::make(box, 5);
  const auto Ac = galerkin_coarsen(A, c);
  const int ccenter = Ac.stencil().center();
  const Box& cb = Ac.box();
  for (int k = 0; k < cb.nz; ++k) {
    for (int j = 0; j < cb.ny; ++j) {
      for (int i = 0; i < cb.nx; ++i) {
        const std::int64_t cell = cb.idx(i, j, k);
        EXPECT_GT(Ac.at(cell, ccenter), 0.0);
        const bool interior = i > 0 && i < cb.nx - 1 && j > 0 &&
                              j < cb.ny - 1 && k > 0 && k < cb.nz - 1;
        for (int d = 0; d < Ac.ndiag(); ++d) {
          if (d == ccenter) {
            continue;
          }
          if (interior) {
            EXPECT_LE(Ac.at(cell, d), 1e-12);
          } else {
            // Boundary artifacts stay small relative to the diagonal.
            EXPECT_LE(Ac.at(cell, d), 0.05 * Ac.at(cell, ccenter));
          }
        }
      }
    }
  }
}

TEST(Coarsen, GridShrinksByRoughlyEightfold) {
  auto A = random_matrix(Box{17, 17, 17}, Pattern::P3d7, 1, 5);
  const Coarsening c = Coarsening::make(A.box(), 5);
  const auto Ac = galerkin_coarsen(A, c);
  EXPECT_EQ(Ac.box(), (Box{9, 9, 9}));
  EXPECT_LT(static_cast<double>(Ac.ncells()),
            static_cast<double>(A.ncells()) / 6.0);
}

/// Coarsening of `fine` along exactly the dims in `mask`, with the extents
/// Coarsening::make gives them.
Coarsening masked(const Box& fine, std::array<bool, 3> mask) {
  Coarsening c;
  c.fine = fine;
  c.mask = mask;
  c.coarse = Box{mask[0] ? (fine.nx + 1) / 2 : fine.nx,
                 mask[1] ? (fine.ny + 1) / 2 : fine.ny,
                 mask[2] ? (fine.nz + 1) / 2 : fine.nz};
  return c;
}

/// galerkin_coarsen(A, c) and the per-cell oracle agree on every stored
/// byte (same layout, same values, signed zeros included).
::testing::AssertionResult matches_oracle(const StructMat<double>& A,
                                          const Coarsening& c) {
  const StructMat<double> got = galerkin_coarsen(A, c);
  const StructMat<double> want = oracle::galerkin_coarsen_per_cell(A, c);
  if (got.layout() != want.layout() || !(got.box() == want.box()) ||
      got.values().size() != want.values().size()) {
    return ::testing::AssertionFailure() << "shape or layout differs";
  }
  const auto g = got.values();
  const auto w = want.values();
  for (std::size_t q = 0; q < g.size(); ++q) {
    if (std::memcmp(&g[q], &w[q], sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "value " << q << " of " << g.size() << ": " << g[q]
             << " != oracle " << w[q];
    }
  }
  return ::testing::AssertionSuccess();
}

constexpr Layout kLayouts[] = {Layout::AOS, Layout::SOA, Layout::SOAL};

/// Runs `body` at 1 and at 4 OpenMP threads, restoring the thread count.
template <class F>
void at_1_and_4_threads(F&& body) {
  const int saved = omp_get_max_threads();
  for (const int nt : {1, 4}) {
    omp_set_num_threads(nt);
    body(nt);
  }
  omp_set_num_threads(saved);
}

TEST(CoarsenOracle, EveryProblemLayoutAndChainLevel) {
  // Each generator's whole coarsening chain, isotropic (SOA) and
  // coupling-aware (every layout).  min_dim 2 walks fine extents
  // 11 -> 6 -> 3 -> 2 -> 1 (odd fine extents, coarse extents 3, 2 and 1);
  // the coupling-aware chain leaves weak dims of the anisotropic problems
  // uncoarsened.
  at_1_and_4_threads([](int nt) {
    for (const std::string& name : problem_names()) {
      const Problem p = make_problem(name, Box{11, 9, 7});
      for (const Layout layout : kLayouts) {
        for (const bool aware : {false, true}) {
          if (!aware && layout != Layout::SOA) {
            continue;
          }
          StructMat<double> A = convert<double>(p.A, layout);
          for (int lev = 0; A.ncells() > 1; ++lev) {
            const Coarsening c =
                aware ? Coarsening::make(A.box(), 2, coupling_strengths(A),
                                         0.1)
                      : Coarsening::make(A.box(), 2);
            if (!c.any()) {
              break;
            }
            EXPECT_TRUE(matches_oracle(A, c))
                << name << " layout " << to_string(layout)
                << (aware ? " coupling-aware" : " isotropic") << " level "
                << lev << " threads " << nt;
            A = galerkin_coarsen(A, c);
          }
        }
      }
    }
  });
}

TEST(CoarsenOracle, EveryMaskBlockSizeAndSmallExtent) {
  // Random SOA operators (no symmetry, no sign pattern) on boxes whose
  // coarse extents are 1, 2 and 3, under all seven coarsening masks.  The
  // stencil rotates with the (box, block size) pair.  Other layouts only
  // add the SOA round trip, which the chain test above covers.
  const Box boxes[] = {Box{1, 2, 5}, Box{3, 4, 6}, Box{6, 5, 2},
                       Box{7, 3, 4}, Box{5, 6, 7}, Box{2, 1, 3}};
  const Pattern patterns[] = {Pattern::P3d7, Pattern::P3d19, Pattern::P3d27};
  at_1_and_4_threads([&](int nt) {
    std::uint64_t seed = 1;
    for (const Box& box : boxes) {
      for (const int bs : {1, 3, 4}) {
        const Pattern pat = patterns[(seed + static_cast<unsigned>(bs)) % 3];
        const StructMat<double> base = random_matrix(box, pat, bs, ++seed);
        for (int m = 1; m < 8; ++m) {
          const Coarsening c =
              masked(box, {(m & 1) != 0, (m & 2) != 0, (m & 4) != 0});
          EXPECT_TRUE(matches_oracle(base, c))
              << "box " << box.nx << "x" << box.ny << "x" << box.nz << " bs "
              << bs << " ndiag " << base.ndiag() << " mask " << m
              << " threads " << nt;
        }
      }
    }
  });
}

TEST(CoarsenDeathTest, RejectsExtentsThatDoNotFollowTheMask) {
  const auto A = random_matrix(Box{6, 6, 6}, Pattern::P3d7, 1, 3);
  Coarsening c = Coarsening::make(A.box(), 2);
  c.coarse.nx = 2;
  EXPECT_DEATH(galerkin_coarsen(A, c), "coarsening mask");
}

}  // namespace
}  // namespace smg
