// Transfer operator tests: geometry, R = P^T duality, constant preservation,
// gather/scatter equivalence, and thread-count invariance.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#if defined(_OPENMP)
#include <omp.h>
#endif

#include "core/transfer.hpp"
#include "transfer_oracle.hpp"
#include "util/aligned.hpp"
#include "util/rng.hpp"

namespace smg {
namespace {

TEST(Coarsening, HalvesLongDimsOnly) {
  const Coarsening c = Coarsening::make(Box{9, 8, 3}, 5);
  EXPECT_TRUE(c.mask[0]);
  EXPECT_TRUE(c.mask[1]);
  EXPECT_FALSE(c.mask[2]);  // 3 < min_dim
  EXPECT_EQ(c.coarse.nx, 5);
  EXPECT_EQ(c.coarse.ny, 4);
  EXPECT_EQ(c.coarse.nz, 3);
  EXPECT_TRUE(c.any());
}

TEST(Coarsening, StopsWhenAllDimsShort) {
  const Coarsening c = Coarsening::make(Box{3, 4, 2}, 5);
  EXPECT_FALSE(c.any());
}

TEST(Transfer, ProlongOfConstantIsConstantInInterior) {
  // Trilinear interpolation reproduces constants wherever all parents exist.
  const Coarsening c = Coarsening::make(Box{9, 9, 9}, 5);
  avec<double> ec(static_cast<std::size_t>(c.coarse.size()), 1.0);
  avec<double> uf(static_cast<std::size_t>(c.fine.size()), 0.0);
  prolong_add<double>(c, 1, {ec.data(), ec.size()}, {uf.data(), uf.size()});
  for (int k = 0; k < c.fine.nz; ++k) {
    for (int j = 0; j < c.fine.ny; ++j) {
      for (int i = 0; i < c.fine.nx; ++i) {
        EXPECT_NEAR(uf[static_cast<std::size_t>(c.fine.idx(i, j, k))], 1.0,
                    1e-14)
            << i << "," << j << "," << k;
      }
    }
  }
}

TEST(Transfer, ProlongAccumulates) {
  const Coarsening c = Coarsening::make(Box{5, 5, 5}, 5);
  avec<double> ec(static_cast<std::size_t>(c.coarse.size()), 2.0);
  avec<double> uf(static_cast<std::size_t>(c.fine.size()), 10.0);
  prolong_add<double>(c, 1, {ec.data(), ec.size()}, {uf.data(), uf.size()});
  EXPECT_NEAR(uf[0], 12.0, 1e-14);  // corner fine point is a coarse point
}

TEST(Transfer, RestrictionIsScaledTransposeOfProlongation) {
  // <R r, e>_coarse == restrict_scale * <r, P e>_fine for random vectors:
  // verifies R = (1/2^d) P^T including every boundary-clipping case.
  for (const Box fine : {Box{8, 7, 6}, Box{9, 9, 9}, Box{6, 3, 10}}) {
    const Coarsening c = Coarsening::make(fine, 5);
    for (int bs : {1, 3}) {
      Rng rng(1234);
      const std::size_t nf = static_cast<std::size_t>(fine.size() * bs);
      const std::size_t nc =
          static_cast<std::size_t>(c.coarse.size() * bs);
      avec<double> r(nf), e(nc), Rr(nc), Pe(nf, 0.0);
      for (auto& v : r) {
        v = rng.uniform(-1.0, 1.0);
      }
      for (auto& v : e) {
        v = rng.uniform(-1.0, 1.0);
      }
      restrict_to_coarse<double>(c, bs, {r.data(), nf}, {Rr.data(), nc});
      prolong_add<double>(c, bs, {e.data(), nc}, {Pe.data(), nf});
      double lhs = 0.0, rhs = 0.0;
      for (std::size_t i = 0; i < nc; ++i) {
        lhs += Rr[i] * e[i];
      }
      for (std::size_t i = 0; i < nf; ++i) {
        rhs += r[i] * Pe[i];
      }
      rhs *= c.restrict_scale();
      EXPECT_NEAR(lhs, rhs, 1e-10 * (std::abs(lhs) + 1.0))
          << "fine=" << fine.nx << "x" << fine.ny << "x" << fine.nz
          << " bs=" << bs;
    }
  }
}

TEST(Transfer, RestrictZeroIsZero) {
  const Coarsening c = Coarsening::make(Box{7, 7, 7}, 5);
  avec<double> r(static_cast<std::size_t>(c.fine.size()), 0.0);
  avec<double> fc(static_cast<std::size_t>(c.coarse.size()), 99.0);
  restrict_to_coarse<double>(c, 1, {r.data(), r.size()},
                             {fc.data(), fc.size()});
  for (double v : fc) {
    EXPECT_EQ(v, 0.0);
  }
}

TEST(Transfer, SemicoarsenedDimIsIdentity) {
  // With nz uncoarsened, restriction along z must be the identity map.
  const Coarsening c = Coarsening::make(Box{9, 9, 3}, 5);
  ASSERT_FALSE(c.mask[2]);
  ASSERT_DOUBLE_EQ(c.restrict_scale(), 0.25);  // x and y coarsened only
  avec<double> r(static_cast<std::size_t>(c.fine.size()), 0.0);
  // A single fine point at an even (i,j) lands on exactly one coarse point
  // with the full-weighting normalization 1/4.
  r[static_cast<std::size_t>(c.fine.idx(4, 4, 1))] = 5.0;
  avec<double> fc(static_cast<std::size_t>(c.coarse.size()), 0.0);
  restrict_to_coarse<double>(c, 1, {r.data(), r.size()},
                             {fc.data(), fc.size()});
  EXPECT_NEAR(fc[static_cast<std::size_t>(c.coarse.idx(2, 2, 1))], 1.25,
              1e-14);
  double total = 0.0;
  for (double v : fc) {
    total += v;
  }
  EXPECT_NEAR(total, 1.25, 1e-14);
}

TEST(Transfer, ParentWeightsSumToOneInside) {
  // Odd fine index between two interior coarse points: weights 1/2 + 1/2.
  const auto p = detail::parents_of(3, 4, true);
  ASSERT_EQ(p.count, 2);
  EXPECT_EQ(p.idx[0], 1);
  EXPECT_EQ(p.idx[1], 2);
  EXPECT_DOUBLE_EQ(p.w[0] + p.w[1], 1.0);
}

TEST(Transfer, BoundaryOddPointLosesClippedParent) {
  // Fine index n-1 odd with its upper parent clipped: weight 1/2 only
  // (Dirichlet truncation).
  const auto p = detail::parents_of(7, 4, true);  // upper parent would be 4
  ASSERT_EQ(p.count, 1);
  EXPECT_EQ(p.idx[0], 3);
  EXPECT_DOUBLE_EQ(p.w[0], 0.5);
}

TEST(Transfer, ChildrenOfIsTransposeOfParentsOf) {
  // For every (fine, coarse) pair, x appears in children_of(X) with weight w
  // iff X appears in parents_of(x) with the same w — R and P^T agree entry
  // by entry, including every boundary clipping.
  for (int nf : {5, 6, 9, 10}) {
    const int nc = (nf + 1) / 2;
    for (int X = 0; X < nc; ++X) {
      const auto c = detail::children_of(X, nf, true);
      for (int a = 0; a < c.count; ++a) {
        const auto p = detail::parents_of(c.idx[a], nc, true);
        double w = 0.0;
        for (int b = 0; b < p.count; ++b) {
          if (p.idx[b] == X) {
            w = p.w[b];
          }
        }
        EXPECT_DOUBLE_EQ(w, c.w[a]) << "nf=" << nf << " X=" << X
                                    << " child=" << c.idx[a];
      }
    }
    // And the reverse inclusion: every parent relation appears as a child.
    for (int x = 0; x < nf; ++x) {
      const auto p = detail::parents_of(x, nc, true);
      for (int b = 0; b < p.count; ++b) {
        const auto c = detail::children_of(p.idx[b], nf, true);
        bool found = false;
        for (int a = 0; a < c.count; ++a) {
          found = found || (c.idx[a] == x && c.w[a] == p.w[b]);
        }
        EXPECT_TRUE(found) << "nf=" << nf << " x=" << x;
      }
    }
  }
}

TEST(Transfer, ChildrenOfUncoarsenedDimIsIdentity) {
  const auto c = detail::children_of(4, 5, false);
  ASSERT_EQ(c.count, 1);
  EXPECT_EQ(c.idx[0], 4);
  EXPECT_DOUBLE_EQ(c.w[0], 1.0);
}

TEST(Transfer, GatherRestrictionMatchesScatterReference) {
  // The parallel gather form and the serial scatter reference compute the
  // same operator; only the per-coarse-dof summation order differs, so the
  // results agree to rounding.
  for (const Box fine : {Box{8, 7, 6}, Box{9, 9, 3}, Box{5, 10, 7}}) {
    const Coarsening c = Coarsening::make(fine, 5);
    for (int bs : {1, 3}) {
      Rng rng(99);
      const std::size_t nf = static_cast<std::size_t>(fine.size() * bs);
      const std::size_t nc = static_cast<std::size_t>(c.coarse.size() * bs);
      avec<double> r(nf), g(nc), s(nc);
      for (auto& v : r) {
        v = rng.uniform(-1.0, 1.0);
      }
      restrict_to_coarse<double>(c, bs, {r.data(), nf}, {g.data(), nc});
      oracle::restrict_to_coarse_scatter<double>(c, bs, {r.data(), nf},
                                                 {s.data(), nc});
      for (std::size_t i = 0; i < nc; ++i) {
        EXPECT_NEAR(g[i], s[i], 1e-13) << "i=" << i << " bs=" << bs;
      }
    }
  }
}

#if defined(_OPENMP)
TEST(Transfer, GatherTransfersAreThreadCountInvariant) {
  // Each coarse (restriction) / fine (prolongation) dof is written by
  // exactly one iteration with a fixed inner summation order, so the result
  // must be bitwise independent of the thread count.
  const Box fine{19, 14, 11};
  const Coarsening c = Coarsening::make(fine, 5);
  const int bs = 2;
  Rng rng(7);
  const std::size_t nf = static_cast<std::size_t>(fine.size() * bs);
  const std::size_t nc = static_cast<std::size_t>(c.coarse.size() * bs);
  avec<double> r(nf), e(nc);
  for (auto& v : r) {
    v = rng.uniform(-1.0, 1.0);
  }
  for (auto& v : e) {
    v = rng.uniform(-1.0, 1.0);
  }
  const int saved = omp_get_max_threads();
  omp_set_num_threads(1);
  avec<double> fc1(nc), uf1(nf, 0.5);
  restrict_to_coarse<double>(c, bs, {r.data(), nf}, {fc1.data(), nc});
  prolong_add<double>(c, bs, {e.data(), nc}, {uf1.data(), nf});
  for (int nt : {2, 3, 5, 8}) {
    omp_set_num_threads(nt);
    avec<double> fc(nc), uf(nf, 0.5);
    restrict_to_coarse<double>(c, bs, {r.data(), nf}, {fc.data(), nc});
    prolong_add<double>(c, bs, {e.data(), nc}, {uf.data(), nf});
    EXPECT_EQ(0, std::memcmp(fc.data(), fc1.data(), nc * sizeof(double)))
        << "restrict threads=" << nt;
    EXPECT_EQ(0, std::memcmp(uf.data(), uf1.data(), nf * sizeof(double)))
        << "prolong threads=" << nt;
  }
  omp_set_num_threads(saved);
}
#endif

}  // namespace
}  // namespace smg
