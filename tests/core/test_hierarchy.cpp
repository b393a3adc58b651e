// MG hierarchy setup tests: level structure, precision assignment,
// the storage ladder and its §4.3 shift, scaling decisions, complexities.
#include <gtest/gtest.h>
#include <omp.h>

#include <cstring>
#include <string>

#include "core/mg_hierarchy.hpp"
#include "problems/problem.hpp"

namespace smg {
namespace {

MGConfig base_config() {
  MGConfig cfg = config_d16_setup_scale();
  cfg.min_coarse_cells = 64;
  return cfg;
}

TEST(Hierarchy, BuildsMultipleLevels) {
  auto p = make_laplace27(Box{17, 17, 17});
  MGHierarchy h(std::move(p.A), base_config());
  EXPECT_GE(h.nlevels(), 3);
  // Levels shrink monotonically.
  for (int l = 1; l < h.nlevels(); ++l) {
    EXPECT_LT(h.level(l).A_full.ncells(), h.level(l - 1).A_full.ncells());
  }
  // Coarse levels expand to 3d27.
  for (int l = 1; l < h.nlevels(); ++l) {
    EXPECT_EQ(h.level(l).A_full.stencil().ndiag(), 27);
  }
}

TEST(Hierarchy, ComplexitiesAreLowAsInPaper) {
  // Paper Fig. 3 / Table 3: C_G ~ 1.14, C_O ~ 1.14-1.44 for these stencils.
  auto p = make_laplace27(Box{33, 33, 33});
  MGHierarchy h(std::move(p.A), base_config());
  EXPECT_GT(h.grid_complexity(), 1.0);
  EXPECT_LT(h.grid_complexity(), 1.3);
  EXPECT_GT(h.operator_complexity(), 1.0);
  EXPECT_LT(h.operator_complexity(), 1.6);
}

TEST(Hierarchy, InRangeProblemIsNotScaled) {
  auto p = make_laplace27(Box{15, 15, 15});  // values 26 and -1: in range
  MGHierarchy h(std::move(p.A), base_config());
  for (int l = 0; l < h.nlevels(); ++l) {
    EXPECT_FALSE(h.level(l).scaled) << "level " << l;
    EXPECT_EQ(h.level(l).trunc.overflowed, 0u) << "level " << l;
  }
}

TEST(Hierarchy, OutOfRangeProblemIsScaledAndSafe) {
  auto p = make_laplace27e8(Box{15, 15, 15});  // 2.6e9: far out of range
  MGHierarchy h(std::move(p.A), base_config());
  EXPECT_TRUE(h.level(0).scaled);
  for (int l = 0; l < h.nlevels(); ++l) {
    EXPECT_EQ(h.level(l).trunc.overflowed, 0u)
        << "Theorem 4.1 violated on level " << l;
    if (h.level(l).scaled) {
      EXPECT_EQ(h.level(l).q2.size(),
                static_cast<std::size_t>(h.level(l).A_full.nrows()));
      EXPECT_GT(h.level(l).gmax, 0.0);
    }
  }
}

TEST(Hierarchy, NoneModeProducesOverflow) {
  auto p = make_laplace27e8(Box{15, 15, 15});
  MGConfig cfg = config_d16_none();
  cfg.min_coarse_cells = 64;
  MGHierarchy h(std::move(p.A), cfg);
  EXPECT_GT(h.total_truncation().overflowed, 0u);
}

TEST(Hierarchy, ScaleThenSetupWrapsFinestOnly) {
  auto p = make_laplace27e8(Box{15, 15, 15});
  MGConfig cfg = config_d16_scale_setup();
  cfg.min_coarse_cells = 64;
  MGHierarchy h(std::move(p.A), cfg);
  EXPECT_TRUE(h.finest_wrapped());
  EXPECT_EQ(h.finest_q2().size(),
            static_cast<std::size_t>(h.level(0).A_full.nrows()));
  // Per-level q2 is not used in this mode.
  for (int l = 0; l < h.nlevels(); ++l) {
    EXPECT_FALSE(h.level(l).scaled);
  }
}

TEST(Hierarchy, StoragePrecisionFollowsShiftLevid) {
  auto p = make_laplace27(Box{33, 33, 33});
  MGConfig cfg = base_config();
  // The paper's shift_levid = 2: levels >= 2 stored in compute precision.
  cfg.storage_ladder = {Prec::FP16, Prec::FP16, Prec::FP32};
  MGHierarchy h(std::move(p.A), cfg);
  ASSERT_GE(h.nlevels(), 3);
  EXPECT_EQ(h.level(0).A_stored.precision(), Prec::FP16);
  EXPECT_EQ(h.level(1).A_stored.precision(), Prec::FP16);
  for (int l = 2; l < h.nlevels(); ++l) {
    EXPECT_EQ(h.level(l).A_stored.precision(), Prec::FP32);
  }
}

TEST(Hierarchy, ShiftLevidZeroOrNegativeStoresAllInCompute) {
  // shift_levid <= 0 is the one-rung compute ladder: *every* level is
  // stored in compute precision, and storage_at() agrees.
  auto p = make_laplace27(Box{17, 17, 17});
  MGConfig cfg = base_config();
  cfg.storage_ladder = {cfg.compute};
  MGHierarchy h(std::move(p.A), cfg);
  for (int l = 0; l < h.nlevels(); ++l) {
    EXPECT_EQ(h.level(l).A_stored.precision(), Prec::FP32) << "level " << l;
    EXPECT_EQ(cfg.storage_at(l), Prec::FP32);
  }
}

TEST(Hierarchy, ShiftLevidBeyondDepthShiftsNothing) {
  auto p = make_laplace27(Box{17, 17, 17});
  MGConfig cfg = base_config();
  // The shift sits deeper than any hierarchy this problem builds.
  cfg.storage_ladder.assign(99, Prec::FP16);
  cfg.storage_ladder.push_back(Prec::FP32);
  MGHierarchy h(std::move(p.A), cfg);
  for (int l = 0; l < h.nlevels(); ++l) {
    EXPECT_EQ(h.level(l).A_stored.precision(), Prec::FP16) << "level " << l;
  }
}

TEST(Hierarchy, DegenerateDiagonalFallsBackToComputeStorage) {
  // One negative diagonal entry voids Theorem 4.1 (no real Q^{-1/2} exists).
  // The level must fall back to unscaled compute-precision storage instead of
  // scaling the whole matrix into NaN — under the default Fixed policy too.
  // (A negative entry rather than zero: the smoother still needs an
  // invertible diagonal block to set up at all.)
  auto p = make_laplace27e8(Box{10, 10, 10});
  p.A.at(0, p.A.stencil().center()) = -2.6e9;
  MGHierarchy h(std::move(p.A), base_config());
  EXPECT_TRUE(h.level(0).degenerate_diag);
  EXPECT_FALSE(h.level(0).scaled);
  EXPECT_EQ(h.level(0).A_stored.precision(), h.config().compute);
  EXPECT_TRUE(h.level(0).q2.empty());
  // The stored values are all finite (FP32 holds 2.6e9 comfortably).
  EXPECT_EQ(h.level(0).trunc.overflowed, 0u);
}

TEST(Hierarchy, StoredBytesShrinkWithFp16) {
  auto p1 = make_laplace27(Box{17, 17, 17});
  auto p2 = make_laplace27(Box{17, 17, 17});
  MGConfig c64 = config_full64();
  c64.min_coarse_cells = 64;
  MGHierarchy h64(std::move(p1.A), c64);
  MGHierarchy h16(std::move(p2.A), base_config());
  EXPECT_EQ(h64.stored_matrix_bytes(), 4 * h16.stored_matrix_bytes());
  EXPECT_EQ(h16.fp64_matrix_bytes(), h64.stored_matrix_bytes());
}

TEST(Hierarchy, RespectsMaxLevels) {
  auto p = make_laplace27(Box{33, 33, 33});
  MGConfig cfg = base_config();
  cfg.max_levels = 2;
  MGHierarchy h(std::move(p.A), cfg);
  EXPECT_EQ(h.nlevels(), 2);
}

TEST(Hierarchy, CoarsestSolverMatchesCoarsestLevel) {
  auto p = make_laplace27(Box{17, 17, 17});
  MGHierarchy h(std::move(p.A), base_config());
  EXPECT_EQ(h.coarse_solver().size(),
            h.level(h.nlevels() - 1).A_full.nrows());
  EXPECT_GT(h.coarse_solver().min_pivot(), 0.0);
}

TEST(Hierarchy, PencilGridSemicoarsens) {
  auto p = make_laplace27(Box{33, 33, 4});
  MGHierarchy h(std::move(p.A), base_config());
  ASSERT_GE(h.nlevels(), 2);
  // z was too short to coarsen: it must be preserved on level 1.
  EXPECT_EQ(h.level(1).A_full.box().nz, 4);
  EXPECT_LT(h.level(1).A_full.box().nx, 33);
}

TEST(Hierarchy, BlockProblemKeepsBlockSize) {
  auto p = make_rhd3t(Box{10, 10, 10});
  MGHierarchy h(std::move(p.A), base_config());
  for (int l = 0; l < h.nlevels(); ++l) {
    EXPECT_EQ(h.level(l).A_full.block_size(), 3);
    EXPECT_EQ(h.level(l).A_stored.block_size(), 3);
  }
}

TEST(HierarchyDeathTest, RejectsBlockSizeAboveEight) {
  // Rejected before the Galerkin chain or the smoother touches a block.
  StructMat<double> A(Box{4, 4, 4}, Stencil::make(Pattern::P3d7), 9);
  const int center = A.stencil().center();
  for (std::int64_t cell = 0; cell < A.ncells(); ++cell) {
    for (int r = 0; r < 9; ++r) {
      A.at(cell, center, r, r) = 1.0;
    }
  }
  EXPECT_DEATH(MGHierarchy(std::move(A), base_config()),
               "block size 9 exceeds the supported maximum of 8");
}

template <class T>
bool same_bytes(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

template <class V>
bool same_bytes_vec(const V& a, const V& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0);
}

bool same_stored(const AnyMat& a, const AnyMat& b) {
  if (a.precision() != b.precision() || a.layout() != b.layout() ||
      a.value_bytes() != b.value_bytes()) {
    return false;
  }
  const auto raw = [](const AnyMat& m) {
    return m.visit([](const auto& s) {
      return static_cast<const void*>(s.data());
    });
  };
  return std::memcmp(raw(a), raw(b), a.value_bytes()) == 0;
}

TEST(Hierarchy, SetupIsThreadCountInvariant) {
  // Every setup pass either keeps its summation order or is an exact
  // reduction, so what setup stores must not depend on the thread count.
  const int saved = omp_get_max_threads();
  for (const std::string& name : problem_names()) {
    const Problem p = make_problem(name, Box{21, 18, 16});
    for (const bool fp16 : {true, false}) {
      const MGConfig cfg = fp16 ? config_d16_setup_scale() : config_full64();
      omp_set_num_threads(1);
      const MGHierarchy h1(p.A, cfg);
      omp_set_num_threads(4);
      const MGHierarchy h4(p.A, cfg);
      const std::string where = name + (fp16 ? " fp16" : " full64");
      ASSERT_EQ(h1.nlevels(), h4.nlevels()) << where;
      EXPECT_EQ(h1.stored_matrix_bytes(), h4.stored_matrix_bytes()) << where;
      for (int l = 0; l < h1.nlevels(); ++l) {
        const Level& a = h1.level(l);
        const Level& b = h4.level(l);
        EXPECT_TRUE(same_stored(a.A_stored, b.A_stored)) << where << " " << l;
        EXPECT_TRUE(same_bytes_vec(a.invdiag, b.invdiag)) << where << " " << l;
        EXPECT_TRUE(same_bytes_vec(a.q2, b.q2)) << where << " " << l;
        EXPECT_TRUE(same_bytes(a.stored_max_abs, b.stored_max_abs))
            << where << " " << l;
        EXPECT_TRUE(same_bytes(a.stored_min_abs, b.stored_min_abs))
            << where << " " << l;
        EXPECT_EQ(a.trunc.overflowed, b.trunc.overflowed) << where << " " << l;
        EXPECT_EQ(a.trunc.underflowed, b.trunc.underflowed)
            << where << " " << l;
        EXPECT_EQ(a.trunc.subnormal, b.trunc.subnormal) << where << " " << l;
      }
    }
  }
  omp_set_num_threads(saved);
}

}  // namespace
}  // namespace smg
