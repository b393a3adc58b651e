// V-cycle application tests: error reduction, precision configs, W-cycle,
// wrapped (scale-then-setup) application.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/mg_precond.hpp"
#include "kernels/blas1.hpp"
#include "kernels/spmv.hpp"
#include "problems/problem.hpp"

namespace smg {
namespace {

/// Relative A-residual reduction of n preconditioner applications used as a
/// stationary iteration on A x = b.
double stationary_reduction(const StructMat<double>& A,
                            PrecondBase<double>& M, int iters) {
  const std::size_t n = static_cast<std::size_t>(A.nrows());
  avec<double> x(n, 0.0), b(n, 1.0), r(n), e(n);
  residual<double, double>(A, {b.data(), n}, {x.data(), n}, {r.data(), n});
  const double r0 = nrm2<double>({r.data(), n});
  for (int it = 0; it < iters; ++it) {
    M.apply({r.data(), n}, {e.data(), n});
    axpy<double>(1.0, {e.data(), n}, {x.data(), n});
    residual<double, double>(A, {b.data(), n}, {x.data(), n}, {r.data(), n});
  }
  return nrm2<double>({r.data(), n}) / r0;
}

MGConfig small(MGConfig cfg) {
  cfg.min_coarse_cells = 64;
  return cfg;
}

TEST(MGPrecond, VCycleContractsPoissonResidual) {
  auto p = make_laplace27(Box{17, 17, 17});
  const StructMat<double> A = p.A;
  MGHierarchy h(std::move(p.A), small(config_full64()));
  auto M = make_mg_precond<double>(h);
  // Multigrid on Poisson: each V-cycle should shave >= ~5x off the residual.
  EXPECT_LT(stationary_reduction(A, *M, 5), 1e-3);
}

class PrecisionConfigs
    : public ::testing::TestWithParam<std::pair<const char*, MGConfig>> {};

TEST_P(PrecisionConfigs, AllSafeConfigsContractLaplace) {
  auto p = make_laplace27(Box{13, 13, 13});
  const StructMat<double> A = p.A;
  MGHierarchy h(std::move(p.A), small(GetParam().second));
  auto M = make_mg_precond<double>(h);
  EXPECT_LT(stationary_reduction(A, *M, 6), 1e-3) << GetParam().first;
}

INSTANTIATE_TEST_SUITE_P(
    Fig6Legend, PrecisionConfigs,
    ::testing::Values(
        std::make_pair("Full64", config_full64()),
        std::make_pair("K64P32D32", config_k64p32d32()),
        std::make_pair("D16-none(inRange)", config_d16_none()),
        std::make_pair("D16-scale-setup", config_d16_scale_setup()),
        std::make_pair("D16-setup-scale", config_d16_setup_scale())));

TEST(MGPrecond, SetupThenScaleHandlesOutOfRangeMatrix) {
  auto p = make_laplace27e8(Box{13, 13, 13});
  const StructMat<double> A = p.A;
  MGHierarchy h(std::move(p.A), small(config_d16_setup_scale()));
  auto M = make_mg_precond<double>(h);
  const double red = stationary_reduction(A, *M, 6);
  EXPECT_TRUE(std::isfinite(red));
  EXPECT_LT(red, 1e-3);
}

TEST(MGPrecond, NoneModeDivergesOnOutOfRangeMatrix) {
  // Fig. 6(b): without scaling, truncation produces inf and the stationary
  // iteration breaks down with NaN.
  auto p = make_laplace27e8(Box{13, 13, 13});
  const StructMat<double> A = p.A;
  MGHierarchy h(std::move(p.A), small(config_d16_none()));
  auto M = make_mg_precond<double>(h);
  const double red = stationary_reduction(A, *M, 2);
  EXPECT_FALSE(std::isfinite(red));
}

TEST(MGPrecond, ScaleThenSetupAlsoWorksOnUniformProblem) {
  // For the uniformly scaled laplace27e8 the ablation baseline is fine too
  // (Fig. 6(b): all four scaled curves coincide).
  auto p = make_laplace27e8(Box{13, 13, 13});
  const StructMat<double> A = p.A;
  MGHierarchy h(std::move(p.A), small(config_d16_scale_setup()));
  auto M = make_mg_precond<double>(h);
  EXPECT_LT(stationary_reduction(A, *M, 6), 1e-3);
}

TEST(MGPrecond, WCycleAtLeastAsStrongAsVCycle) {
  auto pv = make_laplace27(Box{17, 17, 17});
  auto pw = make_laplace27(Box{17, 17, 17});
  const StructMat<double> A = pv.A;
  MGConfig vcfg = small(config_full64());
  MGConfig wcfg = vcfg;
  wcfg.cycle = CycleShape::W;
  MGHierarchy hv(std::move(pv.A), vcfg);
  MGHierarchy hw(std::move(pw.A), wcfg);
  auto Mv = make_mg_precond<double>(hv);
  auto Mw = make_mg_precond<double>(hw);
  const double rv = stationary_reduction(A, *Mv, 4);
  const double rw = stationary_reduction(A, *Mw, 4);
  EXPECT_LE(rw, rv * 1.5);
}

TEST(MGPrecond, JacobiSmootherAlsoContracts) {
  auto p = make_laplace27(Box{13, 13, 13});
  const StructMat<double> A = p.A;
  MGConfig cfg = small(config_full64());
  cfg.smoother = SmootherType::Jacobi;
  cfg.nu1 = 2;
  cfg.nu2 = 2;
  MGHierarchy h(std::move(p.A), cfg);
  auto M = make_mg_precond<double>(h);
  EXPECT_LT(stationary_reduction(A, *M, 8), 1e-2);
}

TEST(MGPrecond, MoreSmoothingContractsFasterPerCycle) {
  auto p1 = make_laplace27(Box{13, 13, 13});
  auto p2 = make_laplace27(Box{13, 13, 13});
  const StructMat<double> A = p1.A;
  MGConfig c1 = small(config_full64());
  MGConfig c2 = c1;
  c2.nu1 = 3;
  c2.nu2 = 3;
  MGHierarchy h1(std::move(p1.A), c1);
  MGHierarchy h2(std::move(p2.A), c2);
  auto M1 = make_mg_precond<double>(h1);
  auto M2 = make_mg_precond<double>(h2);
  EXPECT_LE(stationary_reduction(A, *M2, 4),
            stationary_reduction(A, *M1, 4) * 1.1);
}

TEST(MGPrecond, AdapterTimingAccumulates) {
  auto p = make_laplace27(Box{13, 13, 13});
  MGHierarchy h(std::move(p.A), small(config_full64()));
  auto M = make_mg_precond<double>(h);
  const std::size_t n = static_cast<std::size_t>(h.level(0).A_full.nrows());
  avec<double> r(n, 1.0), e(n);
  M->apply({r.data(), n}, {e.data(), n});
  EXPECT_GT(M->apply_seconds(), 0.0);
  M->reset_timing();
  EXPECT_EQ(M->apply_seconds(), 0.0);
}

TEST(MGPrecond, ApplyIsDeterministic) {
  auto p = make_rhd(Box{10, 10, 10});
  MGHierarchy h(std::move(p.A), small(config_d16_setup_scale()));
  MGPrecond<float> mg(&h);
  const std::size_t n = static_cast<std::size_t>(h.level(0).A_full.nrows());
  avec<float> r(n), e1(n), e2(n);
  for (std::size_t i = 0; i < n; ++i) {
    r[i] = static_cast<float>(std::sin(0.1 * static_cast<double>(i)));
  }
  mg.apply({r.data(), n}, {e1.data(), n});
  mg.apply({r.data(), n}, {e2.data(), n});
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(e1[i], e2[i]);
  }
}

}  // namespace
}  // namespace smg
