// V-cycle application tests: error reduction, precision configs, W-cycle,
// wrapped (scale-then-setup) application; over every paper problem, both
// storage configs and both smoothers, one apply is bitwise identical across
// OpenMP thread counts and apply_many reproduces column-wise applies;
// MGConfig::decomp changes nothing.
#include <gtest/gtest.h>

#include <omp.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/hierarchy_cache.hpp"
#include "core/mg_precond.hpp"
#include "kernels/blas1.hpp"
#include "kernels/spmv.hpp"
#include "problems/problem.hpp"
#include "solvers/cg.hpp"
#include "util/multivector.hpp"

namespace smg {
namespace {

/// Relative A-residual reduction of n preconditioner applications used as a
/// stationary iteration on A x = b.
double stationary_reduction(const StructMat<double>& A,
                            PrecondBase<double>& M, int iters) {
  const std::size_t n = static_cast<std::size_t>(A.nrows());
  avec<double> x(n, 0.0), b(n, 1.0), r(n), e(n);
  residual<double, double>(A, {b.data(), n}, {x.data(), n}, {r.data(), n});
  const double r0 = nrm2_deterministic<double>({r.data(), n});
  for (int it = 0; it < iters; ++it) {
    M.apply({r.data(), n}, {e.data(), n});
    axpy<double>(1.0, {e.data(), n}, {x.data(), n});
    residual<double, double>(A, {b.data(), n}, {x.data(), n}, {r.data(), n});
  }
  return nrm2_deterministic<double>({r.data(), n}) / r0;
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

TEST(MGPrecond, RefreshLevelKeepsApplyUnchanged) {
  // hierarchy_cache-style reuse: mutate nothing, force refresh_level on
  // every level and check the apply is unchanged.
  auto p = make_rhd(Box{16, 16, 16});
  MGHierarchy h(std::move(p.A), small(config_d16_setup_scale()));
  ASSERT_TRUE(h.level(0).scaled);
  MGPrecond<float> M(&h);
  const std::size_t n = static_cast<std::size_t>(h.level(0).A_full.nrows());
  avec<float> r(n, 1.0f), e1(n), e2(n);
  M.apply({r.data(), n}, {e1.data(), n});
  for (int l = 0; l < h.nlevels(); ++l) {
    M.refresh_level(l);
  }
  M.apply({r.data(), n}, {e2.data(), n});
  EXPECT_EQ(std::memcmp(e1.data(), e2.data(), n * sizeof(float)), 0);
}

TEST(MGPrecond, SymGSConvergesOnScaledFp16Levels) {
  // PCG on rhd's scaled FP16 levels under the default SymGS smoother.
  auto p = make_rhd(Box{24, 24, 24});
  const StructMat<double> A = p.A;
  MGHierarchy h(std::move(p.A), config_d16_setup_scale());
  ASSERT_TRUE(h.level(0).scaled);
  auto M = make_mg_precond<double>(h);
  const std::size_t n = p.b.size();
  const LinOp<double> op = [&A](std::span<const double> x,
                                std::span<double> y) {
    spmv<double, double>(A, x, y);
  };
  SolveOptions opts;
  opts.max_iters = 60;
  avec<double> x(n, 0.0);
  const auto res = pcg<double>(op, {p.b.data(), n}, {x.data(), n}, *M, opts);
  EXPECT_TRUE(res.converged) << res.iters << " iterations";
}

TEST(MGPrecond, DecompFieldHasNoEffect) {
  // MGConfig::decomp is read nowhere: the hierarchy, its fingerprint and
  // the apply are those of the default config.
  MGConfig plain = small(config_d16_setup_scale());
  MGConfig split = plain;
  split.decomp = {2, 1, 1};
  auto pa = make_laplace27(Box{17, 17, 17});
  auto pb = make_laplace27(Box{17, 17, 17});
  EXPECT_EQ(hierarchy_fingerprint(pa.A, plain),
            hierarchy_fingerprint(pb.A, split));
  MGHierarchy ha(std::move(pa.A), plain);
  MGHierarchy hb(std::move(pb.A), split);
  ASSERT_EQ(ha.nlevels(), hb.nlevels());
  MGPrecond<float> Ma(&ha);
  MGPrecond<float> Mb(&hb);
  const std::size_t n = static_cast<std::size_t>(ha.level(0).A_full.nrows());
  avec<float> r(n), ea(n), eb(n);
  for (std::size_t i = 0; i < n; ++i) {
    r[i] = static_cast<float>(std::sin(0.3 * static_cast<double>(i)));
  }
  Ma.apply({r.data(), n}, {ea.data(), n});
  Mb.apply({r.data(), n}, {eb.data(), n});
  EXPECT_EQ(std::memcmp(ea.data(), eb.data(), n * sizeof(float)), 0);
}

// ---- one engine over the problem x storage x smoother matrix -------------

struct EngineCase {
  const char* problem;
  bool fp16;  ///< config_d16_setup_scale (FP32 compute) vs config_full64
  SmootherType smoother;
};

std::string engine_case_name(
    const ::testing::TestParamInfo<EngineCase>& info) {
  const EngineCase& c = info.param;
  return std::string(c.problem) + (c.fp16 ? "_D16SetupScale" : "_Full64") +
         (c.smoother == SmootherType::SymGS ? "_SymGS" : "_Jacobi");
}

std::vector<EngineCase> engine_cases() {
  std::vector<EngineCase> out;
  for (const char* problem : {"laplace27", "laplace27e8", "rhd", "rhd3t",
                              "oil", "oil4c", "weather", "solid3d"}) {
    for (const bool fp16 : {false, true}) {
      for (const SmootherType s : {SmootherType::SymGS, SmootherType::Jacobi}) {
        out.push_back({problem, fp16, s});
      }
    }
  }
  return out;
}

class EngineMatrix : public ::testing::TestWithParam<EngineCase> {
 protected:
  MGConfig config() const {
    MGConfig cfg =
        small(GetParam().fp16 ? config_d16_setup_scale() : config_full64());
    cfg.smoother = GetParam().smoother;
    return cfg;
  }

  template <class CT>
  static void fill(std::span<CT> r, int c) {
    for (std::size_t i = 0; i < r.size(); ++i) {
      r[i] = static_cast<CT>(std::sin(0.1 * static_cast<double>(i) + c));
    }
  }

  /// One apply at 1 thread is bitwise the apply at 2 and 4 threads.
  template <class CT>
  static void expect_thread_invariant(const MGHierarchy& h) {
    MGPrecond<CT> M(&h);
    const std::size_t n = static_cast<std::size_t>(h.level(0).A_full.nrows());
    avec<CT> r(n), ref(n), e(n);
    fill<CT>({r.data(), n}, 0);
    const int saved = omp_get_max_threads();
    omp_set_num_threads(1);
    M.apply({r.data(), n}, {ref.data(), n});
    for (const int nt : {2, 4}) {
      omp_set_num_threads(nt);
      M.apply({r.data(), n}, {e.data(), n});
      EXPECT_EQ(std::memcmp(e.data(), ref.data(), n * sizeof(CT)), 0)
          << "threads=" << nt;
    }
    omp_set_num_threads(saved);
  }

  /// Column c of apply_many is bitwise a single apply of column c.
  template <class CT>
  static void expect_panel_matches_columns(const MGHierarchy& h) {
    MGPrecond<CT> M(&h);
    const std::size_t n = static_cast<std::size_t>(h.level(0).A_full.nrows());
    const int ncols = 3;
    MultiVector<CT> R(static_cast<std::int64_t>(n), ncols);
    MultiVector<CT> E(static_cast<std::int64_t>(n), ncols);
    avec<CT> rc(n), ec(n), eref(n);
    for (int c = 0; c < ncols; ++c) {
      fill<CT>({rc.data(), n}, c);
      R.insert_col(c, std::span<const CT>{rc.data(), n});
    }
    M.apply_many(R, E);
    for (int c = 0; c < ncols; ++c) {
      R.extract_col(c, {rc.data(), n});
      M.apply({rc.data(), n}, {eref.data(), n});
      E.extract_col(c, {ec.data(), n});
      EXPECT_EQ(std::memcmp(ec.data(), eref.data(), n * sizeof(CT)), 0)
          << "col " << c;
    }
  }
};

TEST_P(EngineMatrix, ApplyBitwiseAcrossThreadCounts) {
  MGHierarchy h(make_problem(GetParam().problem, Box{12, 12, 12}).A,
                config());
  ASSERT_GT(h.nlevels(), 1);
  if (GetParam().fp16) {
    expect_thread_invariant<float>(h);
  } else {
    expect_thread_invariant<double>(h);
  }
}

TEST_P(EngineMatrix, ApplyManyMatchesColumnwiseApplies) {
  MGHierarchy h(make_problem(GetParam().problem, Box{12, 12, 12}).A,
                config());
  ASSERT_GT(h.nlevels(), 1);
  if (GetParam().fp16) {
    expect_panel_matches_columns<float>(h);
  } else {
    expect_panel_matches_columns<double>(h);
  }
}

INSTANTIATE_TEST_SUITE_P(Problems, EngineMatrix,
                         ::testing::ValuesIn(engine_cases()),
                         engine_case_name);

}  // namespace
}  // namespace smg
