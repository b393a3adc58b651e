// Cycle-shape coverage (docs/CYCLE_SHAPES.md): the cycle_visits multiplicity
// table matches the visits run_cycle makes on a counting backend and the
// measured Level spans of the plain and decomposed engines for V, W and F; the
// F-cycle is bitwise identical between the decomposed {2,2,2} and plain
// paths and across OpenMP thread counts; one F-cycle reaches discretization
// error on the manufactured laplace27 problem at FP64 and FP16 storage; the
// fmg_solve driver polishes, stops, restores the caller's shape.
#include <gtest/gtest.h>

#include <omp.h>

#include <array>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <vector>

#include "core/cycle.hpp"
#include "core/mg_precond.hpp"
#include "kernels/blas1.hpp"
#include "obs/counters.hpp"
#include "kernels/spmv.hpp"
#include "problems/problem.hpp"
#include "solvers/cg.hpp"
#include "solvers/fmg.hpp"
#include "util/multivector.hpp"

namespace smg {
namespace {

MGConfig decomposed(MGConfig cfg, std::array<int, 3> nb) {
  cfg.min_coarse_cells = 64;
  cfg.decomp = nb;
  cfg.decomp_min_box = 32;
  return cfg;
}

// ---- visit-multiplicity table --------------------------------------------

TEST(CycleVisits, VWFTables) {
  const int n = 5;
  for (int l = 0; l < n; ++l) {
    EXPECT_EQ(cycle_visits(CycleShape::V, l, n), 1) << "V l=" << l;
  }
  // W doubles per recursion but the coarsest is NOT doubled (the recursion
  // guard stops one level above it): 1, 2, 4, 8, 8.
  EXPECT_EQ(cycle_visits(CycleShape::W, 0, n), 1);
  EXPECT_EQ(cycle_visits(CycleShape::W, 1, n), 2);
  EXPECT_EQ(cycle_visits(CycleShape::W, 2, n), 4);
  EXPECT_EQ(cycle_visits(CycleShape::W, 3, n), 8);
  EXPECT_EQ(cycle_visits(CycleShape::W, 4, n), 8);
  // F visits level l once per V sub-cycle rooted at 0..l, and the coarsest
  // once more for the bootstrap: 1, 2, 3, 4, 5 — NOT a power of two.
  EXPECT_EQ(cycle_visits(CycleShape::F, 0, n), 1);
  EXPECT_EQ(cycle_visits(CycleShape::F, 1, n), 2);
  EXPECT_EQ(cycle_visits(CycleShape::F, 2, n), 3);
  EXPECT_EQ(cycle_visits(CycleShape::F, 3, n), 4);
  EXPECT_EQ(cycle_visits(CycleShape::F, 4, n), 5);
  // Degenerate hierarchies.
  for (const CycleShape s : {CycleShape::V, CycleShape::W, CycleShape::F}) {
    EXPECT_EQ(cycle_visits(s, 0, 1), 1);
  }
}

TEST(CycleVisits, ParseAndPrint) {
  CycleShape s = CycleShape::V;
  EXPECT_TRUE(parse_cycle_shape("w", s));
  EXPECT_EQ(s, CycleShape::W);
  EXPECT_TRUE(parse_cycle_shape("V", s));
  EXPECT_EQ(s, CycleShape::V);
  EXPECT_TRUE(parse_cycle_shape("F", s));
  EXPECT_EQ(s, CycleShape::F);
  EXPECT_TRUE(parse_cycle_shape("fmg", s));
  EXPECT_EQ(s, CycleShape::F);
  EXPECT_FALSE(parse_cycle_shape("x", s));
  EXPECT_FALSE(parse_cycle_shape("", s));
  EXPECT_EQ(s, CycleShape::F) << "failed parse must not clobber";
  EXPECT_EQ(to_string(CycleShape::F), "f");
}

TEST(CycleVisits, EnvOverrideResolvesIntoHierarchyConfig) {
  auto p = make_laplace27(Box{10, 10, 10});
  ASSERT_EQ(setenv("SMG_CYCLE", "f", 1), 0);
  MGConfig cfg = config_full64();
  cfg.min_coarse_cells = 64;
  MGHierarchy h(std::move(p.A), cfg);
  unsetenv("SMG_CYCLE");
  EXPECT_EQ(h.config().cycle, CycleShape::F);
  MGPrecond<double> M(&h);
  EXPECT_EQ(M.cycle_shape(), CycleShape::F);
}

class CycleEnvDeathTest : public ::testing::TestWithParam<const char*> {
 protected:
  void TearDown() override { unsetenv("SMG_CYCLE"); }
};

TEST_P(CycleEnvDeathTest, RejectsMalformedValue) {
  setenv("SMG_CYCLE", GetParam(), 1);
  EXPECT_DEATH(effective_cycle(MGConfig{}),
               "SMG_CYCLE must be one of v, w, f or fmg");
}

INSTANTIATE_TEST_SUITE_P(Malformed, CycleEnvDeathTest,
                         ::testing::Values("x", "vv", "w-cycle", "v ", " w"));

// ---- run_cycle visits == cycle_visits ------------------------------------

/// Counting fake backend: a visit of level l is its one downstroke, or the
/// coarse solve on the coarsest level.
struct CountingOps {
  explicit CountingOps(int nlevels)
      : visits(nlevels, 0), sweeps(nlevels, 0), prolongs(nlevels, 0),
        rhs_restricts(nlevels, 0), last(nlevels - 1) {}
  int nu1() const { return 2; }
  int nu2() const { return 1; }
  void zero(int) {}
  void smooth(int l, bool) { ++sweeps[l]; }
  void downstroke(int l) { ++visits[l]; }
  void coarse_solve(int l) {
    EXPECT_EQ(l, last);
    ++visits[l];
  }
  void restrict_rhs(int l) { ++rhs_restricts[l]; }
  void prolong_add(int l) { ++prolongs[l]; }

  std::vector<int> visits, sweeps, prolongs, rhs_restricts;
  int last;
};

TEST(CycleVisits, RunCycleVisitsMatchModel) {
  for (const CycleShape shape :
       {CycleShape::V, CycleShape::W, CycleShape::F}) {
    for (int nlev = 1; nlev <= 6; ++nlev) {
      CountingOps ops(nlev);
      run_cycle(ops, shape, nlev);
      const bool f = shape == CycleShape::F;
      for (int l = 0; l < nlev; ++l) {
        const int v = static_cast<int>(cycle_visits(shape, l, nlev));
        const bool coarsest = l == nlev - 1;
        EXPECT_EQ(ops.visits[l], v)
            << to_string(shape) << " nlevels=" << nlev << " level " << l;
        EXPECT_EQ(ops.sweeps[l], coarsest ? 0 : 3 * v);
        // F adds one FMG interpolation and one rhs injection per level.
        EXPECT_EQ(ops.prolongs[l], coarsest ? 0 : v + (f ? 1 : 0));
        EXPECT_EQ(ops.rhs_restricts[l], !coarsest && f ? 1 : 0);
      }
    }
  }
}

// ---- measured Level spans == cycle_visits --------------------------------

void expect_measured_visits(CycleShape shape,
                            std::array<int, 3> nb = {1, 1, 1}) {
  auto p = make_laplace27(Box{14, 14, 14});
  MGConfig cfg = decomposed(config_d16_setup_scale(), nb);
  cfg.cycle = shape;
  cfg.telemetry = obs::TelemetryLevel::Counters;
  MGHierarchy h(std::move(p.A), cfg);
  auto M = make_mg_precond<double>(h);
  obs::Telemetry* t = M->telemetry();
  ASSERT_NE(t, nullptr);
  ASSERT_GE(h.nlevels(), 3) << "need a real hierarchy to distinguish shapes";
  const std::size_t n = p.b.size();
  avec<double> r(n, 1.0), e(n, 0.0);
  M->apply({r.data(), n}, {e.data(), n});
  const bool boxed = nb != std::array<int, 3>{1, 1, 1};
  EXPECT_EQ(t->halo_exchanges_total() > 0, boxed)
      << "decomposed engine " << (boxed ? "not built" : "built");
  for (int l = 0; l < h.nlevels(); ++l) {
    EXPECT_EQ(t->stat(obs::Kind::Level, l).calls,
              static_cast<std::uint64_t>(
                  cycle_visits(shape, l, h.nlevels())))
        << to_string(shape) << " level " << l;
  }
}

TEST(CycleVisits, MeasuredLevelSpansMatchModelV) {
  expect_measured_visits(CycleShape::V);
  expect_measured_visits(CycleShape::V, {2, 2, 2});
}
TEST(CycleVisits, MeasuredLevelSpansMatchModelW) {
  expect_measured_visits(CycleShape::W);
  expect_measured_visits(CycleShape::W, {2, 2, 2});
}
TEST(CycleVisits, MeasuredLevelSpansMatchModelF) {
  expect_measured_visits(CycleShape::F);
  expect_measured_visits(CycleShape::F, {2, 2, 2});
}

TEST(CycleVisits, ConversionVolumeMatchesMeasuredMatrixPassesUnderF) {
  // Satellite regression: collect_precision_counters' conversions_per_apply
  // assumed power-of-two visits; under F the modeled volume must equal
  // (measured matrix-pass kernel calls) x stored_values exactly.
  auto p = make_laplace27(Box{14, 14, 14});
  MGConfig cfg = config_d16_setup_scale();
  cfg.min_coarse_cells = 64;
  cfg.cycle = CycleShape::F;
  cfg.telemetry = obs::TelemetryLevel::Counters;
  MGHierarchy h(std::move(p.A), cfg);
  auto M = make_mg_precond<double>(h);
  obs::Telemetry* t = M->telemetry();
  const std::size_t n = p.b.size();
  avec<double> r(n, 1.0), e(n, 0.0);
  M->apply({r.data(), n}, {e.data(), n});
  const auto counters = obs::collect_precision_counters(h);
  ASSERT_EQ(counters.size(), static_cast<std::size_t>(h.nlevels()));
  for (int l = 0; l < h.nlevels(); ++l) {
    const auto& c = counters[static_cast<std::size_t>(l)];
    const std::uint64_t passes = t->stat(obs::Kind::SymGS, l).calls +
                                 t->stat(obs::Kind::Residual, l).calls +
                                 t->stat(obs::Kind::ResidualRestrict, l).calls;
    if (l + 1 == h.nlevels()) {
      EXPECT_EQ(c.conversions_per_apply, 0u);  // dense FP64 coarse solve
      continue;
    }
    EXPECT_EQ(c.conversions_per_apply, passes * c.stored_values)
        << "level " << l;
  }
}

// ---- F-cycle identity contracts ------------------------------------------

TEST(FCycle, BitwiseIdenticalDecomposedVsPlain) {
  for (const char* name : {"full64", "d16"}) {
    MGConfig cfg = std::string(name) == "full64" ? config_full64()
                                                 : config_d16_setup_scale();
    cfg.smoother = SmootherType::Jacobi;
    cfg.cycle = CycleShape::F;
    auto pa = make_laplace27(Box{17, 17, 17});
    auto pb = make_laplace27(Box{17, 17, 17});
    MGHierarchy ha(std::move(pa.A), decomposed(cfg, {2, 2, 2}));
    MGHierarchy hb(std::move(pb.A), decomposed(cfg, {1, 1, 1}));
    MGPrecond<double> Ma(&ha);
    MGPrecond<double> Mb(&hb);
    const std::size_t n =
        static_cast<std::size_t>(ha.level(0).A_full.nrows());
    avec<double> r(n), ea(n), eb(n);
    for (std::size_t i = 0; i < n; ++i) {
      r[i] = std::sin(0.3 * static_cast<double>(i));
    }
    Ma.apply({r.data(), n}, {ea.data(), n});
    Mb.apply({r.data(), n}, {eb.data(), n});
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(ea[i], eb[i]) << name << " i=" << i;
    }
  }
}

TEST(FCycle, BitwiseIdenticalAcrossThreadCounts) {
  MGConfig cfg = config_full64();
  cfg.min_coarse_cells = 64;
  cfg.smoother = SmootherType::Jacobi;
  cfg.cycle = CycleShape::F;
  auto p = make_laplace27(Box{17, 17, 17});
  MGHierarchy h(std::move(p.A), cfg);
  MGPrecond<double> M(&h);
  const std::size_t n = static_cast<std::size_t>(h.level(0).A_full.nrows());
  avec<double> r(n), ref(n), e(n);
  for (std::size_t i = 0; i < n; ++i) {
    r[i] = std::sin(0.3 * static_cast<double>(i));
  }
  const int saved = omp_get_max_threads();
  omp_set_num_threads(1);
  M.apply({r.data(), n}, {ref.data(), n});
  for (const int nt : {2, 4}) {
    omp_set_num_threads(nt);
    M.apply({r.data(), n}, {e.data(), n});
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(e[i], ref[i]) << "threads=" << nt << " i=" << i;
    }
  }
  omp_set_num_threads(saved);
}

// ---- one F-cycle reaches discretization error ----------------------------

/// ||x - u*||_2 / ||u_h - u*||_2 where u_h is the exact discrete solution:
/// the F-cycle claim is that one apply lands within a small factor of 1.
double fcycle_error_ratio(const MGConfig& base, const Box& box,
                          int max_polish = 0) {
  Problem p = make_laplace27_mms(box);
  const StructMat<double> A = p.A;
  const std::size_t n = p.b.size();
  const avec<double> ustar = laplace27_mms_solution(box);
  const LinOp<double> op = [&A](std::span<const double> x,
                                std::span<double> y) {
    spmv<double, double>(A, x, y);
  };

  // Exact discrete solution at FP64, independent of the config under test.
  MGConfig ref_cfg = config_full64();
  ref_cfg.min_coarse_cells = 64;
  StructMat<double> Aref = p.A;
  MGHierarchy href(std::move(Aref), ref_cfg);
  auto Mref = make_mg_precond<double>(href);
  SolveOptions ref_opts;
  ref_opts.rtol = 1e-12;
  ref_opts.max_iters = 200;
  avec<double> uh(n, 0.0);
  const auto ref = pcg<double>(op, {p.b.data(), n}, {uh.data(), n}, *Mref,
                               ref_opts);
  EXPECT_TRUE(ref.converged);
  avec<double> diff(n);
  for (std::size_t i = 0; i < n; ++i) {
    diff[i] = uh[i] - ustar[i];
  }
  const double disc = nrm2<double>({diff.data(), n});
  EXPECT_GT(disc, 0.0);

  MGConfig cfg = base;
  cfg.min_coarse_cells = 64;
  MGHierarchy h(std::move(p.A), cfg);
  auto M = make_mg_precond<double>(h);
  FmgOptions<double> fopts;
  fopts.max_polish = max_polish;
  fopts.rtol = 0.0;
  avec<double> x(n, 0.0);
  const auto res = fmg_solve<double>(op, {p.b.data(), n}, {x.data(), n}, *M,
                                     fopts);
  EXPECT_FALSE(res.breakdown);
  for (std::size_t i = 0; i < n; ++i) {
    diff[i] = x[i] - ustar[i];
  }
  return nrm2<double>({diff.data(), n}) / disc;
}

TEST(FCycle, OneCycleReachesDiscretizationErrorFP64) {
  const double ratio = fcycle_error_ratio(config_full64(), Box{31, 31, 31});
  EXPECT_LE(ratio, 1.5) << "one F-cycle left " << ratio
                        << "x discretization error";
}

TEST(FCycle, OneCycleReachesDiscretizationErrorFP16Storage) {
  const double ratio =
      fcycle_error_ratio(config_d16_setup_scale(), Box{31, 31, 31});
  EXPECT_LE(ratio, 1.5) << "one F-cycle at FP16 storage left " << ratio
                        << "x discretization error";
}

// ---- fmg_solve driver ----------------------------------------------------

TEST(FmgSolve, PolishConvergesAndRestoresShape) {
  Problem p = make_laplace27_mms(Box{17, 17, 17});
  const StructMat<double> A = p.A;
  const std::size_t n = p.b.size();
  MGConfig cfg = config_full64();
  cfg.min_coarse_cells = 64;
  MGHierarchy h(std::move(p.A), cfg);
  auto M = make_mg_precond<double>(h);
  ASSERT_EQ(M->cycle_shape(), CycleShape::V);
  const LinOp<double> op = [&A](std::span<const double> x,
                                std::span<double> y) {
    spmv<double, double>(A, x, y);
  };
  FmgOptions<double> opts;
  opts.rtol = 1e-10;
  opts.max_polish = 30;
  avec<double> x(n, 0.0);
  const auto res = fmg_solve<double>(op, {p.b.data(), n}, {x.data(), n}, *M,
                                     opts);
  EXPECT_TRUE(res.converged) << res.status();
  EXPECT_LT(res.final_relres, 1e-10);
  EXPECT_GT(res.polish_iters, 0);
  EXPECT_EQ(res.history.size(),
            static_cast<std::size_t>(res.polish_iters) + 1);
  EXPECT_EQ(M->cycle_shape(), CycleShape::V) << "shape not restored";
}

TEST(FmgSolve, ErrorStopEndsBeforeResidualStop) {
  const Box box{17, 17, 17};
  Problem p = make_laplace27_mms(box);
  const StructMat<double> A = p.A;
  const std::size_t n = p.b.size();
  const avec<double> ustar = laplace27_mms_solution(box);
  MGConfig cfg = config_full64();
  cfg.min_coarse_cells = 64;
  MGHierarchy h(std::move(p.A), cfg);
  auto M = make_mg_precond<double>(h);
  const LinOp<double> op = [&A](std::span<const double> x,
                                std::span<double> y) {
    spmv<double, double>(A, x, y);
  };
  FmgOptions<double> opts;
  opts.rtol = 1e-14;  // unreachable residual target
  opts.max_polish = 30;
  opts.u_exact = {ustar.data(), n};
  // Discretization error of this grid is O(h^2) ~ 3e-3 in norm; any
  // loose absolute bound above it stops the polish almost immediately.
  opts.error_tol = 1.0;
  avec<double> x(n, 0.0);
  const auto res = fmg_solve<double>(op, {p.b.data(), n}, {x.data(), n}, *M,
                                     opts);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.polish_iters, 0) << "error stop should fire on bootstrap";
  EXPECT_GE(res.final_error, 0.0);
  EXPECT_LE(res.final_error, opts.error_tol);
  EXPECT_FALSE(res.error_history.empty());
}

TEST(FmgSolve, ManyRhsMatchesSingleColumnwise) {
  Problem p = make_laplace27_mms(Box{14, 14, 14});
  const StructMat<double> A = p.A;
  const std::size_t n = p.b.size();
  MGConfig cfg = config_full64();
  cfg.min_coarse_cells = 64;
  cfg.smoother = SmootherType::Jacobi;
  MGHierarchy h(std::move(p.A), cfg);
  auto M = make_mg_precond<double>(h);
  const LinOp<double> op = [&A](std::span<const double> x,
                                std::span<double> y) {
    spmv<double, double>(A, x, y);
  };
  const int k = 3;
  MultiVector<double> B(static_cast<std::int64_t>(n), k);
  MultiVector<double> X(static_cast<std::int64_t>(n), k);
  X.fill(0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (int c = 0; c < k; ++c) {
      B.at(static_cast<std::int64_t>(i), c) = p.b[i] * (1.0 + 0.5 * c);
    }
  }
  FmgOptions<double> opts;
  opts.rtol = 1e-9;
  opts.max_polish = 30;
  const auto many = fmg_solve_many<double>(op, B, X, *M, opts);
  EXPECT_TRUE(many.converged) << many.status();
  EXPECT_LT(many.final_relres, 1e-9);
  // Panel columns are bitwise identical to single-vector fmg_solve runs of
  // the same rhs when polished the same number of times (Jacobi smoother;
  // apply_many's column contract).
  avec<double> bc(n), xc(n), xs(n);
  for (int c = 0; c < k; ++c) {
    B.extract_col(c, {bc.data(), n});
    for (std::size_t i = 0; i < n; ++i) {
      xs[i] = 0.0;
    }
    FmgOptions<double> sopts;
    sopts.rtol = 0.0;
    sopts.max_polish = many.polish_iters;
    const auto single =
        fmg_solve<double>(op, {bc.data(), n}, {xs.data(), n}, *M, sopts);
    EXPECT_EQ(single.polish_iters, many.polish_iters);
    X.extract_col(c, {xc.data(), n});
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(xc[i], xs[i]) << "col " << c << " i=" << i;
    }
  }
}

TEST(FmgSolve, DiscToleranceScalesQuadratically) {
  const double t16 = fmg_disc_tolerance(Box{15, 15, 15});
  const double t32 = fmg_disc_tolerance(Box{31, 31, 31});
  EXPECT_NEAR(t16 / t32, 4.0, 1e-12);
  EXPECT_NEAR(t16, 1.0 / 256.0, 1e-15);
}

}  // namespace
}  // namespace smg
