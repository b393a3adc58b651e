// Krylov solver tests with identity and MG preconditioners.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/mg_precond.hpp"
#include "kernels/blas1.hpp"
#include "kernels/spmv.hpp"
#include "problems/problem.hpp"
#include "solvers/cg.hpp"
#include "solvers/gmres.hpp"
#include "solvers/richardson.hpp"
#include "util/rng.hpp"

namespace smg {
namespace {

template <class KT>
LinOp<KT> op_of(const StructMat<KT>& A) {
  return [&A](std::span<const KT> x, std::span<KT> y) {
    spmv<KT, KT>(A, x, y);
  };
}

/// ||b - A x|| / ||b||.
double true_relres(const StructMat<double>& A, std::span<const double> b,
                   std::span<const double> x) {
  avec<double> r(b.size());
  residual<double, double>(A, b, x, {r.data(), r.size()});
  return nrm2_deterministic<double>({r.data(), r.size()}) /
         nrm2_deterministic<double>(b);
}

TEST(CG, SolvesPoissonUnpreconditioned) {
  auto p = make_laplace27(Box{10, 10, 10});
  const std::size_t n = p.b.size();
  avec<double> x(n, 0.0);
  IdentityPrecond<double> id;
  SolveOptions opts;
  opts.max_iters = 400;
  opts.rtol = 1e-10;
  const auto res = pcg<double>(op_of(p.A), {p.b.data(), n}, {x.data(), n}, id,
                               opts);
  EXPECT_TRUE(res.converged) << res.status();
  EXPECT_LT(true_relres(p.A, {p.b.data(), n}, {x.data(), n}), 1e-9);
}

TEST(CG, HistoryIsMonotoneEnoughAndEndsBelowTol) {
  auto p = make_laplace27(Box{10, 10, 10});
  const std::size_t n = p.b.size();
  avec<double> x(n, 0.0);
  IdentityPrecond<double> id;
  SolveOptions opts;
  opts.max_iters = 400;
  const auto res = pcg<double>(op_of(p.A), {p.b.data(), n}, {x.data(), n}, id,
                               opts);
  ASSERT_GE(res.history.size(), 2u);
  EXPECT_NEAR(res.history.front(), 1.0, 1e-12);
  EXPECT_LT(res.history.back(), opts.rtol);
}

TEST(CG, MGPreconditionedPoissonConvergesInFewIterations) {
  auto p = make_laplace27(Box{17, 17, 17});
  const StructMat<double> A = p.A;
  MGConfig cfg = config_d16_setup_scale();
  cfg.min_coarse_cells = 64;
  MGHierarchy h(std::move(p.A), cfg);
  auto M = make_mg_precond<double>(h);
  const std::size_t n = p.b.size();
  avec<double> x(n, 0.0);
  SolveOptions opts;
  opts.max_iters = 60;
  const auto res =
      pcg<double>(op_of(A), {p.b.data(), n}, {x.data(), n}, *M, opts);
  EXPECT_TRUE(res.converged);
  // Paper Fig. 8: laplace27 converges in ~11 iterations.
  EXPECT_LE(res.iters, 25);
  EXPECT_LT(true_relres(A, {p.b.data(), n}, {x.data(), n}), 1e-9);
}

TEST(GMRES, SolvesNonsymmetricOilProblem) {
  auto p = make_oil(Box{12, 12, 8});
  const StructMat<double> A = p.A;
  MGConfig cfg = config_d16_setup_scale();
  cfg.min_coarse_cells = 64;
  MGHierarchy h(std::move(p.A), cfg);
  auto M = make_mg_precond<double>(h);
  const std::size_t n = p.b.size();
  avec<double> x(n, 0.0);
  SolveOptions opts;
  opts.max_iters = 200;
  opts.rtol = 1e-8;
  const auto res =
      pgmres<double>(op_of(A), {p.b.data(), n}, {x.data(), n}, *M, opts);
  EXPECT_TRUE(res.converged) << res.status();
  EXPECT_LT(true_relres(A, {p.b.data(), n}, {x.data(), n}), 1e-7);
}

TEST(GMRES, RestartStillConverges) {
  auto p = make_laplace27(Box{8, 8, 8});
  const std::size_t n = p.b.size();
  avec<double> x(n, 0.0);
  IdentityPrecond<double> id;
  SolveOptions opts;
  opts.restart = 10;  // force several restarts
  opts.max_iters = 500;
  opts.rtol = 1e-8;
  const auto res = pgmres<double>(op_of(p.A), {p.b.data(), n}, {x.data(), n},
                                  id, opts);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(true_relres(p.A, {p.b.data(), n}, {x.data(), n}), 1e-7);
}

TEST(GMRES, ZeroRhsReturnsImmediately) {
  auto p = make_laplace27(Box{6, 6, 6});
  const std::size_t n = p.b.size();
  avec<double> b(n, 0.0), x(n, 0.0);
  IdentityPrecond<double> id;
  const auto res =
      pgmres<double>(op_of(p.A), {b.data(), n}, {x.data(), n}, id);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iters, 0);
}

TEST(Richardson, MGStationarySolverConverges) {
  // Alg. 2 as written in the paper: stationary iteration + MG(FP16).
  auto p = make_laplace27(Box{13, 13, 13});
  const StructMat<double> A = p.A;
  MGConfig cfg = config_d16_setup_scale();
  cfg.min_coarse_cells = 64;
  MGHierarchy h(std::move(p.A), cfg);
  auto M = make_mg_precond<double>(h);
  const std::size_t n = p.b.size();
  avec<double> x(n, 0.0);
  SolveOptions opts;
  opts.max_iters = 80;
  opts.rtol = 1e-9;
  const auto res =
      richardson<double>(op_of(A), {p.b.data(), n}, {x.data(), n}, *M, opts);
  EXPECT_TRUE(res.converged);
}

TEST(Richardson, BreaksDownWithNaNPreconditioner) {
  // The "none" strategy on an out-of-range matrix: NaN must be detected and
  // reported as breakdown, not an infinite loop.
  auto p = make_laplace27e8(Box{10, 10, 10});
  const StructMat<double> A = p.A;
  MGConfig cfg = config_d16_none();
  cfg.min_coarse_cells = 64;
  MGHierarchy h(std::move(p.A), cfg);
  auto M = make_mg_precond<double>(h);
  const std::size_t n = p.b.size();
  avec<double> x(n, 0.0);
  SolveOptions opts;
  opts.max_iters = 20;
  const auto res =
      richardson<double>(op_of(A), {p.b.data(), n}, {x.data(), n}, *M, opts);
  EXPECT_TRUE(res.breakdown);
  EXPECT_FALSE(res.converged);
}

TEST(Solvers, Fp32IterativePrecisionWorks) {
  // K32: the weather case uses FP32 iterative precision in Table 3.
  auto p = make_laplace27(Box{10, 10, 10});
  StructMat<float> Af = convert<float>(p.A, Layout::SOA);
  const std::size_t n = p.b.size();
  avec<float> bf(n), x(n, 0.0f);
  for (std::size_t i = 0; i < n; ++i) {
    bf[i] = static_cast<float>(p.b[i]);
  }
  IdentityPrecond<float> id;
  SolveOptions opts;
  opts.max_iters = 400;
  opts.rtol = 1e-5;
  const auto res = pcg<float>(op_of(Af), {bf.data(), n}, {x.data(), n}, id,
                              opts);
  EXPECT_TRUE(res.converged);
}

/// Identity preconditioner that poisons exactly one apply (the `poison`-th)
/// with NaN — a transient stand-in for an FP16 overflow inside a V-cycle.
/// poison == 0 poisons every apply (a persistently broken preconditioner).
template <class KT>
class FlakyIdentity final : public PrecondBase<KT> {
 public:
  explicit FlakyIdentity(int poison) : poison_(poison) {}
  void apply(std::span<const KT> r, std::span<KT> e) override {
    ++count_;
    const bool bad = poison_ == 0 || count_ == poison_;
    for (std::size_t i = 0; i < r.size(); ++i) {
      e[i] = bad ? std::numeric_limits<KT>::quiet_NaN() : r[i];
    }
  }

 private:
  int poison_ = 0;
  int count_ = 0;
};

/// Self-healing identity: poisoned until the solver reports a health event,
/// then repaired once (models the Guarded adapter's repair ladder).
template <class KT>
class SelfHealingIdentity final : public PrecondBase<KT> {
 public:
  void apply(std::span<const KT> r, std::span<KT> e) override {
    for (std::size_t i = 0; i < r.size(); ++i) {
      e[i] = broken_ ? std::numeric_limits<KT>::quiet_NaN() : r[i];
    }
  }
  bool self_healing() const override { return true; }
  bool report_health(HealthEvent) override {
    if (!broken_) {
      return false;  // nothing left to repair
    }
    broken_ = false;
    return true;
  }

 private:
  bool broken_ = true;
};

TEST(GMRES, TransientNaNBreaksDownWithConsistentPrefixSolution) {
  // A NaN in the middle of an Arnoldi cycle: the solve must exit with
  // breakdown status AND an x formed from the finite Krylov prefix, with
  // final_relres recomputed against that x (not a stale/NaN estimate).
  auto p = make_laplace27(Box{8, 8, 8});
  const std::size_t n = p.b.size();
  avec<double> x(n, 0.0);
  FlakyIdentity<double> flaky(3);  // applies 1-2 fine, 3 poisoned
  SolveOptions opts;
  opts.max_iters = 100;
  const auto res =
      pgmres<double>(op_of(p.A), {p.b.data(), n}, {x.data(), n}, flaky, opts);
  EXPECT_TRUE(res.breakdown);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.status(), "breakdown");
  ASSERT_TRUE(std::isfinite(res.final_relres));
  // The two finite columns made real progress, and the reported residual
  // matches the returned iterate.
  EXPECT_LT(res.final_relres, 1.0);
  EXPECT_NEAR(res.final_relres, true_relres(p.A, {p.b.data(), n}, {x.data(), n}),
              1e-12);
}

TEST(GMRES, ImmediateNaNBreaksDownWithUntouchedIterate) {
  auto p = make_laplace27(Box{6, 6, 6});
  const std::size_t n = p.b.size();
  avec<double> x(n, 0.0);
  FlakyIdentity<double> broken(0);  // every apply poisoned
  SolveOptions opts;
  opts.max_iters = 50;
  const auto res = pgmres<double>(op_of(p.A), {p.b.data(), n}, {x.data(), n},
                                  broken, opts);
  EXPECT_TRUE(res.breakdown);
  ASSERT_TRUE(std::isfinite(res.final_relres));
  EXPECT_DOUBLE_EQ(res.final_relres, 1.0);  // no finite column, x untouched
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(x[i], 0.0);
  }
}

TEST(GMRES, ExactHappyBreakdownAboveToleranceIsSurfaced) {
  // The zero operator: H[1,0] == 0 exactly on the first column, and the
  // invariant Krylov subspace cannot reach the tolerance.  The old code
  // restarted from the same residual forever (max-iters); it must surface
  // as a breakdown with a consistent residual instead.
  const std::size_t n = 8;
  const LinOp<double> zero_op = [](std::span<const double>,
                                   std::span<double> y) {
    for (double& v : y) {
      v = 0.0;
    }
  };
  avec<double> b(n, 1.0), x(n, 0.0);
  IdentityPrecond<double> id;
  SolveOptions opts;
  opts.max_iters = 50;
  const auto res =
      pgmres<double>(zero_op, {b.data(), n}, {x.data(), n}, id, opts);
  EXPECT_TRUE(res.breakdown);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.iters, 1);  // detected on the first cycle, no silent spin
  EXPECT_DOUBLE_EQ(res.final_relres, 1.0);
}

TEST(CG, SelfHealingPreconditionerRecoversAndConverges) {
  // The very first preconditioner apply is poisoned; a self-healing M is
  // asked to repair, the recurrence restarts from the last finite iterate,
  // and the solve still converges.
  auto p = make_laplace27(Box{8, 8, 8});
  const std::size_t n = p.b.size();
  avec<double> x(n, 0.0);
  SelfHealingIdentity<double> M;
  SolveOptions opts;
  opts.max_iters = 400;
  const auto res =
      pcg<double>(op_of(p.A), {p.b.data(), n}, {x.data(), n}, M, opts);
  EXPECT_TRUE(res.converged) << res.status();
  EXPECT_EQ(res.heals, 1);
  EXPECT_LT(true_relres(p.A, {p.b.data(), n}, {x.data(), n}), 1e-9);
}

TEST(GMRES, SelfHealingPreconditionerRecoversAndConverges) {
  auto p = make_laplace27(Box{8, 8, 8});
  const std::size_t n = p.b.size();
  avec<double> x(n, 0.0);
  SelfHealingIdentity<double> M;
  SolveOptions opts;
  opts.max_iters = 400;
  opts.rtol = 1e-8;
  const auto res =
      pgmres<double>(op_of(p.A), {p.b.data(), n}, {x.data(), n}, M, opts);
  EXPECT_TRUE(res.converged) << res.status();
  EXPECT_EQ(res.heals, 1);
  EXPECT_FALSE(res.breakdown);
  EXPECT_LT(true_relres(p.A, {p.b.data(), n}, {x.data(), n}), 1e-7);
}

TEST(Solvers, PrecondTimeIsSubsetOfSolveTime) {
  auto p = make_laplace27(Box{13, 13, 13});
  const StructMat<double> A = p.A;
  MGConfig cfg = config_full64();
  cfg.min_coarse_cells = 64;
  MGHierarchy h(std::move(p.A), cfg);
  auto M = make_mg_precond<double>(h);
  const std::size_t n = p.b.size();
  avec<double> x(n, 0.0);
  const auto res =
      pcg<double>(op_of(A), {p.b.data(), n}, {x.data(), n}, *M);
  EXPECT_GT(res.precond_seconds, 0.0);
  EXPECT_LE(res.precond_seconds, res.solve_seconds);
}

}  // namespace
}  // namespace smg
