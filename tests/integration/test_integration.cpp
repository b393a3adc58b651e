// End-to-end integration tests: full solver workflows per problem and
// precision configuration — the executable form of the paper's headline
// claims at test scale.
#include <gtest/gtest.h>

#include <cmath>

#include "core/mg_precond.hpp"
#include "kernels/spmv.hpp"
#include "problems/problem.hpp"
#include "solvers/cg.hpp"
#include "solvers/gmres.hpp"

namespace smg {
namespace {

LinOp<double> op_of(const StructMat<double>& A) {
  return [&A](std::span<const double> x, std::span<double> y) {
    spmv<double, double>(A, x, y);
  };
}

SolveResult solve_with(const Problem& p, MGConfig cfg, int max_iters = 300,
                       double rtol = 1e-8) {
  cfg.min_coarse_cells = 64;
  StructMat<double> A = p.A;  // keep p reusable
  MGHierarchy h(std::move(A), cfg);
  auto M = make_mg_precond<double>(h);
  const std::size_t n = p.b.size();
  avec<double> x(n, 0.0);
  SolveOptions opts;
  opts.max_iters = max_iters;
  opts.rtol = rtol;
  if (p.solver == "cg") {
    return pcg<double>(op_of(p.A), {p.b.data(), n}, {x.data(), n}, *M, opts);
  }
  return pgmres<double>(op_of(p.A), {p.b.data(), n}, {x.data(), n}, *M, opts);
}

class AllProblemsFp16 : public ::testing::TestWithParam<std::string> {};

TEST_P(AllProblemsFp16, SetupThenScaleConverges) {
  const Problem p = make_problem(GetParam(), Box{12, 12, 10});
  const auto res = solve_with(p, config_d16_setup_scale());
  EXPECT_TRUE(res.converged) << GetParam() << ": " << res.status()
                             << " relres=" << res.final_relres;
}

TEST_P(AllProblemsFp16, Full64Converges) {
  const Problem p = make_problem(GetParam(), Box{12, 12, 10});
  const auto res = solve_with(p, config_full64());
  EXPECT_TRUE(res.converged) << GetParam() << ": " << res.status();
}

TEST_P(AllProblemsFp16, Fp16IterCountCloseToFull64) {
  // The paper's central claim: with setup-then-scale, FP16 storage costs few
  // or no extra iterations (Fig. 8: 11->11, 55->65, 20->20, ...).
  const Problem p = make_problem(GetParam(), Box{12, 12, 10});
  const auto full = solve_with(p, config_full64());
  const auto mix = solve_with(p, config_d16_setup_scale());
  ASSERT_TRUE(full.converged);
  ASSERT_TRUE(mix.converged) << GetParam();
  EXPECT_LE(mix.iters, static_cast<int>(std::ceil(full.iters * 1.6)) + 2)
      << GetParam() << ": full=" << full.iters << " mix=" << mix.iters;
}

INSTANTIATE_TEST_SUITE_P(EveryProblem, AllProblemsFp16,
                         ::testing::ValuesIn(problem_names()));

TEST(Integration, NoneStrategyFailsExactlyWhereThePaperSaysIt) {
  // Fig. 6: K64P32D16-none works only for laplace27 (in range); it breaks
  // down on every out-of-range problem.
  for (const auto& name : {"laplace27", "laplace27e8", "rhd"}) {
    const Problem p = make_problem(name, Box{10, 10, 10});
    const auto res = solve_with(p, config_d16_none(), 60);
    if (std::string(name) == "laplace27") {
      EXPECT_TRUE(res.converged) << name;
    } else {
      EXPECT_TRUE(res.breakdown || !res.converged) << name;
    }
  }
}

TEST(Integration, SetupScaleBeatsScaleSetupOnRhd) {
  // Fig. 6(d): scale-then-setup stalls/diverges on rhd while
  // setup-then-scale converges.
  const Problem p = make_problem("rhd", Box{12, 12, 10});
  const auto ours = solve_with(p, config_d16_setup_scale(), 200);
  const auto ablation = solve_with(p, config_d16_scale_setup(), 200);
  EXPECT_TRUE(ours.converged);
  if (ablation.converged) {
    // If it converges at all, it must be slower.
    EXPECT_GT(ablation.iters, ours.iters);
  }
}

TEST(Integration, ShiftLevidRecoversUnderflowLosses) {
  // §4.3: switching coarse levels back to FP32 storage must never hurt, and
  // the resulting solver converges at least as fast.
  const Problem p = make_problem("rhd", Box{12, 12, 10});
  MGConfig without = config_d16_setup_scale();
  MGConfig with = without;
  with.storage_ladder = {Prec::FP16, Prec::FP32};  // shift_levid = 1
  const auto r1 = solve_with(p, without, 300);
  const auto r2 = solve_with(p, with, 300);
  ASSERT_TRUE(r1.converged);
  ASSERT_TRUE(r2.converged);
  EXPECT_LE(r2.iters, r1.iters + 2);
}

TEST(Integration, Bf16NeedsNoScalingButCostsAccuracy) {
  // §8: BF16 never overflows (no scaling needed) but converges no faster
  // than FP16 and typically slower.
  const Problem p = make_problem("rhd", Box{12, 12, 10});
  MGConfig bf = config_d16_setup_scale();
  bf.storage_ladder = {Prec::BF16};
  StructMat<double> A = p.A;
  MGConfig probe = bf;
  probe.min_coarse_cells = 64;
  MGHierarchy h(std::move(A), probe);
  EXPECT_EQ(h.total_truncation().overflowed, 0u);
  for (int l = 0; l < h.nlevels(); ++l) {
    EXPECT_FALSE(h.level(l).scaled);  // BF16 range needs no Q
  }

  const auto r16 = solve_with(p, config_d16_setup_scale(), 400);
  const auto rb16 = solve_with(p, bf, 400);
  ASSERT_TRUE(r16.converged);
  ASSERT_TRUE(rb16.converged);
  EXPECT_GE(rb16.iters, r16.iters);
}

TEST(Integration, PreconditionerDominatesRuntime) {
  // §1: MG preconditioners consume most of the solve - the Amdahl headroom
  // for FP16.  Sanity-check on a mid-size Poisson.
  const Problem p = make_problem("laplace27", Box{20, 20, 20});
  const auto res = solve_with(p, config_full64());
  ASSERT_TRUE(res.converged);
  EXPECT_GT(res.precond_seconds / res.solve_seconds, 0.5);
}

TEST(Integration, LargerGridsStillConverge) {
  const Problem p = make_problem("laplace27", Box{28, 28, 28});
  const auto res = solve_with(p, config_d16_setup_scale());
  EXPECT_TRUE(res.converged);
  EXPECT_LE(res.iters, 30);
}

}  // namespace
}  // namespace smg
