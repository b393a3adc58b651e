// Progressive-precision storage ladder (DESIGN.md §12): per-level rung
// semantics, the SMG_STORAGE_LADDER env override, the §4.3 shift, bitwise
// equivalence of ladders that spell the same rungs, and
// convergence-neutrality of the FP8 coarse rungs.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

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

struct SolveOutcome {
  SolveResult res;
  avec<double> x;
  std::vector<Prec> storage;  ///< realized storage precision per level
};

SolveOutcome solve_outcome(const Problem& p, MGConfig cfg,
                           int max_iters = 400) {
  cfg.min_coarse_cells = 64;
  StructMat<double> A = p.A;
  MGHierarchy h(std::move(A), cfg);
  auto M = make_mg_precond<double>(h);
  const std::size_t n = p.b.size();
  SolveOutcome out;
  out.x.assign(n, 0.0);
  for (int l = 0; l < h.nlevels(); ++l) {
    out.storage.push_back(h.level(l).storage);
  }
  SolveOptions opts;
  opts.max_iters = max_iters;
  opts.rtol = 1e-8;
  // Fixed reduction order: iteration counts are thread-count independent
  // and two runs of one numerical configuration are bit-reproducible (the
  // bitwise assertions below depend on it).
  opts.deterministic_reductions = true;
  if (p.solver == "cg") {
    out.res = pcg<double>(op_of(p.A), {p.b.data(), n}, {out.x.data(), n}, *M,
                          opts);
  } else {
    out.res = pgmres<double>(op_of(p.A), {p.b.data(), n}, {out.x.data(), n},
                             *M, opts);
  }
  return out;
}

SolveResult solve_with(const Problem& p, MGConfig cfg, int max_iters = 400) {
  return solve_outcome(p, std::move(cfg), max_iters).res;
}

// --- storage_at / expand_ladder semantics ---

TEST(Ladder, StorageAtFollowsTheRungs) {
  MGConfig cfg;
  cfg.compute = Prec::FP32;
  cfg.storage_ladder = {Prec::FP16, Prec::FP16, Prec::FP8};
  EXPECT_EQ(cfg.storage_at(0), Prec::FP16);
  EXPECT_EQ(cfg.storage_at(1), Prec::FP16);
  EXPECT_EQ(cfg.storage_at(2), Prec::FP8);
  EXPECT_EQ(cfg.storage_at(7), Prec::FP8);  // last rung extends
  EXPECT_EQ(cfg.storage_at(-1), Prec::FP16);
  const std::vector<Prec> want = {Prec::FP16, Prec::FP16, Prec::FP8,
                                  Prec::FP8, Prec::FP8};
  EXPECT_EQ(cfg.expand_ladder(5), want);
}

TEST(LadderDeathTest, HierarchyRejectsAnEmptyLadder) {
  MGConfig cfg = config_d16_setup_scale();
  cfg.storage_ladder.clear();
  EXPECT_DEATH(MGHierarchy(make_laplace27(Box{6, 6, 6}).A, cfg),
               "storage_ladder is empty");
}

// --- SMG_STORAGE_LADDER / SMG_LADDER_MIN_LEVEL environment overrides ---

class LadderEnv : public ::testing::Test {
 protected:
  void TearDown() override {
    unsetenv("SMG_STORAGE_LADDER");
    unsetenv("SMG_LADDER_MIN_LEVEL");
  }
};

TEST_F(LadderEnv, ParsesSeparatorVariants) {
  MGConfig cfg;
  const std::vector<Prec> want = {Prec::FP16, Prec::FP8};
  for (const char* spec :
       {"fp16,fp8", "fp16 fp8", "fp16:fp8", "FP16,Fp8", "fp16 , fp8"}) {
    setenv("SMG_STORAGE_LADDER", spec, 1);
    bool auto_rungs = false;
    EXPECT_EQ(effective_storage_ladder(cfg, &auto_rungs), want) << spec;
    EXPECT_FALSE(auto_rungs);
  }
}

TEST_F(LadderEnv, AutoKeywordSetsTheFlag) {
  // "auto" keeps the configured ladder: its rungs cap the planner.
  MGConfig cfg;
  cfg.storage_ladder = {Prec::BF16, Prec::FP32};
  for (const char* spec : {"auto", "AUTO", "Auto"}) {
    setenv("SMG_STORAGE_LADDER", spec, 1);
    bool auto_rungs = false;
    EXPECT_EQ(effective_storage_ladder(cfg, &auto_rungs), cfg.storage_ladder)
        << spec;
    EXPECT_TRUE(auto_rungs) << spec;
  }
}

TEST_F(LadderEnv, UnsetOrEmptyDefersToConfig) {
  MGConfig cfg;
  cfg.storage_ladder = {Prec::BF16};
  setenv("SMG_STORAGE_LADDER", "", 1);
  bool auto_rungs = false;
  EXPECT_EQ(effective_storage_ladder(cfg, &auto_rungs), cfg.storage_ladder);
  EXPECT_FALSE(auto_rungs);
  unsetenv("SMG_STORAGE_LADDER");
  EXPECT_EQ(effective_storage_ladder(cfg, nullptr), cfg.storage_ladder);
}

TEST_F(LadderEnv, MinLevelOverride) {
  MGConfig cfg;
  EXPECT_EQ(effective_ladder_min_level(cfg), cfg.ladder_min_level);
  setenv("SMG_LADDER_MIN_LEVEL", "4", 1);
  EXPECT_EQ(effective_ladder_min_level(cfg), 4);
  setenv("SMG_LADDER_MIN_LEVEL", "0", 1);
  EXPECT_EQ(effective_ladder_min_level(cfg), 0);
}

// A malformed value is fatal and names the variable and its spellings; it
// never falls back to the config silently.
class LadderEnvDeathTest : public ::testing::TestWithParam<const char*> {
 protected:
  void TearDown() override { unsetenv("SMG_STORAGE_LADDER"); }
};

TEST_P(LadderEnvDeathTest, RejectsMalformedLadder) {
  setenv("SMG_STORAGE_LADDER", GetParam(), 1);
  EXPECT_DEATH(effective_storage_ladder(MGConfig{}, nullptr),
               "SMG_STORAGE_LADDER must be auto or a list of fp64, fp32, "
               "fp16, bf16 and fp8");
}

INSTANTIATE_TEST_SUITE_P(Malformed, LadderEnvDeathTest,
                         ::testing::Values("fp16,fp7", "half", ",",
                                           "auto,fp16", "fp16;fp8", " fp16",
                                           "auto "));

class MinLevelEnvDeathTest : public ::testing::TestWithParam<const char*> {
 protected:
  void TearDown() override { unsetenv("SMG_LADDER_MIN_LEVEL"); }
};

TEST_P(MinLevelEnvDeathTest, RejectsMalformedLevel) {
  setenv("SMG_LADDER_MIN_LEVEL", GetParam(), 1);
  EXPECT_DEATH(effective_ladder_min_level(MGConfig{}),
               "SMG_LADDER_MIN_LEVEL must be a non-negative integer");
}

INSTANTIATE_TEST_SUITE_P(Malformed, MinLevelEnvDeathTest,
                         ::testing::Values("-3", "abc", "2x", "1.5", " ",
                                           "2 ", " 2"));

// --- two spellings of the same rungs must solve bitwise identically, ---
// --- across layout x stencil x block size ---

using ProblemLayout = std::pair<std::string, Layout>;

class LadderBitwise : public ::testing::TestWithParam<ProblemLayout> {};

// `shorter` relies on the last rung extending to every coarser level; `longer`
// spells one rung per level of the same hierarchy.  The realized rungs, the
// iteration count and every bit of the solution must agree.
void expect_same_solve(const Problem& p, const std::string& name,
                       const MGConfig& shorter, const MGConfig& longer) {
  const SolveOutcome a = solve_outcome(p, shorter);
  const SolveOutcome b = solve_outcome(p, longer);
  ASSERT_TRUE(a.res.converged) << name;
  EXPECT_EQ(a.storage, b.storage) << name;
  EXPECT_EQ(a.res.iters, b.res.iters) << name;
  ASSERT_EQ(a.x.size(), b.x.size());
  for (std::size_t i = 0; i < a.x.size(); ++i) {
    ASSERT_EQ(a.x[i], b.x[i]) << name << " diverges at dof " << i;
  }
}

TEST_P(LadderBitwise, SpelledOutFp16LadderMatchesOneRung) {
  const auto& [name, layout] = GetParam();
  const Problem p = make_problem(name, Box{12, 12, 10});
  MGConfig one = config_d16_setup_scale();
  one.layout = layout;
  const int depth = static_cast<int>(solve_outcome(p, one).storage.size());
  ASSERT_GE(depth, 2) << name;

  MGConfig spelled = one;
  spelled.storage_ladder.assign(static_cast<std::size_t>(depth), Prec::FP16);
  expect_same_solve(p, name, one, spelled);
}

TEST_P(LadderBitwise, TwoRungShiftMatchesSpelledOutLadder) {
  // The paper's shift_levid = 1: level 0 in FP16, every coarser level in
  // the FP32 compute precision.
  const auto& [name, layout] = GetParam();
  const Problem p = make_problem(name, Box{12, 12, 10});
  MGConfig two = config_d16_setup_scale();
  two.layout = layout;
  two.storage_ladder = {Prec::FP16, Prec::FP32};
  const SolveOutcome ref = solve_outcome(p, two);
  const int depth = static_cast<int>(ref.storage.size());
  ASSERT_GE(depth, 2) << name;
  EXPECT_EQ(ref.storage.front(), Prec::FP16) << name;
  for (int l = 1; l < depth; ++l) {
    EXPECT_EQ(ref.storage[static_cast<std::size_t>(l)], Prec::FP32)
        << name << " level " << l;
  }

  MGConfig spelled = two;
  spelled.storage_ladder.assign(static_cast<std::size_t>(depth), Prec::FP32);
  spelled.storage_ladder.front() = Prec::FP16;
  expect_same_solve(p, name, two, spelled);
}

// laplace27: 27-point scalar; rhd3t: 7-point, 3x3 blocks; oil: 7-point
// scalar with a hard coefficient span — one problem per layout covers
// layout x stencil x block size without a full cross product.
INSTANTIATE_TEST_SUITE_P(
    LayoutStencilBlock, LadderBitwise,
    ::testing::Values(ProblemLayout{"laplace27", Layout::AOS},
                      ProblemLayout{"rhd3t", Layout::SOA},
                      ProblemLayout{"oil", Layout::SOAL},
                      ProblemLayout{"solid3d", Layout::SOAL}));

// --- FP8 coarse rungs: bytes strictly down, convergence neutral ---

TEST(Ladder, Fp8CoarseRungsAreConvergenceNeutral) {
  for (const char* name : {"laplace27", "rhd"}) {
    const Problem p = make_problem(name, Box{12, 12, 10});
    MGConfig fp16 = config_d16_setup_scale();
    MGConfig fp8 = fp16;
    fp8.storage_ladder = {Prec::FP16, Prec::FP16, Prec::FP8};

    const SolveResult a = solve_with(p, fp16);
    const SolveResult b = solve_with(p, fp8);
    ASSERT_TRUE(a.converged) << name;
    ASSERT_TRUE(b.converged) << name;
    EXPECT_LE(std::abs(a.iters - b.iters), 2) << name;
  }
}

TEST(Ladder, Fp8RungsShrinkStoredBytes) {
  const Problem p = make_problem("laplace27", Box{14, 14, 12});
  MGConfig fp16 = config_d16_setup_scale();
  fp16.min_coarse_cells = 64;
  MGConfig fp8 = fp16;
  fp8.storage_ladder = {Prec::FP16, Prec::FP16, Prec::FP8};

  StructMat<double> a = p.A;
  MGHierarchy h16(std::move(a), fp16);
  StructMat<double> b = p.A;
  MGHierarchy h8(std::move(b), fp8);
  ASSERT_GE(h8.nlevels(), 3);
  EXPECT_LT(h8.stored_matrix_bytes(), h16.stored_matrix_bytes());
  // FP8 levels are always scaled (four-decade range, §4.1 generalized).
  for (int l = 2; l < h8.nlevels(); ++l) {
    EXPECT_EQ(h8.level(l).storage, Prec::FP8);
    EXPECT_TRUE(h8.level(l).scaled) << "level " << l;
  }
}

// --- ladder-mode §4.3 shift keeps storage_at() consistent ---

TEST(Ladder, PlannerShiftRewritesTheLadder) {
  // laplace27e8's coefficients overflow FP16 unscaled; under ScaleMode::None
  // the Auto planner must veto FP16 at level 0, shift the whole hierarchy to
  // compute precision, and rewrite the ladder to match.
  const Problem p = make_problem("laplace27e8", Box{10, 10, 10});
  MGConfig cfg = config_d16_none();
  cfg.min_coarse_cells = 64;
  cfg.storage_ladder = {Prec::FP16};
  cfg.precision_policy = PrecisionPolicy::Auto;
  StructMat<double> A = p.A;
  MGHierarchy h(std::move(A), cfg);
  for (int l = 0; l < h.nlevels(); ++l) {
    EXPECT_EQ(h.level(l).storage, Prec::FP32) << "level " << l;
    EXPECT_EQ(h.config().storage_at(l), Prec::FP32) << "level " << l;
  }
  EXPECT_FALSE(h.autopilot_log().empty());
  EXPECT_EQ(h.autopilot_log().front().action, AutopilotAction::Shift);
}

// --- auto-rung planner ---

TEST(Ladder, AutoPlannerPicksFp8OnAdmissibleCoarseLevels) {
  const Problem p = make_problem("laplace27", Box{14, 14, 12});
  MGConfig cfg = config_d16_setup_scale();
  cfg.min_coarse_cells = 64;
  cfg.precision_policy = PrecisionPolicy::Auto;
  cfg.ladder_auto = true;
  StructMat<double> A = p.A;
  MGHierarchy h(std::move(A), cfg);
  ASSERT_GE(h.nlevels(), 3);
  // The realized ladder is published back into the config.
  ASSERT_EQ(h.config().storage_ladder.size(),
            static_cast<std::size_t>(h.nlevels()));
  bool any_fp8 = false;
  for (int l = 0; l < h.nlevels(); ++l) {
    EXPECT_EQ(h.config().storage_ladder[static_cast<std::size_t>(l)],
              h.level(l).storage);
    if (l < h.config().ladder_min_level) {
      EXPECT_NE(h.level(l).storage, Prec::FP8) << "level " << l;
    }
    any_fp8 = any_fp8 || h.level(l).storage == Prec::FP8;
  }
  // Scaled-and-truncated Poisson coarse operators clear the FP8 headroom.
  EXPECT_TRUE(any_fp8);
  bool logged_rung = false;
  for (const AutopilotDecision& d : h.autopilot_log()) {
    if (d.action == AutopilotAction::Rung) {
      logged_rung = true;
      EXPECT_EQ(d.to, Prec::FP8);
      EXPECT_GE(d.level, h.config().ladder_min_level);
    }
  }
  EXPECT_TRUE(logged_rung);

  // And the planned hierarchy still solves the problem.
  EXPECT_TRUE(solve_with(p, cfg).converged);
}

TEST(Ladder, AutoFlagIsInertUnderFixedPolicy) {
  const Problem p = make_problem("laplace27", Box{12, 12, 10});
  MGConfig cfg = config_d16_setup_scale();
  cfg.min_coarse_cells = 64;
  cfg.ladder_auto = true;  // policy stays Fixed: must be ignored
  StructMat<double> A = p.A;
  MGHierarchy h(std::move(A), cfg);
  EXPECT_FALSE(h.config().ladder_auto);
  for (int l = 0; l < h.nlevels(); ++l) {
    EXPECT_EQ(h.level(l).storage, Prec::FP16) << "level " << l;
  }
}

}  // namespace
}  // namespace smg
