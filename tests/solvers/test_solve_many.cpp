// Batched many-RHS solver tests.
//
// The load-bearing contract: solve_many() with k copies of one RHS
// reproduces the single-RHS pcg() bitwise in EVERY column — iterate,
// history, iteration count, status — across matrix layouts, storage
// precisions, smoother scheduling, and OpenMP thread counts (with
// deterministic_reductions, across thread counts too).  Plus the
// driver-level behaviors: distinct columns match their own single solves,
// batching/chunking and async change nothing, masks freeze converged
// columns, and the default PrecondBase::apply_many fallback works for
// preconditioners without a panel path.
#include <gtest/gtest.h>

#include <omp.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "core/mg_precond.hpp"
#include "kernels/blas1.hpp"
#include "kernels/spmv.hpp"
#include "problems/problem.hpp"
#include "solvers/cg.hpp"
#include "solvers/solve_many.hpp"
#include "util/rng.hpp"

namespace smg {
namespace {

LinOp<double> op_of(const StructMat<double>& A) {
  return [&A](std::span<const double> x, std::span<double> y) {
    spmv<double, double>(A, x, y);
  };
}

/// Bitwise comparison of a panel column against a contiguous reference.
::testing::AssertionResult col_bitwise_eq(const MultiVector<double>& X, int c,
                                          std::span<const double> ref) {
  if (static_cast<std::size_t>(X.rows()) != ref.size()) {
    return ::testing::AssertionFailure() << "size mismatch";
  }
  for (std::int64_t r = 0; r < X.rows(); ++r) {
    const double a = X.at(r, c);
    const double b = ref[static_cast<std::size_t>(r)];
    if (std::memcmp(&a, &b, sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "col " << c << " row " << r << ": " << a << " vs " << b;
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult result_matches(const SolveResult& got,
                                          const SolveResult& ref, int c) {
  if (got.converged != ref.converged || got.breakdown != ref.breakdown ||
      got.iters != ref.iters || got.heals != ref.heals) {
    return ::testing::AssertionFailure()
           << "col " << c << ": status " << got.status() << "/" << got.iters
           << " vs " << ref.status() << "/" << ref.iters;
  }
  if (got.history.size() != ref.history.size()) {
    return ::testing::AssertionFailure()
           << "col " << c << ": history length " << got.history.size()
           << " vs " << ref.history.size();
  }
  for (std::size_t i = 0; i < ref.history.size(); ++i) {
    if (std::memcmp(&got.history[i], &ref.history[i], sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "col " << c << ": history[" << i << "] " << got.history[i]
             << " vs " << ref.history[i];
    }
  }
  if (std::memcmp(&got.final_relres, &ref.final_relres, sizeof(double)) !=
      0) {
    return ::testing::AssertionFailure()
           << "col " << c << ": final_relres " << got.final_relres << " vs "
           << ref.final_relres;
  }
  return ::testing::AssertionSuccess();
}

/// Run single-RHS pcg and k-copy solve_many on one hierarchy; assert every
/// column is the single solve, bitwise.
void expect_copies_match_single(MGConfig cfg, int k, const SolveOptions& opts,
                                Box box = Box{10, 10, 10}) {
  auto p = make_laplace27(box);
  const StructMat<double> A = p.A;
  cfg.min_coarse_cells = 64;
  MGHierarchy h(std::move(p.A), cfg);
  auto M = make_mg_precond<double>(h);
  const std::size_t n = p.b.size();

  avec<double> x1(n, 0.0);
  const SolveResult single =
      pcg<double>(op_of(A), {p.b.data(), n}, {x1.data(), n}, *M, opts);
  ASSERT_TRUE(single.converged) << single.status();

  MultiVector<double> B(static_cast<std::int64_t>(n), k), X(
      static_cast<std::int64_t>(n), k);
  for (int c = 0; c < k; ++c) {
    B.insert_col(c, std::span<const double>{p.b.data(), n});
  }
  SolveManyOptions mopts;
  mopts.base = opts;
  const SolveManyResult many =
      solve_many<double>(make_spmv_many_op<double>(A), B, X, *M, mopts);
  ASSERT_EQ(many.columns.size(), static_cast<std::size_t>(k));
  EXPECT_TRUE(many.all_converged());
  for (int c = 0; c < k; ++c) {
    EXPECT_TRUE(result_matches(many.columns[static_cast<std::size_t>(c)],
                               single, c));
    EXPECT_TRUE(col_bitwise_eq(X, c, {x1.data(), n}));
  }
}

TEST(SolveMany, CopiesReproduceSingleHistoryAcrossStorageAndLayout) {
  SolveOptions opts;
  opts.max_iters = 60;
  for (Layout layout : {Layout::AOS, Layout::SOA, Layout::SOAL}) {
    for (int variant = 0; variant < 4; ++variant) {
      MGConfig cfg;
      switch (variant) {
        case 0:
          cfg = config_full64();
          break;
        case 1:
          cfg = config_k64p32d32();
          break;
        case 2:
          cfg = config_d16_setup_scale();
          break;
        default:
          cfg = config_d16_setup_scale();
          cfg.storage_ladder = {Prec::BF16};
          break;
      }
      cfg.layout = layout;
      SCOPED_TRACE(testing::Message() << "layout=" << static_cast<int>(layout)
                                      << " variant=" << variant);
      expect_copies_match_single(cfg, 3, opts);
    }
  }
}

TEST(SolveMany, CopiesReproduceSingleAcrossThreadsAndScheduling) {
  // deterministic_reductions + wavefront scheduling: the single solver is
  // thread-count invariant, and the panel must be too — bitwise, at every
  // thread count, k = 5 (a non-power-of-two width exercising padding).
  // The 24^3 box (13824 rows) spans three full 4096-row reduction blocks
  // and a tail; the 10^3 box fits in one block.
  SolveOptions opts;
  opts.max_iters = 60;
  opts.deterministic_reductions = true;
  const int saved = omp_get_max_threads();
  for (const Box box : {Box{10, 10, 10}, Box{24, 24, 24}}) {
    for (SmootherParallel sp :
         {SmootherParallel::Sequential, SmootherParallel::Wavefront}) {
      for (int nt : {1, 2, 4, 8}) {
        omp_set_num_threads(nt);
        MGConfig cfg = config_d16_setup_scale();
        cfg.smoother_parallel = sp;
        SCOPED_TRACE(testing::Message()
                     << "box=" << box.nx << " sp=" << to_string(sp)
                     << " threads=" << nt);
        expect_copies_match_single(cfg, 5, opts, box);
      }
    }
  }
  omp_set_num_threads(saved);
}

TEST(SolveMany, DistinctColumnsMatchTheirOwnSingleSolves) {
  // Different RHS per column — different convergence speeds, so the faster
  // columns freeze while the slower ones keep iterating.  Each column must
  // still be bitwise its own single-RHS solve.
  auto p = make_laplace27(Box{10, 10, 10});
  const StructMat<double> A = p.A;
  MGConfig cfg = config_d16_setup_scale();
  cfg.min_coarse_cells = 64;
  MGHierarchy h(std::move(p.A), cfg);
  auto M = make_mg_precond<double>(h);
  const std::size_t n = p.b.size();
  const int k = 3;

  MultiVector<double> B(static_cast<std::int64_t>(n), k), X(
      static_cast<std::int64_t>(n), k);
  std::vector<avec<double>> rhs(k);
  for (int c = 0; c < k; ++c) {
    rhs[static_cast<std::size_t>(c)].resize(n);
    Rng rng(17u * static_cast<unsigned>(c) + 3u);
    for (std::size_t i = 0; i < n; ++i) {
      // Column 0 is the smooth problem RHS, column 1 a rough random
      // vector, column 2 identically zero (converges at iteration 0, so
      // the masked updates must freeze it while the others iterate).
      rhs[static_cast<std::size_t>(c)][i] =
          c == 0 ? p.b[i] : (c == 1 ? rng.uniform(-1.0, 1.0) : 0.0);
    }
    B.insert_col(c, std::span<const double>{
                        rhs[static_cast<std::size_t>(c)].data(), n});
  }

  SolveOptions opts;
  opts.max_iters = 80;
  SolveManyOptions mopts;
  mopts.base = opts;
  const SolveManyResult many =
      solve_many<double>(make_spmv_many_op<double>(A), B, X, *M, mopts);
  ASSERT_EQ(many.columns.size(), static_cast<std::size_t>(k));

  bool iter_counts_differ = false;
  for (int c = 0; c < k; ++c) {
    avec<double> xc(n, 0.0);
    const SolveResult single = pcg<double>(
        op_of(A), {rhs[static_cast<std::size_t>(c)].data(), n},
        {xc.data(), n}, *M, opts);
    EXPECT_TRUE(result_matches(many.columns[static_cast<std::size_t>(c)],
                               single, c));
    EXPECT_TRUE(col_bitwise_eq(X, c, {xc.data(), n}));
    if (single.iters != many.columns[0].iters) {
      iter_counts_differ = true;
    }
  }
  // The point of the masked updates: columns really did freeze at
  // different iterations.
  EXPECT_TRUE(iter_counts_differ);
}

TEST(SolveMany, ChunkingAndEnvBatchDoNotChangeHistories) {
  auto p = make_laplace27(Box{8, 8, 8});
  const StructMat<double> A = p.A;
  MGConfig cfg = config_d16_setup_scale();
  cfg.min_coarse_cells = 64;
  MGHierarchy h(std::move(p.A), cfg);
  auto M = make_mg_precond<double>(h);
  const std::size_t n = p.b.size();
  const int k = 5;

  MultiVector<double> B(static_cast<std::int64_t>(n), k);
  for (int c = 0; c < k; ++c) {
    B.insert_col(c, std::span<const double>{p.b.data(), n});
  }
  SolveManyOptions mopts;
  mopts.base.max_iters = 60;

  MultiVector<double> X0(static_cast<std::int64_t>(n), k);
  const SolveManyResult whole =
      solve_many<double>(make_spmv_many_op<double>(A), B, X0, *M, mopts);
  EXPECT_EQ(whole.batches, 1);

  mopts.rhs_batch = 2;
  MultiVector<double> X1(static_cast<std::int64_t>(n), k);
  const SolveManyResult chunked =
      solve_many<double>(make_spmv_many_op<double>(A), B, X1, *M, mopts);
  EXPECT_EQ(chunked.batches, 3);  // 2 + 2 + 1
  ASSERT_EQ(chunked.columns.size(), whole.columns.size());
  for (int c = 0; c < k; ++c) {
    const auto cc = static_cast<std::size_t>(c);
    EXPECT_TRUE(result_matches(chunked.columns[cc], whole.columns[cc], c));
    avec<double> ref(n);
    X0.extract_col(c, {ref.data(), n});
    EXPECT_TRUE(col_bitwise_eq(X1, c, {ref.data(), n}));
  }

  // SMG_RHS_BATCH drives the same chunking when the option is unset.
  setenv("SMG_RHS_BATCH", "3", 1);
  mopts.rhs_batch = 0;
  MultiVector<double> X2(static_cast<std::int64_t>(n), k);
  const SolveManyResult envved =
      solve_many<double>(make_spmv_many_op<double>(A), B, X2, *M, mopts);
  unsetenv("SMG_RHS_BATCH");
  EXPECT_EQ(envved.batches, 2);  // 3 + 2
  for (int c = 0; c < k; ++c) {
    avec<double> ref(n);
    X0.extract_col(c, {ref.data(), n});
    EXPECT_TRUE(col_bitwise_eq(X2, c, {ref.data(), n}));
  }
}

// A malformed SMG_RHS_BATCH is fatal and names the variable and its
// accepted values; it never falls back to the whole panel silently.
class RhsBatchEnvDeathTest : public ::testing::TestWithParam<const char*> {
 protected:
  void TearDown() override { unsetenv("SMG_RHS_BATCH"); }
};

TEST_P(RhsBatchEnvDeathTest, RejectsMalformedBatch) {
  auto p = make_laplace27(Box{4, 4, 4});
  const std::size_t n = p.b.size();
  MultiVector<double> B(static_cast<std::int64_t>(n), 2), X(
      static_cast<std::int64_t>(n), 2);
  B.insert_col(0, std::span<const double>{p.b.data(), n});
  IdentityPrecond<double> M;
  setenv("SMG_RHS_BATCH", GetParam(), 1);
  EXPECT_DEATH(solve_many<double>(make_spmv_many_op<double>(p.A), B, X, M),
               "SMG_RHS_BATCH must be a positive integer");
}

INSTANTIATE_TEST_SUITE_P(Malformed, RhsBatchEnvDeathTest,
                         ::testing::Values("abc", "-2", "3x", " 3", "3 ", "0",
                                           "1.5"));

TEST(SolveMany, AsyncMatchesSync) {
  auto p = make_laplace27(Box{8, 8, 8});
  const StructMat<double> A = p.A;
  MGConfig cfg = config_full64();
  cfg.min_coarse_cells = 64;
  MGHierarchy h(std::move(p.A), cfg);
  auto M = make_mg_precond<double>(h);
  const std::size_t n = p.b.size();
  const int k = 4;

  MultiVector<double> B(static_cast<std::int64_t>(n), k);
  for (int c = 0; c < k; ++c) {
    B.insert_col(c, std::span<const double>{p.b.data(), n});
  }
  SolveManyOptions mopts;
  mopts.base.max_iters = 60;
  const LinOpMany<double> A_many = make_spmv_many_op<double>(A);

  MultiVector<double> Xs(static_cast<std::int64_t>(n), k);
  const SolveManyResult sync = solve_many<double>(A_many, B, Xs, *M, mopts);

  MultiVector<double> Xa(static_cast<std::int64_t>(n), k);
  std::future<SolveManyResult> fut =
      solve_many_async<double>(A_many, B, Xa, *M, mopts);
  const SolveManyResult async = fut.get();

  ASSERT_EQ(async.columns.size(), sync.columns.size());
  for (int c = 0; c < k; ++c) {
    const auto cc = static_cast<std::size_t>(c);
    EXPECT_TRUE(result_matches(async.columns[cc], sync.columns[cc], c));
    avec<double> ref(n);
    Xs.extract_col(c, {ref.data(), n});
    EXPECT_TRUE(col_bitwise_eq(Xa, c, {ref.data(), n}));
  }
}

TEST(SolveMany, ZeroColumnConvergesImmediatelyOthersProceed) {
  auto p = make_laplace27(Box{8, 8, 8});
  const StructMat<double> A = p.A;
  MGConfig cfg = config_full64();
  cfg.min_coarse_cells = 64;
  MGHierarchy h(std::move(p.A), cfg);
  auto M = make_mg_precond<double>(h);
  const std::size_t n = p.b.size();

  MultiVector<double> B(static_cast<std::int64_t>(n), 2), X(
      static_cast<std::int64_t>(n), 2);
  B.insert_col(1, std::span<const double>{p.b.data(), n});  // col 0 stays 0
  SolveManyOptions mopts;
  mopts.base.max_iters = 60;
  const SolveManyResult many =
      solve_many<double>(make_spmv_many_op<double>(A), B, X, *M, mopts);
  EXPECT_TRUE(many.columns[0].converged);
  EXPECT_EQ(many.columns[0].iters, 0);
  for (std::int64_t r = 0; r < X.rows(); ++r) {
    ASSERT_EQ(X.at(r, 0), 0.0);  // frozen column never touched
  }
  EXPECT_TRUE(many.columns[1].converged);
  EXPECT_GT(many.columns[1].iters, 0);
}

/// Self-healing identity with no panel override: exercises both the
/// PrecondBase::apply_many per-column fallback and the panel-wide recover
/// path of the batched driver.
class SelfHealingIdentity final : public PrecondBase<double> {
 public:
  void apply(std::span<const double> r, std::span<double> e) override {
    for (std::size_t i = 0; i < r.size(); ++i) {
      e[i] = broken_ ? std::numeric_limits<double>::quiet_NaN() : r[i];
    }
  }
  bool self_healing() const override { return true; }
  bool report_health(HealthEvent) override {
    if (!broken_) {
      return false;
    }
    broken_ = false;
    return true;
  }
  void reset() { broken_ = true; }

 private:
  bool broken_ = true;
};

TEST(SolveMany, PanelRecoverMatchesSingleSolverHealing) {
  // First preconditioner apply poisoned; the panel driver reports one
  // health event, restarts every column from the last finite iterate, and
  // each column reproduces the healed single solve bitwise (the fallback
  // apply_many applies the identity per column, so values match exactly).
  auto p = make_laplace27(Box{8, 8, 8});
  const std::size_t n = p.b.size();
  SolveOptions opts;
  opts.max_iters = 400;

  avec<double> x1(n, 0.0);
  SelfHealingIdentity M1;
  const SolveResult single =
      pcg<double>(op_of(p.A), {p.b.data(), n}, {x1.data(), n}, M1, opts);
  ASSERT_TRUE(single.converged) << single.status();
  ASSERT_EQ(single.heals, 1);

  const int k = 3;
  MultiVector<double> B(static_cast<std::int64_t>(n), k), X(
      static_cast<std::int64_t>(n), k);
  for (int c = 0; c < k; ++c) {
    B.insert_col(c, std::span<const double>{p.b.data(), n});
  }
  SelfHealingIdentity M2;
  SolveManyOptions mopts;
  mopts.base = opts;
  const SolveManyResult many =
      solve_many<double>(make_spmv_many_op<double>(p.A), B, X, M2, mopts);
  for (int c = 0; c < k; ++c) {
    EXPECT_TRUE(result_matches(many.columns[static_cast<std::size_t>(c)],
                               single, c));
    EXPECT_TRUE(col_bitwise_eq(X, c, {x1.data(), n}));
  }
}

TEST(SolveMany, PersistentlyBrokenPreconditionerBreaksDownAllColumns) {
  auto p = make_laplace27(Box{6, 6, 6});
  const std::size_t n = p.b.size();
  const int k = 2;
  MultiVector<double> B(static_cast<std::int64_t>(n), k), X(
      static_cast<std::int64_t>(n), k);
  for (int c = 0; c < k; ++c) {
    B.insert_col(c, std::span<const double>{p.b.data(), n});
  }
  // Poisoned on every apply and NOT self-healing: the recurrence goes
  // non-finite and every column must surface breakdown, not spin.
  class Broken final : public PrecondBase<double> {
   public:
    void apply(std::span<const double> r, std::span<double> e) override {
      for (std::size_t i = 0; i < r.size(); ++i) {
        e[i] = std::numeric_limits<double>::quiet_NaN();
      }
    }
  } M;
  SolveManyOptions mopts;
  mopts.base.max_iters = 50;
  const SolveManyResult many =
      solve_many<double>(make_spmv_many_op<double>(p.A), B, X, M, mopts);
  for (const SolveResult& r : many.columns) {
    EXPECT_TRUE(r.breakdown);
    EXPECT_FALSE(r.converged);
  }
}

}  // namespace
}  // namespace smg
