// Sample bookkeeping of the benchmark: medians, the round-robin repetition
// order, per-problem-median sums, solve tallies, metric-name rules and the
// answer check every solve goes through.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sgdia/struct_matrix.hpp"
#include "solvers/solver_types.hpp"
#include "util/aligned.hpp"

namespace perfbench {

/// Median of `v` (mean of the two middle values for even sizes); 0 when
/// empty.
double median(std::vector<double> v);

/// Repetition order of a suite: every round visits every problem once, in
/// problem order, before the next round starts.  A neighbour's stall thus
/// lands on one sample of one problem per round instead of on a run of
/// consecutive samples of the same problem.  Pairs are (round, problem).
std::vector<std::pair<int, int>> round_robin(int rounds, int nproblems);

/// Whether a time-bounded loop starts another round: always until
/// `min_rounds` are done, then only while one more round of the mean length
/// so far still ends within `budget` seconds.  A run thus measures for about
/// `budget` seconds instead of overshooting by up to a whole round.
bool another_round(int done, int min_rounds, double elapsed, double budget);

/// Per-problem samples of one quantity: samples[p] holds problem p's values
/// across the run's repetitions.
using PerProblem = std::vector<std::vector<double>>;

/// Sum over problems of each problem's median.  Problems without samples
/// contribute 0.
double sum_of_medians(const PerProblem& samples);

/// Solves attempted and failed.  A solve counts as failed unless it passed
/// the answer check, so a capped or broken-down solve is a failure.
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  void add(bool passed) {
    ++attempted;
    if (!passed) {
      ++failed;
    }
  }
  /// Passed over attempted; 0 when nothing was attempted.
  double ok_frac() const {
    return attempted > 0
               ? static_cast<double>(attempted - failed) /
                     static_cast<double>(attempted)
               : 0.0;
  }
};

/// A metric name starts with a letter or digit and holds at most 64
/// letters, digits, '_', '.' and '-'.
bool valid_metric_name(std::string_view name);

/// Outcome of the answer check of one solve.
struct SolveCheck {
  bool passed = false;
  double true_relres = 0.0;  ///< ||b - A x|| / ||b|| recomputed in FP64
  double error_rel = 0.0;    ///< ||x - x*|| / ||x*||
};

/// Recompute the true relative residual of `x` with spmv<double,double> on
/// the original FP64 matrix.  The solve passes only when the solver reports
/// convergence without breakdown and the true residual is finite and
/// <= rtol.
SolveCheck check_solve(const smg::StructMat<double>& A,
                       std::span<const double> b, std::span<const double> x,
                       std::span<const double> xstar,
                       const smg::SolveResult& res, double rtol);

/// The seeded exact solution x* of right-hand side `stream` of a workload
/// run: uniform in [-1, 1), a pure function of (seed, stream, n).
smg::avec<double> seeded_solution(std::uint64_t seed, std::uint64_t stream,
                                  std::int64_t n);

/// b = A x*.
smg::avec<double> make_rhs(const smg::StructMat<double>& A,
                           std::span<const double> xstar);

}  // namespace perfbench
