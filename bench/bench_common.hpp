// Shared helpers for the paper-reproduction benchmarks.
//
// Each bench binary regenerates one table or figure of the paper on this
// host's scale: problem sizes are reduced (single core vs 64-node clusters)
// but the reported series keep the paper's structure, so shapes are directly
// comparable.  See EXPERIMENTS.md for the recorded side-by-side.
#pragma once

#include <cstdio>
#include <string>

#include "core/mg_precond.hpp"
#include "kernels/spmv.hpp"
#include "problems/problem.hpp"
#include "solvers/cg.hpp"
#include "solvers/gmres.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace smg::bench {

/// Host-scaled default box per problem (paper sizes are 2M-637M dofs).
/// Sizes are chosen so every FP64 finest-level matrix exceeds the last-level
/// cache — the memory-bound regime the paper's speedup model assumes.
inline Box default_box(std::string_view name) {
  if (name == "laplace27" || name == "laplace27e8") {
    return Box{44, 44, 44};  // 27-pt: ~18 MB fp64 matrix
  }
  if (name == "rhd") {
    return Box{56, 56, 56};  // 7-pt: ~10 MB
  }
  if (name == "oil") {
    return Box{64, 64, 28};  // 7-pt: ~6.5 MB
  }
  if (name == "weather") {
    return Box{48, 48, 24};  // 19-pt: ~8.5 MB
  }
  if (name == "rhd3t") {
    return Box{28, 28, 28};  // 7-pt r=3: ~11 MB
  }
  if (name == "oil4c") {
    return Box{24, 24, 24};  // 7-pt r=4: ~12 MB
  }
  if (name == "solid3d") {
    return Box{22, 22, 22};  // 15-pt r=3: ~11.5 MB
  }
  return Box{24, 24, 24};
}

struct E2EResult {
  SolveResult solve;
  double setup_seconds = 0.0;
  double precond_seconds = 0.0;
  double total_seconds = 0.0;
  double other_seconds = 0.0;
};

/// Full workflow: hierarchy setup + preconditioned Krylov solve, timed by
/// phase exactly as Fig. 8/9 splits them (setup / MG preconditioner / other).
/// The Krylov dot/nrm2 have one fixed summation order, so histories are
/// bitwise reproducible at any OpenMP thread count.
inline E2EResult run_e2e(const Problem& p, MGConfig cfg, int max_iters = 400,
                         double rtol = 1e-9) {
  E2EResult out;
  StructMat<double> A = p.A;

  Timer setup_t;
  MGHierarchy h(std::move(A), cfg);
  auto M = make_mg_precond<double>(h);
  out.setup_seconds = setup_t.seconds();

  const LinOp<double> op = [&p](std::span<const double> x,
                                std::span<double> y) {
    spmv<double, double>(p.A, x, y);
  };
  const std::size_t n = p.b.size();
  avec<double> x(n, 0.0);
  SolveOptions opts;
  opts.max_iters = max_iters;
  opts.rtol = rtol;

  if (p.solver == "cg") {
    out.solve = pcg<double>(op, {p.b.data(), n}, {x.data(), n}, *M, opts);
  } else {
    out.solve = pgmres<double>(op, {p.b.data(), n}, {x.data(), n}, *M, opts);
  }
  out.precond_seconds = out.solve.precond_seconds;
  out.total_seconds = out.setup_seconds + out.solve.solve_seconds;
  out.other_seconds = out.total_seconds - out.setup_seconds -
                      out.precond_seconds;
  return out;
}

inline void print_header(const char* what, const char* paper_ref) {
  std::printf("==================================================\n");
  std::printf("%s\n", what);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("==================================================\n");
}

}  // namespace smg::bench
