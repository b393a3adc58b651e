// FMG near-direct solve driver (docs/CYCLE_SHAPES.md): one F-cycle apply
// of the multigrid preconditioner as the solver, plus optional V-cycle
// polish iterations.
//
// The F-cycle bootstraps every level's initial guess by FMG interpolation
// of the next-coarser solution, so a single apply lands within a small
// factor of discretization error — the classical FMG property.  fmg_solve
// makes that a first-class solve: it flips the preconditioner to
// CycleShape::F for the bootstrap apply, back to V for the polish
// corrections (x += M(b - A x)), and restores the caller's shape on exit.
//
// Stopping is either the usual relative-residual test or — when the caller
// provides manufactured-solution samples — the discretization-error test
// ||x - u*||_2 <= error_tol, which is the honest "did one F-cycle reach
// discretization error" question the bench suite gates on.
#pragma once

#include <span>
#include <vector>

#include "grid/box.hpp"
#include "solvers/precond.hpp"
#include "solvers/solver_types.hpp"
#include "util/multivector.hpp"

namespace smg {

template <class KT>
struct FmgOptions {
  /// V-cycle polish corrections after the F-cycle bootstrap (0: pure FMG).
  int max_polish = 8;
  /// Residual stop: ||b - A x||_2 / ||b||_2 < rtol.
  double rtol = 1e-10;
  /// Discretization-error stop: ||x - u_exact||_2 <= error_tol.  Active
  /// only when u_exact is non-empty and error_tol > 0; in the panel driver
  /// every column is measured against the same u_exact.
  double error_tol = 0.0;
  std::span<const KT> u_exact{};
  bool record_history = true;
  /// Fixed-blocking pairwise reductions (SolveOptions semantics).
  bool deterministic_reductions = true;
  /// Max NonFinite events reported to a self-healing preconditioner; each
  /// successful repair retries the failed apply from the last good iterate.
  int heal_retries = 4;
};

struct FmgResult {
  bool converged = false;
  bool breakdown = false;  ///< non-finite residual with no repair available
  int polish_iters = 0;    ///< V-cycle corrections actually applied
  int heals = 0;
  double final_relres = 0.0;
  /// ||x - u_exact||_2 after the last accepted iterate (-1 when no u_exact).
  double final_error = -1.0;
  std::vector<double> history;        ///< relres after bootstrap + polishes
  std::vector<double> error_history;  ///< matching ||x - u_exact||_2 values
  double solve_seconds = 0.0;
  double precond_seconds = 0.0;

  std::string status() const {
    if (breakdown) {
      return "breakdown";
    }
    return converged ? "converged" : "max-polish";
  }
};

/// x = FMG(b): one F-cycle from a zero guess, then up to max_polish V-cycle
/// corrections.  M must reshape (MGPrecondAdapter); a preconditioner that
/// refuses set_cycle_shape still solves, it just runs its native shape.
template <class KT>
FmgResult fmg_solve(const LinOp<KT>& A, std::span<const KT> b,
                    std::span<KT> x, PrecondBase<KT>& M,
                    const FmgOptions<KT>& opts = {});

/// Panel variant: X[c] = FMG(B[c]) for every column through apply_many (one
/// pass over each level's stored matrix per cycle for all columns).  The
/// result aggregates columns: converged when every column passed its stop,
/// final_relres/final_error are the column maxima.
template <class KT>
FmgResult fmg_solve_many(const LinOp<KT>& A, const MultiVector<KT>& B,
                         MultiVector<KT>& X, PrecondBase<KT>& M,
                         const FmgOptions<KT>& opts = {});

/// Discretization-error scale of a second-order stencil on `box`: h^order
/// with h = 1/(max dim + 1) (the MMS grids are unit cubes with Dirichlet
/// boundaries one spacing outside).  Callers multiply by their measured
/// ||u_h - u*|| constant; the bench suites compare against the exact
/// discrete solution instead and use a dimensionless ratio.
double fmg_disc_tolerance(const Box& box, int order = 2) noexcept;

extern template FmgResult fmg_solve<double>(const LinOp<double>&,
                                            std::span<const double>,
                                            std::span<double>,
                                            PrecondBase<double>&,
                                            const FmgOptions<double>&);
extern template FmgResult fmg_solve<float>(const LinOp<float>&,
                                           std::span<const float>,
                                           std::span<float>,
                                           PrecondBase<float>&,
                                           const FmgOptions<float>&);
extern template FmgResult fmg_solve_many<double>(const LinOp<double>&,
                                                 const MultiVector<double>&,
                                                 MultiVector<double>&,
                                                 PrecondBase<double>&,
                                                 const FmgOptions<double>&);
extern template FmgResult fmg_solve_many<float>(const LinOp<float>&,
                                                const MultiVector<float>&,
                                                MultiVector<float>&,
                                                PrecondBase<float>&,
                                                const FmgOptions<float>&);

}  // namespace smg
