// Shared solver types: operator abstraction, options, results.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

namespace smg {

/// y = A x in iterative precision KT.
template <class KT>
using LinOp = std::function<void(std::span<const KT>, std::span<KT>)>;

struct SolveOptions {
  int max_iters = 500;
  double rtol = 1e-10;       ///< convergence: ||r||_2 / ||b||_2 < rtol
  bool record_history = true;
  int restart = 30;          ///< GMRES restart length m
  /// Use the fixed-order dot/nrm2 (kernels/blas1.hpp dot_deterministic):
  /// convergence histories become bitwise identical run-to-run and across
  /// OpenMP thread counts.  On by default.  `false` permits thread-dependent
  /// sums but does not require them: the single-RHS solvers then take the
  /// OpenMP-reduction dot, while solve_many reduces deterministically
  /// either way.
  bool deterministic_reductions = true;

  // --- self-healing feedback (PrecisionPolicy::Guarded only) ---
  // All three are inert unless the preconditioner reports self_healing():
  // the default-policy iteration stream stays bitwise identical.
  /// Max health events reported to a self-healing preconditioner per solve;
  /// each successful repair retries from the last good iterate.
  int heal_retries = 4;
  /// Report Stagnation when the relative residual fails to shrink by
  /// `stagnation_factor` over this many consecutive iterations (<= 0: off).
  int stagnation_window = 25;
  double stagnation_factor = 0.9;

  // --- request tracing (src/obs/metrics.hpp) ---
  /// Request ID carried by this solve's telemetry spans and SolveResult.
  /// 0 (the default) draws the next ID from the process-wide counter;
  /// solve_many assigns one consecutive ID per right-hand-side column.
  /// Pure bookkeeping: no effect on the iteration stream.
  std::uint64_t request_id = 0;
};

struct SolveResult {
  bool converged = false;
  /// Unrecoverable numerical failure: NaN/inf (e.g. FP16 overflow) or an
  /// exact Krylov breakdown that left the residual above tolerance.  The
  /// returned x is always consistent with final_relres (formed from the
  /// finite Krylov prefix; the true residual is recomputed before exit).
  bool breakdown = false;
  int iters = 0;
  /// Successful self-healing repairs (report_health returning true) the
  /// solver retried through; 0 unless the preconditioner is Guarded.
  int heals = 0;
  double final_relres = 0.0;
  std::vector<double> history;  ///< relative residual norm per iteration
  double solve_seconds = 0.0;
  double precond_seconds = 0.0;
  /// ID this solve served (SolveOptions::request_id, or the auto-assigned
  /// one); filter the Chrome trace on it to pull one solve out of a batch.
  std::uint64_t request_id = 0;

  std::string status() const {
    if (breakdown) {
      return "breakdown";
    }
    return converged ? "converged" : "max-iters";
  }
};

}  // namespace smg
