// The PCG recurrence (Alg. 2's Krylov driver) and its many-RHS front end.
//
// detail::batched_pcg is the one preconditioned-CG recurrence of the
// library: a lockstep recurrence over all k columns of a right-hand-side
// panel.  solve_many() runs it on the caller's panel with the panel
// preconditioner (apply_many); pcg() of solvers/cg.hpp runs it on a
// one-column panel with the single-vector apply.  Every matrix-shaped
// operation — the operator SpMV, every smoothing sweep, every transfer
// inside the MG preconditioner — streams its matrix ONCE for all k columns
// (the panel kernels of kernels/ and core/transfer.hpp), which is where the
// throughput win comes from: on a memory-bound machine the matrix bytes
// amortize over k solves (perfmodel/bytes.hpp *_many models).
//
// Per column the recurrence is the textbook single-RHS PCG:
//   * each column carries its own alpha/beta/rnorm recurrence scalars,
//     convergence target, history, and status;
//   * reductions are the panel dot_many/nrm2_many, whose every column is
//     bitwise dot_deterministic/nrm2_deterministic on that column, at any
//     thread count;
//   * a column that converges (or breaks down) FREEZES: the masked panel
//     updates (kernels/blas1.hpp axpy_cols/xpay_cols) skip it entirely and
//     its x never moves again, while the remaining columns keep iterating.
// Consequently every column of a panel — k copies of one RHS or k distinct
// RHS — is bitwise the single solve of that column, and both pcg() and
// solve_many() reproduce the reference recurrence of
// tests/solvers/pcg_oracle.hpp bitwise (tests/solvers/test_solve_many.cpp).
//
// SolveManyOptions::rhs_batch (or the SMG_RHS_BATCH environment variable)
// splits wide panels into sequential batches of at most that many columns,
// bounding the panel working set; 0/unset solves all columns in one batch.
// Batching never changes any column's history.
//
// solve_many_async() runs the whole batched solve on a detached thread and
// returns a std::future, so a driver can overlap RHS production with the
// previous batch's solve.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <span>
#include <vector>

#include "kernels/spmv.hpp"
#include "solvers/precond.hpp"
#include "solvers/solver_types.hpp"
#include "util/multivector.hpp"

namespace smg {

/// Y[c] = A X[c] for every panel column, one matrix pass.
template <class KT>
using LinOpMany =
    std::function<void(const MultiVector<KT>&, MultiVector<KT>&)>;

/// Panel operator streaming `A` once for all columns.  `A` must outlive
/// the returned op.
template <class KT>
LinOpMany<KT> make_spmv_many_op(const StructMat<KT>& A) {
  return [&A](const MultiVector<KT>& x, MultiVector<KT>& y) {
    spmv_many(A, x, y);
  };
}

struct SolveManyOptions {
  /// Per-column convergence criteria, iteration budget and self-healing
  /// knobs — the same meanings as the single-RHS solver.
  SolveOptions base;
  /// Columns per sequential batch; <= 0 consults SMG_RHS_BATCH (a positive
  /// integer), and when that is unset the whole panel solves in one batch.
  int rhs_batch = 0;
};

struct SolveManyResult {
  /// Per-column outcome, exactly a single-RHS SolveResult per column
  /// (solve_seconds/precond_seconds are the shared batch totals).
  std::vector<SolveResult> columns;
  double solve_seconds = 0.0;    ///< wall time of the whole batched solve
  double precond_seconds = 0.0;  ///< preconditioner share (all columns)
  int batches = 1;               ///< sequential batches actually run

  bool all_converged() const noexcept {
    for (const SolveResult& r : columns) {
      if (!r.converged) {
        return false;
      }
    }
    return !columns.empty();
  }
};

namespace detail {

/// The PCG recurrence over every column of X: `B` holds the right-hand
/// sides in X's panel layout (X.size() elements, padding zero), `A` is the
/// operator and `apply` the preconditioner E = M^{-1} R on panels; `M`
/// supplies timing, telemetry and self-healing.  Column c gets request ID
/// first_request + c.  solve_seconds and precond_seconds are left for the
/// caller to fill.
template <class KT>
std::vector<SolveResult> batched_pcg(const LinOpMany<KT>& A,
                                     const LinOpMany<KT>& apply,
                                     std::span<const KT> B,
                                     MultiVector<KT>& X, PrecondBase<KT>& M,
                                     const SolveOptions& opts,
                                     std::uint64_t first_request);

extern template std::vector<SolveResult> batched_pcg<double>(
    const LinOpMany<double>&, const LinOpMany<double>&,
    std::span<const double>, MultiVector<double>&, PrecondBase<double>&,
    const SolveOptions&, std::uint64_t);
extern template std::vector<SolveResult> batched_pcg<float>(
    const LinOpMany<float>&, const LinOpMany<float>&,
    std::span<const float>, MultiVector<float>&, PrecondBase<float>&,
    const SolveOptions&, std::uint64_t);

}  // namespace detail

/// Solve A X[c] = B[c] for every column.  X holds the initial guesses on
/// entry (padding columns of B and X must be zero, as MultiVector
/// guarantees after resize/insert_col).
template <class KT>
SolveManyResult solve_many(const LinOpMany<KT>& A, const MultiVector<KT>& B,
                           MultiVector<KT>& X, PrecondBase<KT>& M,
                           const SolveManyOptions& opts = {});

/// Asynchronous batched solve on a detached thread.  All referenced
/// objects (A, B, X, M) must stay alive and unused until the future is
/// ready; the preconditioner must not be shared with a concurrent solve.
template <class KT>
std::future<SolveManyResult> solve_many_async(const LinOpMany<KT>& A,
                                              const MultiVector<KT>& B,
                                              MultiVector<KT>& X,
                                              PrecondBase<KT>& M,
                                              const SolveManyOptions& opts = {});

extern template SolveManyResult solve_many<double>(
    const LinOpMany<double>&, const MultiVector<double>&,
    MultiVector<double>&, PrecondBase<double>&, const SolveManyOptions&);
extern template SolveManyResult solve_many<float>(
    const LinOpMany<float>&, const MultiVector<float>&, MultiVector<float>&,
    PrecondBase<float>&, const SolveManyOptions&);
extern template std::future<SolveManyResult> solve_many_async<double>(
    const LinOpMany<double>&, const MultiVector<double>&,
    MultiVector<double>&, PrecondBase<double>&, const SolveManyOptions&);
extern template std::future<SolveManyResult> solve_many_async<float>(
    const LinOpMany<float>&, const MultiVector<float>&, MultiVector<float>&,
    PrecondBase<float>&, const SolveManyOptions&);

}  // namespace smg
