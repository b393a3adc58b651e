// Preconditioned Conjugate Gradient in iterative precision KT.
//
// Nothing special happens here for FP16 — all paper optimizations live inside
// the preconditioner (Alg. 2): the solver merely truncates its residual on
// the way in and recovers the error correction on the way out, which the
// PrecondBase adapter performs.
//
// pcg() is the one-column case of the library's one PCG recurrence,
// detail::batched_pcg of solvers/solve_many.hpp, run with the single-vector
// M.apply (never apply_many).  Its reference is the plain single-RHS
// recurrence of tests/solvers/pcg_oracle.hpp, which it matches bitwise.
#pragma once

#include <span>

#include "solvers/precond.hpp"
#include "solvers/solver_types.hpp"

namespace smg {

/// Solve A x = b with PCG.  x holds the initial guess on entry.
template <class KT>
SolveResult pcg(const LinOp<KT>& A, std::span<const KT> b, std::span<KT> x,
                PrecondBase<KT>& M, const SolveOptions& opts = {});

extern template SolveResult pcg<double>(const LinOp<double>&,
                                        std::span<const double>,
                                        std::span<double>,
                                        PrecondBase<double>&,
                                        const SolveOptions&);
extern template SolveResult pcg<float>(const LinOp<float>&,
                                       std::span<const float>,
                                       std::span<float>, PrecondBase<float>&,
                                       const SolveOptions&);

}  // namespace smg
