// Diagonal scaling for safe FP16 truncation (§4.1, Theorem 4.1).
//
// Given A with positive diagonal (M-matrix territory), choose
//   Q = diag(A) / G,   Â = Q^{-1/2} A Q^{-1/2}
// so every entry of Â is  G * a_ij / sqrt(a_ii * a_jj).  Overflow is avoided
// for any G < G_max = S * min_{ij} sqrt(a_ii a_jj) / |a_ij| with
// S = FP16_MAX.  (The paper states the bound with a max; the safe direction
// is the min over entries — the two coincide for the diagonally dominant
// matrices of interest where the worst ratio is attained at the diagonal.)
//
// For block matrices the per-dof diagonal a_rr is the (br,br) entry of the
// center block, and the same formula applies entrywise.
#pragma once

#include <limits>

#include "sgdia/struct_matrix.hpp"
#include "util/aligned.hpp"

namespace smg {

struct ScaleResult {
  bool applied = false;
  /// False when a per-dof diagonal entry was zero, negative, or non-finite:
  /// sqrt(d_r d_c) is then undefined and no Q exists.  The matrix is left
  /// untouched; callers fall back to unscaled compute-precision storage.
  bool diag_ok = true;
  double G = 0.0;
  double gmax = 0.0;
  /// sqrt(q_r) per dof with q_r = a_rr / G; kernels recover
  /// A = diag(q2) Â diag(q2).  Empty when !applied.
  avec<double> q2;
};

/// True iff every per-dof diagonal entry is strictly positive and finite
/// (the precondition of Theorem 4.1's Q = diag(A)/G).
bool diagonal_positive(const StructMat<double>& A);

/// Largest admissible G per Theorem 4.1 for the given target upper bound S.
/// Returns +inf for an all-zero matrix and quiet NaN when the diagonal has a
/// zero/negative/non-finite entry (no admissible G exists).
double compute_gmax(const StructMat<double>& A, double S);

/// Scale A in place to Â = Q^{-1/2} A Q^{-1/2} with G = safety * G_max.
/// On a zero/negative/non-finite diagonal entry the matrix is left untouched
/// and the result reports applied == false, diag_ok == false.
ScaleResult scale_matrix(StructMat<double>& A, double safety, double S);

/// Magnitude range of the stored entries; NaN entries are skipped.
struct AbsRange {
  double max_abs = 0.0;
  /// Smallest nonzero |a| (for underflow diagnostics); +inf if all-zero.
  double min_nonzero = std::numeric_limits<double>::infinity();
};

/// One parallel pass computing both ends of the range.  Max and min are
/// exact reductions, so the result does not depend on the thread count.
AbsRange abs_range(const StructMat<double>& A);

/// Largest absolute value over stored entries.
double max_abs_value(const StructMat<double>& A);

/// Smallest nonzero absolute value over stored entries; +inf if all-zero.
double min_abs_nonzero(const StructMat<double>& A);

}  // namespace smg
