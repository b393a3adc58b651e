// Multigrid hierarchy setup — MG_setup_for_FP16 (Alg. 1).
//
// The full setup (Galerkin chain, smoother data, coarsest factorization) runs
// in FP64.  Only afterwards, per level, the matrix is (optionally scaled and)
// truncated into the configured storage precision — the setup-then-scale
// strategy.  With ScaleMode::ScaleThenSetup the finest matrix is scaled
// *before* the chain instead (the ablation baseline whose triple products are
// polluted by the scaling).
//
// Under PrecisionPolicy::Auto/Guarded the per-level truncation consults the
// setup-time autopilot planner (core/autopilot.hpp), and under Guarded each
// scaled level retains its FP64 scaled copy so the runtime governor can
// rescale or promote it in place — without redoing the Galerkin chain.
#pragma once

#include <vector>

#include "core/autopilot.hpp"
#include "core/config.hpp"
#include "core/dense_lu.hpp"
#include "core/scaling.hpp"
#include "core/transfer.hpp"
#include "grid/wavefront.hpp"
#include "sgdia/any_matrix.hpp"

namespace smg {

struct Level {
  StructMat<double> A_full;  ///< FP64 operator of this level
  AnyMat A_stored;           ///< truncated operator used in the V-cycle
  /// FP64 scaled copy retained under PrecisionPolicy::Guarded (empty
  /// otherwise, and on unscaled levels): the source the runtime governor
  /// re-truncates from on a rescale or promotion.
  StructMat<double> A_setup;
  bool scaled = false;  ///< A_stored holds Q^{-1/2} A Q^{-1/2}
  /// Theorem 4.1's precondition failed (zero/negative/non-finite diagonal
  /// entry): the level fell back to unscaled compute-precision storage.
  bool degenerate_diag = false;
  avec<double> q2;           ///< sqrt(diag(A)/G) per dof; empty if !scaled
  avec<double> invdiag;      ///< smoother diagonal-block inverses (FP64)
  Coarsening to_coarse;      ///< geometry to the next level (unused on last)
  TruncateReport trunc;      ///< truncation stats of the *current* A_stored
  double gmax = 0.0;         ///< Theorem 4.1 bound (0 if not scaled)
  double g = 0.0;            ///< scaling target actually used (0 if !scaled)
  /// Magnitude range of the values handed to truncation (the scaled copy
  /// when scaled, the raw operator otherwise); telemetry's overflow /
  /// underflow headroom ledger.
  double stored_min_abs = 0.0;  ///< smallest nonzero |a_ij|; 0 if all-zero
  double stored_max_abs = 0.0;
  Prec storage = Prec::FP64;
  /// Level-scheduled SymGS sweep plan; invalid means "sequential sweep"
  /// (Sequential mode, wavefront-incompatible stencil, or a level the Auto
  /// heuristic judged too small).  Computed once at setup.
  WavefrontSchedule smoother_wf;
};

class MGHierarchy {
 public:
  MGHierarchy(StructMat<double> A0, MGConfig cfg);

  int nlevels() const noexcept { return static_cast<int>(levels_.size()); }
  const Level& level(int l) const noexcept {
    return levels_[static_cast<std::size_t>(l)];
  }
  const MGConfig& config() const noexcept { return cfg_; }
  const DenseLU& coarse_solver() const noexcept { return coarse_lu_; }

  /// ScaleThenSetup wraps the finest level with Q^{-1/2} on both sides.
  bool finest_wrapped() const noexcept { return finest_wrapped_; }
  const avec<double>& finest_q2() const noexcept { return finest_q2_; }

  /// Grid complexity C_G = sum_l n_l / n_0 (Eq. 3).
  double grid_complexity() const noexcept;
  /// Operator complexity C_O = sum_l nnz_l / nnz_0 (Eq. 3).
  double operator_complexity() const noexcept;

  /// Bytes of matrix storage actually used by the V-cycle.
  std::size_t stored_matrix_bytes() const noexcept;
  /// Bytes the same hierarchy would use with FP64 storage (speedup model).
  std::size_t fp64_matrix_bytes() const noexcept;

  double setup_seconds() const noexcept { return setup_seconds_; }

  /// Total truncation events across levels (NaN risk diagnostics).
  TruncateReport total_truncation() const noexcept;

  // --- precision autopilot (core/autopilot.hpp, DESIGN.md §9) ---

  /// The effective precision policy (config resolved against the
  /// SMG_PRECISION_POLICY environment override at construction).
  PrecisionPolicy policy() const noexcept { return cfg_.precision_policy; }
  /// Autopilot tunables this hierarchy was planned with.
  const AutopilotThresholds& thresholds() const noexcept { return th_; }
  /// Every decision the planner and governor took, in order.
  const std::vector<AutopilotDecision>& autopilot_log() const noexcept {
    return autopilot_log_;
  }

  /// Re-truncate level `l` at G = new_safety * G_max, in place, from the
  /// retained FP64 scaled setup matrix.  The scaled matrix is linear in G,
  /// so this is a scalar rescale + re-truncation — no Galerkin redo.  False
  /// when the level is unscaled, has no retained setup copy, or the rescale
  /// would be a no-op.
  bool rescale_level(int l, double new_safety, AutopilotTrigger trig);

  /// Widen level `l`'s storage to `to`, re-truncating the retained setup
  /// matrix (scaled levels) or the FP64 operator.  Smoother data follows.
  /// False when `to` does not widen the current storage.
  bool promote_level(int l, Prec to, AutopilotTrigger trig);

 private:
  /// Per-level scale-and-truncate (Alg. 1 lines 4-13) plus the autopilot
  /// planner when precision_policy != Fixed.
  void setup_level_storage(int l);
  /// Auto-rung ladder planner: the cheapest storage format (FP8 first, then
  /// the configured base rung) whose scaled value distribution clears the
  /// Theorem 4.1 headroom thresholds.  Returns the base rung when nothing
  /// cheaper is admissible; compute precision is never proposed here — that
  /// remains the §4.3 shift path's job.
  Prec plan_rung(int l, const StructMat<double>& A, const AbsRange& range);
  /// §4.3 monotone shift: level `l` and every coarser level fall back to
  /// compute precision.  Rewrites the storage ladder so storage_at() agrees.
  void shift_to_compute(int l);
  /// Truncate lev.A_full, whose magnitude range is `range`, directly into
  /// lev.storage (no scaling).
  void store_direct(Level& lev, const AbsRange& range);
  /// Recompute smoother data from A_full and re-truncate at lev.storage.
  void refresh_invdiag(Level& lev);
  /// The scaled-space rounding of the diagonal-block inverses.
  void truncate_invdiag_scaled(Level& lev);

  MGConfig cfg_;
  AutopilotThresholds th_;
  std::vector<Level> levels_;
  std::vector<AutopilotDecision> autopilot_log_;
  DenseLU coarse_lu_;
  bool finest_wrapped_ = false;
  avec<double> finest_q2_;
  double setup_seconds_ = 0.0;
};

}  // namespace smg
