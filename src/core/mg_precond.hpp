// MG_solve_with_FP16 (Alg. 3): the V/W/F-cycle in preconditioner compute
// precision CT, reading matrices in storage precision with recover-and-
// rescale on the fly.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/mg_hierarchy.hpp"
#include "obs/telemetry.hpp"
#include "solvers/precond.hpp"
#include "util/aligned.hpp"
#include "util/multivector.hpp"
#include "util/timer.hpp"

namespace smg {

/// Per-level single-vector storage of MGPrecond, in compute precision CT —
/// never below FP32 (guideline §3.4).
template <class CT>
struct LevelData {
  avec<CT> u, f, r;  ///< r: the Jacobi ping-pong buffer (Jacobi only)
  avec<CT> q2;       ///< empty unless the level was scaled
  avec<CT> invdiag;  ///< smoother blocks in compute precision
};

/// Panel (multi-RHS) counterparts of LevelData's u/f/r.  The r panel is
/// the Jacobi ping-pong buffer, allocated for the Jacobi smoother only,
/// mirroring LevelData.
template <class CT>
struct PanelData {
  MultiVector<CT> u, f, r;
};

/// One multigrid cycle application engine in compute precision CT: owns
/// the level vectors and runs run_cycle over the single-vector backend
/// (apply) or the panel backend (apply_many).
template <class CT>
class MGPrecond {
 public:
  explicit MGPrecond(const MGHierarchy* h);

  /// e = MG(r): one cycle from a zero initial guess.
  void apply(std::span<const CT> r, std::span<CT> e);

  /// E[c] = MG(R[c]) for every panel column in ONE pass over each level's
  /// stored matrix (throughput mode).  Column c is bitwise identical to a
  /// single-vector apply of that column; padding columns stay finite zero
  /// end to end.  Panel level buffers are (re)sized lazily on the first
  /// call with a new width.
  void apply_many(const MultiVector<CT>& r, MultiVector<CT>& e);

  /// Re-read level `l`'s q2/invdiag caches from the hierarchy after the
  /// autopilot rescaled or promoted it (the matrix itself is always read
  /// live through the hierarchy).
  void refresh_level(int l);

  const MGHierarchy& hierarchy() const noexcept { return *h_; }

  /// Cycle shape of the next apply.  Defaults to the hierarchy's effective
  /// config (SMG_CYCLE resolved at setup); fmg_solve flips it per phase
  /// (F for the bootstrap apply, V for polish).  W/F sub-cycles always
  /// recurse as the shape dictates: W revisits children, F runs V
  /// sub-cycles above its FMG-interpolated guesses.
  CycleShape cycle_shape() const noexcept { return shape_; }
  void set_cycle_shape(CycleShape s) noexcept { shape_ = s; }

 private:
  /// Size the panel level buffers for width k (no-op when already sized).
  void ensure_panels(int k);

  const MGHierarchy* h_;
  CycleShape shape_ = CycleShape::V;
  std::vector<LevelData<CT>> lv_;
  std::vector<PanelData<CT>> pv_;  ///< sized by ensure_panels (apply_many)
  avec<CT> colbuf_f_, colbuf_u_;  ///< per-column coarse-solve scratch
  avec<CT> wrap_q2_;  ///< finest Q^{1/2} when hierarchy.finest_wrapped()
};

/// Adapts MGPrecond<CT> to the Krylov-facing PrecondBase<KT>: truncates the
/// incoming residual KT -> CT and recovers the error CT -> KT (Alg. 2
/// lines 4 and 6).  Owns the telemetry ledger of this preconditioner: the
/// always-on apply accumulator provides apply_seconds(), and when the
/// hierarchy config (or SMG_TELEMETRY) enables telemetry, each apply
/// installs the ledger so the cycle's level/kernel spans are recorded.
///
/// Under PrecisionPolicy::Guarded the adapter is the runtime half of the
/// precision autopilot: every apply probes its output for NaN/Inf and, on a
/// trip, asks the governor to rescale/promote the offending levels and
/// re-applies — the solver above never sees the transient.  Solver-detected
/// events (stagnation, non-finite recurrence terms) arrive via
/// report_health and run the same repair ladder.
template <class KT, class CT>
class MGPrecondAdapter final : public PrecondBase<KT> {
 public:
  explicit MGPrecondAdapter(MGHierarchy* h);

  void apply(std::span<const KT> r, std::span<KT> e) override;
  /// Panel apply: one k-column V-cycle streaming each level's matrix once.
  /// Same KT<->CT truncate/recover and the same Guarded probe-and-heal as
  /// the single-vector apply, panel-wide.
  void apply_many(const MultiVector<KT>& r, MultiVector<KT>& e) override;
  double apply_seconds() const override { return telemetry_.apply_seconds(); }
  void reset_timing() override { telemetry_.reset(); }
  obs::Telemetry* telemetry() override { return &telemetry_; }
  bool self_healing() const override { return guarded_; }
  bool report_health(HealthEvent e) override;
  CycleShape cycle_shape() const override { return mg_.cycle_shape(); }
  bool set_cycle_shape(CycleShape s) override {
    mg_.set_cycle_shape(s);
    return true;
  }

 private:
  /// Run the governor once; refresh the repaired levels' caches.
  bool heal(HealthEvent e);

  MGHierarchy* h_;
  MGPrecond<CT> mg_;
  avec<CT> rbuf_, ebuf_;
  MultiVector<CT> rpanel_, epanel_;  ///< apply_many conversion buffers
  obs::Telemetry telemetry_;
  PrecisionGovernor governor_;
  bool guarded_ = false;
};

/// Build the adapter matching the hierarchy's configured compute precision.
/// The hierarchy is non-const: under PrecisionPolicy::Guarded the adapter's
/// governor repairs its stored matrices in place.
template <class KT>
std::unique_ptr<PrecondBase<KT>> make_mg_precond(MGHierarchy& h);

extern template class MGPrecond<float>;
extern template class MGPrecond<double>;
extern template class MGPrecondAdapter<double, float>;
extern template class MGPrecondAdapter<double, double>;
extern template class MGPrecondAdapter<float, float>;
extern template std::unique_ptr<PrecondBase<double>> make_mg_precond<double>(
    MGHierarchy&);
extern template std::unique_ptr<PrecondBase<float>> make_mg_precond<float>(
    MGHierarchy&);

}  // namespace smg
