// Precision autopilot (DESIGN.md §9): choose — and at runtime repair — the
// per-level storage precision instead of trusting a hand-set ladder.
//
// Two halves, selected by MGConfig::precision_policy:
//
//  * setup-time planner (Auto and Guarded) — after the FP64 Galerkin chain,
//    analyze each level's (scaled) value distribution against the narrow
//    target format: Theorem 4.1 headroom, predicted flush-to-zero and
//    subnormal fractions.  A level that would overflow is re-scaled with a
//    clamped safety; a level that would lose too many entries to underflow
//    shifts itself — and every coarser level, matching §4.3's monotone
//    shift — to compute precision.
//
//  * runtime governor (Guarded only) — the preconditioner adapter probes its
//    output for NaN/Inf and the Krylov solvers report stagnation
//    (HealthEvent).  The governor walks a repair ladder per offending level:
//    rescale-and-retry first (the scaled matrix is *linear* in G, so the
//    retained FP64 setup copy is rescaled by a scalar and re-truncated in
//    place — no Galerkin redo), promotion to compute precision second.  The
//    solver then retries from its last good state.
//
// Every action is recorded as an AutopilotDecision and exported through the
// telemetry report (obs/report.cpp, schema smg-telemetry-v4).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "sgdia/struct_matrix.hpp"
#include "solvers/precond.hpp"

namespace smg {

class MGHierarchy;

/// Tunables of both autopilot halves.  Defaults are deliberately
/// conservative; SMG_AUTOPILOT_* environment variables override them at
/// hierarchy setup (see from_env and EXPERIMENTS.md).
struct AutopilotThresholds {
  /// Max tolerated fraction of nonzero entries flushed to zero by
  /// truncation before the planner shifts the level to compute precision.
  double max_ftz_frac = 0.01;
  /// Max tolerated fraction of entries landing subnormal (gradual precision
  /// loss, and a flush-to-zero hazard on FTZ hardware).
  double max_subnormal_frac = 0.25;
  /// Safety factor the repair ladder rescales with: G = repair_safety * G_max.
  double repair_safety = 0.25;
  /// Total runtime repairs a governor may perform before giving up.
  int max_repairs = 32;

  /// Defaults overridden by SMG_AUTOPILOT_FTZ and SMG_AUTOPILOT_SUBNORMAL
  /// (fractions in [0, 1]), SMG_AUTOPILOT_SAFETY (in (0, 1]) and
  /// SMG_AUTOPILOT_MAX_REPAIRS (an integer >= 0); any other value is fatal.
  static AutopilotThresholds from_env();
};

/// MGConfig::precision_policy, unless SMG_PRECISION_POLICY
/// (fixed | auto | guarded, case-insensitive) overrides it at runtime; any
/// other value is fatal.
PrecisionPolicy effective_policy(PrecisionPolicy configured);

/// Value-distribution analysis of one level's to-be-truncated matrix against
/// a storage format (the planner's evidence).
struct StorageAnalysis {
  std::uint64_t values = 0;     ///< stored entries inspected
  std::uint64_t nonzero = 0;    ///< nonzero entries among them
  double max_abs = 0.0;         ///< largest |a|; 0 if all-zero
  double min_abs = 0.0;         ///< smallest nonzero |a|; 0 if all-zero
  double overflow_frac = 0.0;   ///< nonzeros with |a| > format max
  double ftz_frac = 0.0;        ///< nonzeros rounding to zero
  double subnormal_frac = 0.0;  ///< nonzeros landing below the min normal
  double headroom = 0.0;        ///< format max / max_abs (inf if all-zero)
};

/// Range limits of a storage format: largest finite value, smallest normal,
/// smallest subnormal.  Truncation flushes |v| below half the smallest
/// subnormal to zero (round-to-nearest).  Each format has its own edges —
/// BF16 shares FP32's exponent range, so its overflow/subnormal thresholds
/// differ from FP16's by ~112 binades; FP8 e4m3 spans barely four decades.
struct FormatRange {
  double max = 0.0;
  double min_normal = 0.0;
  double denorm_min = 0.0;
};

FormatRange format_range(Prec p) noexcept;

StorageAnalysis analyze_storage(const StructMat<double>& A, Prec storage);

/// True when the analyzed distribution fits `storage` per the thresholds:
/// no overflow and acceptable flush-to-zero / subnormal fractions.
bool storage_admissible(const StorageAnalysis& a, const AutopilotThresholds& t);

enum class AutopilotTrigger {
  SetupPlan,       ///< setup-time analysis of a level's value distribution
  DegenerateDiag,  ///< zero/negative/non-finite diagonal: Theorem 4.1 void
  NonFinite,       ///< solver reported NaN/Inf in the preconditioner output
  Stagnation,      ///< solver reported a stalled residual window
};

constexpr std::string_view to_string(AutopilotTrigger t) noexcept {
  switch (t) {
    case AutopilotTrigger::SetupPlan:
      return "setup-plan";
    case AutopilotTrigger::DegenerateDiag:
      return "degenerate-diag";
    case AutopilotTrigger::NonFinite:
      return "non-finite";
    case AutopilotTrigger::Stagnation:
      return "stagnation";
  }
  return "?";
}

enum class AutopilotAction {
  Rescale,   ///< re-truncate at a clamped safety, keeping narrow storage
  Promote,   ///< re-truncate one rung up the ladder (costs bandwidth win)
  Shift,     ///< setup-time: this and every coarser level go to compute
             ///< precision (§4.3 shift_levid)
  Fallback,  ///< store unscaled in compute precision (unscalable diagonal)
  Rung,      ///< setup-time ladder planner chose a cheaper admissible rung
};

constexpr std::string_view to_string(AutopilotAction a) noexcept {
  switch (a) {
    case AutopilotAction::Rescale:
      return "rescale";
    case AutopilotAction::Promote:
      return "promote";
    case AutopilotAction::Shift:
      return "shift";
    case AutopilotAction::Fallback:
      return "fallback";
    case AutopilotAction::Rung:
      return "rung";
  }
  return "?";
}

/// One autopilot decision, as exported in the telemetry report.
struct AutopilotDecision {
  int level = -1;
  AutopilotTrigger trigger = AutopilotTrigger::SetupPlan;
  AutopilotAction action = AutopilotAction::Shift;
  Prec from = Prec::FP16;  ///< storage before the action
  Prec to = Prec::FP16;    ///< storage after (== from for Rescale)
  double safety = 0.0;     ///< G/G_max after a Rescale, else 0
  std::string reason;      ///< human-readable evidence
};

/// What the runtime governor knows about one level when an event fires
/// (plain data so repair decisions are table-testable without a hierarchy).
struct LevelHealth {
  Prec storage = Prec::FP64;
  bool scaled = false;            ///< stored matrix lives in Theorem 4.1 space
  bool rescaled = false;          ///< a runtime rescale was already spent here
  std::uint64_t values = 0;       ///< stored entries
  std::uint64_t overflowed = 0;   ///< truncation overflow events (cumulative)
  std::uint64_t flushed = 0;      ///< truncation flush-to-zero events
  std::uint64_t subnormal = 0;    ///< truncation subnormal landings
};

enum class RepairKind {
  None,     ///< leave the level alone
  Rescale,  ///< rescale-and-retry at the clamped repair safety
  Promote,  ///< promote storage to compute precision
};

constexpr std::string_view to_string(RepairKind k) noexcept {
  switch (k) {
    case RepairKind::None:
      return "none";
    case RepairKind::Rescale:
      return "rescale";
    case RepairKind::Promote:
      return "promote";
  }
  return "?";
}

/// The repair ladder for one level.  Narrow-stored levels with truncation
/// overflow get one rescale if they are scaled and still have it to spend,
/// promotion otherwise; a flush-to-zero storm promotes directly (rescaling
/// with *more* headroom only pushes entries further into underflow).
/// Compute-precision levels are never touched.
RepairKind decide_repair(const LevelHealth& h, HealthEvent e,
                         const AutopilotThresholds& t);

/// The governor's promote target: one rung *up* the storage ladder instead
/// of a jump straight to compute.  FP8 promotes to `storage`, the ladder's
/// finest rung, when that is a 2-byte format (FP16 otherwise), and the
/// 2-byte formats promote to `compute` — so a misbehaving FP8 level walks
/// FP8 -> FP16/BF16 -> FP32 across successive repairs, conceding bandwidth
/// one halving at a time.
constexpr Prec next_rung_up(Prec from, Prec storage, Prec compute) noexcept {
  if (bytes_of(from) == 1) {
    return bytes_of(storage) == 2 ? storage : Prec::FP16;
  }
  return compute;
}

/// Risk ranking used when no level is directly implicated (e.g. a NaN with
/// clean truncation counters) or when stagnation asks for a single victim:
/// higher means more likely to be the numerical culprit.
double level_risk(const LevelHealth& h);

/// Runtime half of the autopilot: owns the repair budget and the
/// rescale-before-promote ladder over a Guarded hierarchy.  Created by the
/// preconditioner adapter; all repairs go through MGHierarchy's
/// rescale_level/promote_level so the stored matrices, smoother data, and
/// decision log stay consistent.
class PrecisionGovernor {
 public:
  explicit PrecisionGovernor(MGHierarchy* h);

  /// Handle one health event: pick and execute repairs.  Returns the levels
  /// repaired; empty means nothing left to try (the caller should let the
  /// failure surface).
  std::vector<int> on_event(HealthEvent e);

  int repairs() const noexcept { return repairs_; }

 private:
  LevelHealth health_of(int l) const;

  MGHierarchy* h_;
  std::vector<std::uint8_t> rescaled_;  ///< per-level "rescale spent" flags
  int repairs_ = 0;
};

}  // namespace smg
