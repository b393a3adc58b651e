// Precision-event counters: the per-level safety ledger of setup-then-scale.
//
// Everything here is collected once at hierarchy setup (or derived from it)
// — no V-cycle cost.  Per level the counters answer the questions the
// paper's Theorem 4.1 and §4.3 raise:
//   * how much overflow headroom did the chosen G leave vs G_max,
//   * what magnitude range did the (scaled) matrix occupy before truncation,
//   * how many entries actually overflowed / flushed to zero / landed
//     subnormal when truncated to the storage format,
//   * which levels the §4.3 shift (a ladder whose coarse rungs are the
//     compute precision) kept in compute precision,
//   * how many storage->compute widenings one preconditioner apply performs
//     (the FP16->FP32 conversion count Alg. 3 pays per cycle).
#pragma once

#include <cstdint>
#include <vector>

#include "core/mg_hierarchy.hpp"

namespace smg::obs {

struct LevelPrecisionCounters {
  int level = 0;
  std::int64_t rows = 0;
  std::uint64_t stored_values = 0;  ///< value slots streamed per matrix pass
  std::uint64_t matrix_bytes = 0;
  Prec storage = Prec::FP64;  ///< effective, after any autopilot change
  /// The ladder rung is the compute precision below a narrow finer rung
  /// (the paper's shift_levid).
  bool shifted = false;
  bool scaled = false;

  // Theorem 4.1 ledger (zeros when the level was not scaled).
  double g = 0.0;     ///< chosen scaling target G
  double gmax = 0.0;  ///< largest admissible G
  /// Overflow headroom: gmax/G when scaled (1/scale_safety by construction),
  /// otherwise format_max/max|a_ij| — in both cases > 1 means no entry can
  /// overflow the storage format.
  double headroom = 0.0;

  // Magnitude range of the matrix actually handed to truncation (the scaled
  /// copy when scaled, the raw operator otherwise).
  double min_abs = 0.0;  ///< smallest nonzero |a_ij| (0 if all-zero)
  double max_abs = 0.0;

  // Truncation events recorded while storing the level matrix + smoother.
  std::uint64_t overflowed = 0;
  std::uint64_t flushed_to_zero = 0;  ///< nonzero entries that became 0
  std::uint64_t subnormal = 0;        ///< entries landing in FP16 subnormals

  /// Storage->compute widenings per preconditioner apply (V-cycle): number
  /// of matrix passes over this level times stored_values, 0 when storage
  /// is not a 2-byte format.  Matrix passes per V-cycle: nu1 + nu2 sweeps
  /// + 1 downstroke residual (non-coarsest levels only).
  std::uint64_t conversions_per_apply = 0;

  // Precision-autopilot ledger (core/autopilot.hpp): decisions that targeted
  // this level, cumulative since setup (the setup planner's decisions
  // included).  Both stay 0 under PrecisionPolicy::Fixed.
  std::uint32_t rescales = 0;    ///< Rescale decisions (G lowered in place)
  std::uint32_t promotions = 0;  ///< Promote decisions (storage widened)
};

/// Collect the per-level precision counters from a built hierarchy.
std::vector<LevelPrecisionCounters> collect_precision_counters(
    const MGHierarchy& h);

/// After-minus-before difference of two counter snapshots of the SAME
/// hierarchy: isolates what the autopilot (and its re-truncations) did
/// between two points in time, e.g. across one Guarded solve.
struct LevelPrecisionDelta {
  int level = 0;
  Prec storage_before = Prec::FP64;
  Prec storage_after = Prec::FP64;
  bool storage_changed = false;  ///< a Promote landed in between
  bool rescaled = false;         ///< G changed in between (Rescale landed)
  std::uint32_t rescales = 0;    ///< autopilot Rescale decisions in between
  std::uint32_t promotions = 0;  ///< autopilot Promote decisions in between
  /// Truncation-event deltas.  Signed: a repair re-truncates the level from
  /// its retained FP64 copy, so the counts can legitimately *drop* (e.g. to
  /// zero after a promotion to FP32).
  std::int64_t overflowed = 0;
  std::int64_t flushed_to_zero = 0;
  std::int64_t subnormal = 0;
};

/// Pairwise delta of two snapshots from collect_precision_counters on the
/// same hierarchy.  Levels are matched by position; the result has
/// min(before.size(), after.size()) entries.
std::vector<LevelPrecisionDelta> counter_delta(
    const std::vector<LevelPrecisionCounters>& before,
    const std::vector<LevelPrecisionCounters>& after);

}  // namespace smg::obs
