// Multigrid + precision configuration.
//
// The paper's naming scheme "K<a>P<b>D<c>" maps onto this struct as:
//   K — iterative (Krylov) precision: chosen by the *solver* template type,
//       not stored here (Alg. 2's red precision);
//   P — `compute`: precision of every vector and arithmetic op inside the
//       preconditioner (blue);
//   D — `storage_ladder`: the format each level matrix is truncated to
//       (green); a one-rung ladder stores every level in that format.
// The paper's §4.3 `shift_levid` is a two-rung ladder: levels below the
// shift keep the narrow format, the shift level and every coarser one are
// stored in `compute` precision to dodge underflow accumulated along the
// triple-matrix-product chain ({fp16, fp16, fp32} is shift_levid = 2).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "fp/precision.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "sgdia/struct_matrix.hpp"

namespace smg {

enum class ScaleMode {
  None,            ///< direct truncation (Fig. 6 "K64P32D16-none")
  SetupThenScale,  ///< the paper's strategy (Alg. 1, "setup-scale")
  ScaleThenSetup,  ///< the ablation counterpart ("scale-setup")
};

constexpr std::string_view to_string(ScaleMode m) noexcept {
  switch (m) {
    case ScaleMode::None:
      return "none";
    case ScaleMode::SetupThenScale:
      return "setup-then-scale";
    case ScaleMode::ScaleThenSetup:
      return "scale-then-setup";
  }
  return "?";
}

enum class SmootherType {
  Jacobi,  ///< weighted (block-)Jacobi
  SymGS,   ///< forward GS pre-smoothing, backward GS post-smoothing
};

/// How the SymGS sweeps are scheduled across OpenMP threads.
enum class SmootherParallel {
  Auto,        ///< wavefront when threads > 1 and enough lines per level
  Wavefront,   ///< always level-scheduled (sequential only if the stencil
               ///< violates the |dy|,|dz| <= 1 wavefront bound)
  Sequential,  ///< always the plain lexicographic sweep
};

constexpr std::string_view to_string(SmootherParallel p) noexcept {
  switch (p) {
    case SmootherParallel::Auto:
      return "auto";
    case SmootherParallel::Wavefront:
      return "wavefront";
    case SmootherParallel::Sequential:
      return "sequential";
  }
  return "?";
}

/// Cycle shape of one preconditioner apply (docs/CYCLE_SHAPES.md):
///   V — one coarse-grid correction per level per apply;
///   W — every non-coarsest child level is revisited (2^l visits of level l);
///   F — full multigrid (FMG): inject the rhs to the coarsest level, solve
///       there, then per level bootstrap the initial guess by prolonging the
///       coarser solution (FMG interpolation) and run one V sub-cycle.  An
///       F-cycle visits level l exactly l+1 times — the near-direct-solver
///       shape that reaches discretization error in one apply.
enum class CycleShape {
  V,
  W,
  F,
};

constexpr std::string_view to_string(CycleShape s) noexcept {
  switch (s) {
    case CycleShape::V:
      return "v";
    case CycleShape::W:
      return "w";
    case CycleShape::F:
      return "f";
  }
  return "?";
}

/// Parse "v"/"w"/"f" (case-insensitive; "fmg" also spells F).  Returns
/// false on anything else, leaving `out` untouched.
bool parse_cycle_shape(std::string_view s, CycleShape& out) noexcept;

/// Times one preconditioner apply enters `level` (the count of Level
/// telemetry spans): 1 per level in a V-cycle; 2^l in a W-cycle except the
/// coarsest, which the W recursion enters once per parent visit; l+1 in an
/// F-cycle (one V sub-cycle rooted at every finer-or-equal level), with the
/// coarsest getting one extra visit for the bootstrap solve.  NOT a power
/// of two under F — see docs/CYCLE_SHAPES.md for the traffic table.
std::int64_t cycle_visits(CycleShape shape, int level, int nlevels) noexcept;

/// Who decides the per-level storage precision (DESIGN.md §9).
enum class PrecisionPolicy {
  Fixed,    ///< honor `storage_ladder` exactly (pre-autopilot behavior)
  Auto,     ///< setup-time autopilot: shift levels to compute precision
            ///< from Theorem 4.1 headroom and predicted flush-to-zero/
            ///< subnormal fractions
  Guarded,  ///< Auto, plus a runtime governor that rescales or promotes
            ///< levels on NaN/Inf, overflow, or Krylov stagnation and retries
};

constexpr std::string_view to_string(PrecisionPolicy p) noexcept {
  switch (p) {
    case PrecisionPolicy::Fixed:
      return "fixed";
    case PrecisionPolicy::Auto:
      return "auto";
    case PrecisionPolicy::Guarded:
      return "guarded";
  }
  return "?";
}

struct MGConfig {
  // --- hierarchy shape ---
  int max_levels = 10;
  std::int64_t min_coarse_cells = 64;  ///< stop coarsening below this
  int min_dim = 5;                     ///< do not halve dims shorter than this
  CycleShape cycle = CycleShape::V;
  /// Coupling-aware (semi)coarsening: only halve dimensions whose face
  /// coupling is at least `coarsen_threshold` x the strongest coarsenable
  /// dimension's (StructMG-style high-dimensional coarsening; this is what
  /// gives the paper's weather case its larger C_G/C_O in Table 3).
  bool aniso_coarsening = true;
  double coarsen_threshold = 0.1;

  // --- smoothing (paper §8: one pre- and one post-smoothing) ---
  SmootherType smoother = SmootherType::SymGS;
  int nu1 = 1;
  int nu2 = 1;
  double jacobi_weight = 0.67;
  /// SymGS sweep scheduling (bitwise identical either way; see
  /// grid/wavefront.hpp and DESIGN.md "Wavefront-parallel SymGS").
  SmootherParallel smoother_parallel = SmootherParallel::Auto;

  // --- precision (P and D of the paper's K/P/D triple) ---
  Prec compute = Prec::FP32;
  /// Storage ladder (DESIGN.md §12): entry l is the storage format of
  /// level l, and the last entry extends to every coarser level.  Must not
  /// be empty (MGHierarchy rejects it).  The SMG_STORAGE_LADDER env var
  /// ("fp16,fp8", "auto", ...) overrides this at hierarchy setup
  /// (effective_storage_ladder).
  std::vector<Prec> storage_ladder{Prec::FP16};
  /// Let the autopilot planner pick each level's rung (cheapest format that
  /// clears the Theorem 4.1 headroom and underflow thresholds) instead of
  /// honoring a hand-set ladder.  Requires precision_policy != Fixed to
  /// take effect; SMG_STORAGE_LADDER=auto sets it at runtime.
  bool ladder_auto = false;
  /// Finest level the auto planner may assign a sub-2-byte rung (FP8) to:
  /// fine-level operators dominate the error budget, so the cheapest rungs
  /// are only eligible from this depth down (monotone down the hierarchy).
  /// SMG_LADDER_MIN_LEVEL overrides.
  int ladder_min_level = 2;
  ScaleMode scale = ScaleMode::SetupThenScale;
  double scale_safety = 0.25;  ///< G = safety * G_max (Theorem 4.1 headroom)
  /// Fixed keeps `storage_ladder` as configured; Auto shifts levels to
  /// compute precision at setup from the measured value distributions;
  /// Guarded additionally self-heals at runtime (core/autopilot.hpp).
  /// Fixed is bitwise identical to pre-autopilot builds.
  PrecisionPolicy precision_policy = PrecisionPolicy::Fixed;
  /// Alg. 1 line 13: smoother data is truncated to storage precision too
  /// (with an overflow/underflow guard; see truncate_smoother_data).
  bool truncate_smoother = true;

  // --- observability (src/obs/, DESIGN.md §8) ---
  /// Telemetry level of preconditioners built on this config.  Off keeps the
  /// hot loops bitwise- and performance-identical to an uninstrumented
  /// build; the SMG_TELEMETRY env var overrides this at runtime
  /// (obs::effective_level).
  obs::TelemetryLevel telemetry = obs::TelemetryLevel::Off;
  /// Service metrics (src/obs/metrics.hpp): On flips the process-global
  /// registry switch when a preconditioner is built on this config, so
  /// solves feed latency histograms and cache/autopilot counters.
  /// Off solves are bitwise identical to pre-metrics builds; SMG_METRICS
  /// overrides at runtime (obs::effective_metrics).
  obs::MetricsLevel metrics = obs::MetricsLevel::Off;

  // --- kernel implementation ---
  // SOAL (line-blocked SOA) keeps the SOA SIMD structure while giving the
  // kernels a single sequential memory stream per line; it is the layout the
  // Fig. 7/8 "(opt)" numbers use.
  Layout layout = Layout::SOAL;

  /// Has no effect: read nowhere.  Kept only because the frozen benchmark
  /// (perfbench/src/layers.cpp) still assigns it; it goes with the next
  /// change to that benchmark.
  std::array<int, 3> decomp{1, 1, 1};

  /// Storage precision actually used on `level`: the ladder rung, the last
  /// rung extending to coarser levels.
  Prec storage_at(int level) const noexcept {
    const std::size_t i = level <= 0 ? 0 : static_cast<std::size_t>(level);
    return storage_ladder[std::min(i, storage_ladder.size() - 1)];
  }

  /// The per-level rungs this config denotes: the ladder clamped or
  /// extended to `nlevels` entries.
  std::vector<Prec> expand_ladder(int nlevels) const {
    std::vector<Prec> out;
    out.reserve(static_cast<std::size_t>(nlevels > 0 ? nlevels : 0));
    for (int l = 0; l < nlevels; ++l) {
      out.push_back(storage_at(l));
    }
    return out;
  }
};

/// The SMG_* overrides below share one reading rule: unset or empty defers
/// to the config; keywords and format names are case-insensitive; any other
/// value, including one with leading or trailing whitespace, is a fatal
/// error naming the variable and its accepted spellings.

/// Storage ladder actually in effect: SMG_STORAGE_LADDER overrides
/// cfg.storage_ladder.  Accepts a comma/space/colon-separated list of format
/// names as printed by to_string(Prec) ("fp16,fp16,fp8"), or "auto" to keep
/// the configured ladder as a per-level cap and set `auto_rungs` (the
/// planner picks each rung; cfg.ladder_auto).  An unknown format name or an
/// empty list is malformed.
std::vector<Prec> effective_storage_ladder(const MGConfig& cfg,
                                           bool* auto_rungs = nullptr);

/// cfg.ladder_min_level unless SMG_LADDER_MIN_LEVEL (a non-negative integer)
/// overrides it.
int effective_ladder_min_level(const MGConfig& cfg) noexcept;

/// Cycle shape actually in effect: the SMG_CYCLE env var ("v", "w", "f",
/// or "fmg") overrides cfg.cycle.
CycleShape effective_cycle(const MGConfig& cfg) noexcept;

/// Canonical configurations used across benches (Fig. 6 legend names).
MGConfig config_full64();                ///< compute FP64, storage FP64
MGConfig config_k64p32d32();             ///< compute FP32, storage FP32
MGConfig config_d16_none();              ///< FP16 storage, no scaling
MGConfig config_d16_scale_setup();       ///< FP16, scale-then-setup
MGConfig config_d16_setup_scale();       ///< FP16, setup-then-scale (ours)

}  // namespace smg
