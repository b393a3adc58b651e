#include "core/mg_hierarchy.hpp"

#include <cmath>
#include <cstdio>
#include <string>
#include <utility>

#include "core/coarsen.hpp"
#include "core/smoother.hpp"
#include "util/timer.hpp"

namespace smg {

namespace {

/// The paper's criterion (§4.1), per storage format: scale a level iff its
/// values exceed the format's max.  BF16 shares FP32's range and never
/// scales; FP16 scales when values exceed 65504 (bitwise identical to the
/// pre-ladder FP16-only check); FP8's representable range is so small
/// (2^-9..240 — four decades) that the Theorem 4.1 scaling *is* the format's
/// per-level scale, applied unconditionally.
bool needs_scaling(const AbsRange& range, Prec storage) {
  switch (storage) {
    case Prec::FP8:
      return true;
    case Prec::FP16:
      return range.max_abs > format_max(Prec::FP16);
    case Prec::BF16:
    case Prec::FP32:
    case Prec::FP64:
      return false;
  }
  return false;
}

/// Record the magnitude range of the values about to be truncated
/// (telemetry's precision ledger).
void record_stored_range(const AbsRange& range, Level& lev) {
  lev.stored_max_abs = range.max_abs;
  lev.stored_min_abs =
      std::isfinite(range.min_nonzero) ? range.min_nonzero : 0.0;
}

std::string analysis_reason(const StorageAnalysis& an) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "headroom=%.3g overflow=%.3g ftz=%.3g subnormal=%.3g",
                an.headroom, an.overflow_frac, an.ftz_frac,
                an.subnormal_frac);
  return buf;
}

std::string trunc_reason(const TruncateReport& r) {
  return "overflowed=" + std::to_string(r.overflowed) +
         " flushed=" + std::to_string(r.underflowed) +
         " subnormal=" + std::to_string(r.subnormal);
}

}  // namespace

MGHierarchy::MGHierarchy(StructMat<double> A0, MGConfig cfg)
    : cfg_(std::move(cfg)) {
  Timer timer;

  if (A0.block_size() > kMaxBlockSize) {
    char msg[96];
    std::snprintf(msg, sizeof msg,
                  "block size %d exceeds the supported maximum of %d",
                  A0.block_size(), kMaxBlockSize);
    fail(msg, __FILE__, __LINE__);
  }

  // Flip the sticky process-wide metrics switch before anything built on
  // this hierarchy (the preconditioner adapters) registers its series.
  if (obs::effective_metrics(cfg_.metrics) == obs::MetricsLevel::On) {
    obs::enable_metrics(true);
  }

  cfg_.cycle = effective_cycle(cfg_);
  cfg_.precision_policy = effective_policy(cfg_.precision_policy);
  if (cfg_.precision_policy != PrecisionPolicy::Fixed) {
    th_ = AutopilotThresholds::from_env();
  }
  bool auto_rungs = false;
  cfg_.storage_ladder = effective_storage_ladder(cfg_, &auto_rungs);
  if (cfg_.storage_ladder.empty()) {
    fail("storage_ladder is empty: give at least one storage format",
         __FILE__, __LINE__);
  }
  cfg_.ladder_auto =
      auto_rungs && cfg_.precision_policy != PrecisionPolicy::Fixed;
  cfg_.ladder_min_level = effective_ladder_min_level(cfg_);

  // ---- optional ablation path: scale the finest matrix *before* setup ----
  {
    const Prec finest = cfg_.storage_at(0);
    if (cfg_.scale == ScaleMode::ScaleThenSetup &&
        needs_scaling(abs_range(A0), finest)) {
      ScaleResult sr =
          scale_matrix(A0, cfg_.scale_safety, format_max(finest));
      finest_wrapped_ = sr.applied;
      finest_q2_ = std::move(sr.q2);
    }
  }

  // ---- Galerkin chain in FP64 (Alg. 1 lines 1-3) ----
  std::vector<StructMat<double>> chain;
  std::vector<Coarsening> steps;
  chain.push_back(std::move(A0));
  while (static_cast<int>(chain.size()) < cfg_.max_levels) {
    const StructMat<double>& fine = chain.back();
    if (fine.ncells() <= cfg_.min_coarse_cells) {
      break;
    }
    const Coarsening c =
        cfg_.aniso_coarsening
            ? Coarsening::make(fine.box(), cfg_.min_dim,
                               coupling_strengths(fine),
                               cfg_.coarsen_threshold)
            : Coarsening::make(fine.box(), cfg_.min_dim);
    if (!c.any()) {
      break;
    }
    steps.push_back(c);
    chain.push_back(galerkin_coarsen(fine, c));
  }

  // ---- per-level scale-and-truncate (Alg. 1 lines 4-13) ----
  const int nlev = static_cast<int>(chain.size());
  levels_.resize(static_cast<std::size_t>(nlev));
  for (int l = 0; l < nlev; ++l) {
    Level& lev = levels_[static_cast<std::size_t>(l)];
    lev.A_full = std::move(chain[static_cast<std::size_t>(l)]);
    if (l + 1 < nlev) {
      lev.to_coarse = steps[static_cast<std::size_t>(l)];
    }

    // SymGS sweep scheduling is a per-level decision (coarse levels may be
    // too small to amortize the wavefront barriers).
    if (cfg_.smoother == SmootherType::SymGS) {
      lev.smoother_wf =
          plan_smoother_wavefront(lev.A_full.box(), lev.A_full.stencil(),
                                  cfg_.layout, cfg_.smoother_parallel);
    }

    setup_level_storage(l);
  }

  // Publish the realized per-level rungs so config().storage_ladder and
  // storage_at() reflect what the auto planner actually chose.
  if (cfg_.ladder_auto) {
    cfg_.storage_ladder.clear();
    for (const Level& lev : levels_) {
      cfg_.storage_ladder.push_back(lev.storage);
    }
  }

  // ---- coarsest-level direct solver ----
  coarse_lu_ = DenseLU(levels_.back().A_full);

  setup_seconds_ = timer.seconds();
}

Prec MGHierarchy::plan_rung(int l, const StructMat<double>& A,
                            const AbsRange& range) {
  const Prec base = cfg_.storage_at(l);
  if (!is_narrow_storage(base)) {
    return base;  // compute-precision levels have no bandwidth to win
  }
  // Cheapest-first menu: FP8, then the configured base rung.  Compute
  // precision is deliberately absent — when even the base rung is
  // inadmissible, the caller falls through to the existing §4.3 shift path
  // (monotone shift plus its own logging).
  const Prec menu[] = {Prec::FP8, base};
  for (const Prec cand : menu) {
    if (bytes_of(cand) > bytes_of(base)) {
      continue;  // never plan *wider* than the configured rung
    }
    if (cand != base && l < cfg_.ladder_min_level) {
      continue;  // fine levels carry most of the error: keep them at base
    }
    StorageAnalysis an;
    if (cfg_.scale == ScaleMode::SetupThenScale &&
        needs_scaling(range, cand) &&
        diagonal_positive(A)) {
      // Judge the candidate in the space it would actually be stored in:
      // scaled to the candidate's own format max.
      StructMat<double> scaled = A;
      double safety = cfg_.scale_safety;
      const ScaleResult sr = scale_matrix(scaled, safety, format_max(cand));
      if (!sr.applied) {
        continue;
      }
      an = analyze_storage(scaled, cand);
    } else {
      an = analyze_storage(A, cand);
    }
    if (storage_admissible(an, th_)) {
      if (cand != base) {
        autopilot_log_.push_back({l, AutopilotTrigger::SetupPlan,
                                  AutopilotAction::Rung, base, cand, 0.0,
                                  analysis_reason(an)});
      }
      return cand;
    }
  }
  return base;
}

void MGHierarchy::shift_to_compute(int l) {
  // Rungs finer than l keep their format; l and every coarser level become
  // compute (§4.3 monotone — the trailing rung extends).
  std::vector<Prec> ladder = cfg_.expand_ladder(l > 0 ? l : 0);
  ladder.push_back(cfg_.compute);
  cfg_.storage_ladder = std::move(ladder);
}

void MGHierarchy::setup_level_storage(int l) {
  Level& lev = levels_[static_cast<std::size_t>(l)];
  lev.storage = cfg_.storage_at(l);
  const AbsRange range = abs_range(lev.A_full);

  const bool auto_plan =
      cfg_.ladder_auto && cfg_.precision_policy != PrecisionPolicy::Fixed;
  if (auto_plan) {
    lev.storage = plan_rung(l, lev.A_full, range);
  }

  // Smoothers are set up from the high-precision matrix, then their data
  // is truncated to storage precision (Alg. 1 line 13).  On scaled levels
  // the truncation happens in the *scaled* space (the paper sets S_i up
  // from the scaled Â_i, whose diagonal is uniformly G): the raw inverse
  // diagonals span the matrix's full decade range and rounding them
  // directly would perturb the smoother non-uniformly.
  lev.invdiag = compute_invdiag(lev.A_full);

  const bool planning = cfg_.precision_policy != PrecisionPolicy::Fixed;

  if (cfg_.scale == ScaleMode::SetupThenScale &&
      needs_scaling(range, lev.storage)) {
    double safety = cfg_.scale_safety;
    ScaleResult sr =
        scale_factors(lev.A_full, safety, format_max(lev.storage));
    if (!sr.diag_ok) {
      // A zero/negative/non-finite diagonal entry voids Theorem 4.1: no Q
      // exists.  Store this level unscaled in compute precision instead of
      // poisoning the scaled matrix with NaN.
      const Prec from = lev.storage;
      lev.degenerate_diag = true;
      lev.storage = cfg_.compute;
      autopilot_log_.push_back({l, AutopilotTrigger::DegenerateDiag,
                                AutopilotAction::Fallback, from, lev.storage,
                                0.0,
                                "diagonal has zero/negative/non-finite "
                                "entries; Theorem 4.1 inapplicable"});
      store_direct(lev, range);
      return;
    }
    if (!sr.applied) {
      // Nonsensical safety (<= 0 or non-finite): nothing sane to truncate.
      const Prec from = lev.storage;
      lev.storage = cfg_.compute;
      autopilot_log_.push_back(
          {l, AutopilotTrigger::SetupPlan, AutopilotAction::Fallback, from,
           lev.storage, 0.0, "scaling produced no admissible G"});
      store_direct(lev, range);
      return;
    }

    // The planner judges, and Guarded retains, a scaled FP64 *copy*: A_full
    // must stay the true level operator for the smoother data above and
    // for diagnostics.  Under Fixed nobody reads that copy, so none is made.
    StructMat<double> scaled;
    if (planning) {
      scaled = lev.A_full;
      apply_scaling(scaled, sr.q2);
      StorageAnalysis an = analyze_storage(scaled, lev.storage);
      if (an.overflow_frac > 0.0 && safety > th_.repair_safety) {
        // The configured safety pushes entries past the format max
        // (G > G_max).  Re-derive the scaled copy at the clamped repair
        // safety — the cheap fix that keeps narrow storage.
        safety = th_.repair_safety;
        sr = scale_factors(lev.A_full, safety, format_max(lev.storage));
        scaled = lev.A_full;
        apply_scaling(scaled, sr.q2);
        autopilot_log_.push_back({l, AutopilotTrigger::SetupPlan,
                                  AutopilotAction::Rescale, lev.storage,
                                  lev.storage, safety, analysis_reason(an)});
        an = analyze_storage(scaled, lev.storage);
      }
      if (!storage_admissible(an, th_)) {
        // Underflow storm (or overflow even at the clamped safety): shift
        // this and every coarser level to compute precision (§4.3).
        shift_to_compute(l);
        const Prec from = lev.storage;
        lev.storage = cfg_.storage_at(l);
        autopilot_log_.push_back({l, AutopilotTrigger::SetupPlan,
                                  AutopilotAction::Shift, from, lev.storage,
                                  0.0, analysis_reason(an)});
        store_direct(lev, range);
        return;
      }
    }

    // One parallel pass from A_full into storage, scaled on the fly.
    ScaledStore st = store_scaled(lev.A_full, sr.q2, lev.storage, cfg_.layout);
    lev.A_stored = std::move(st.A);
    lev.trunc = st.trunc;
    record_stored_range(st.range, lev);
    lev.scaled = true;
    lev.q2 = std::move(sr.q2);
    lev.gmax = sr.gmax;
    lev.g = sr.G;
    if (cfg_.truncate_smoother) {
      truncate_invdiag_scaled(lev);
    }
    if (cfg_.precision_policy == PrecisionPolicy::Guarded) {
      lev.A_setup = std::move(scaled);
    }
    return;
  }

  if (planning && is_narrow_storage(lev.storage)) {
    // Unscaled narrow level (in-range FP16, any BF16, or ScaleMode::None):
    // the planner still vetoes storage that would overflow or lose too many
    // entries to underflow.
    const StorageAnalysis an = analyze_storage(lev.A_full, lev.storage);
    if (!storage_admissible(an, th_)) {
      shift_to_compute(l);
      const Prec from = lev.storage;
      lev.storage = cfg_.storage_at(l);
      autopilot_log_.push_back({l, AutopilotTrigger::SetupPlan,
                                AutopilotAction::Shift, from, lev.storage,
                                0.0, analysis_reason(an)});
    }
  }
  // Direct truncation: ScaleMode::None intentionally lets out-of-range
  // values become inf under PrecisionPolicy::Fixed (the Fig. 6 "none"
  // failure mode is part of the reproduction, not a bug).
  store_direct(lev, range);
}

void MGHierarchy::store_direct(Level& lev, const AbsRange& range) {
  record_stored_range(range, lev);
  lev.A_stored = AnyMat::from(lev.A_full, lev.storage, cfg_.layout, &lev.trunc);
  if (cfg_.truncate_smoother) {
    truncate_smoother_data(lev.invdiag, lev.storage);
  }
}

void MGHierarchy::truncate_invdiag_scaled(Level& lev) {
  // Round the diagonal-block inverses in the scaled space:
  // hat = Q^{1/2} D^{-1} Q^{1/2} (values ~1/G, safely in range),
  // truncate, then map back to the effective-space data the kernels
  // consume.
  const int bsz = lev.A_full.block_size();
  const std::int64_t nc = lev.A_full.ncells();
  const double* SMG_RESTRICT q2 = lev.q2.data();
  double* SMG_RESTRICT inv = lev.invdiag.data();
  const Prec storage = lev.storage;
#pragma omp parallel for schedule(static)
  for (std::int64_t cell = 0; cell < nc; ++cell) {
    for (int br = 0; br < bsz; ++br) {
      for (int bc = 0; bc < bsz; ++bc) {
        const double s = q2[cell * bsz + br] * q2[cell * bsz + bc];
        double& v = inv[(cell * bsz + br) * bsz + bc];
        v *= s;
        truncate_smoother_value(v, storage);
        v /= s;
      }
    }
  }
}

void MGHierarchy::refresh_invdiag(Level& lev) {
  lev.invdiag = compute_invdiag(lev.A_full);
  if (cfg_.truncate_smoother) {
    if (lev.scaled) {
      truncate_invdiag_scaled(lev);
    } else {
      truncate_smoother_data(lev.invdiag, lev.storage);
    }
  }
}

bool MGHierarchy::rescale_level(int l, double new_safety,
                                AutopilotTrigger trig) {
  if (l < 0 || l >= nlevels()) {
    return false;
  }
  Level& lev = levels_[static_cast<std::size_t>(l)];
  if (!lev.scaled || lev.A_setup.ncells() == 0) {
    return false;
  }
  if (!(new_safety > 0.0) || !std::isfinite(new_safety) ||
      !(lev.gmax > 0.0) || !std::isfinite(lev.gmax) || !(lev.g > 0.0)) {
    return false;
  }
  const double g_new = new_safety * lev.gmax;
  if (g_new == lev.g) {
    return false;  // no-op: re-truncating would change nothing
  }
  const std::string before = trunc_reason(lev.trunc);

  // Â(G) is linear in G (Theorem 4.1: Â = G * a_ij / sqrt(a_ii a_jj)), so
  // changing the target is a scalar rescale of the retained setup copy —
  // no Galerkin redo.  The back-map follows as q2' = q2 * sqrt(G/G').
  const double ratio = g_new / lev.g;
  for (double& v : lev.A_setup.values()) {
    v *= ratio;
  }
  const double q2_ratio = std::sqrt(1.0 / ratio);
  for (double& q : lev.q2) {
    q *= q2_ratio;
  }
  lev.g = g_new;

  record_stored_range(abs_range(lev.A_setup), lev);
  lev.A_stored.retruncate_from(lev.A_setup, lev.storage, cfg_.layout,
                               &lev.trunc);
  refresh_invdiag(lev);
  autopilot_log_.push_back({l, trig, AutopilotAction::Rescale, lev.storage,
                            lev.storage, new_safety,
                            before + " -> " + trunc_reason(lev.trunc)});
  return true;
}

bool MGHierarchy::promote_level(int l, Prec to, AutopilotTrigger trig) {
  if (l < 0 || l >= nlevels()) {
    return false;
  }
  Level& lev = levels_[static_cast<std::size_t>(l)];
  if (bytes_of(to) <= bytes_of(lev.storage)) {
    return false;  // promotion only widens
  }
  if (lev.scaled && lev.A_setup.ncells() == 0) {
    // The scaled copy was not retained (non-Guarded setup): re-truncating
    // A_full would silently drop the scaling the kernels compensate for.
    return false;
  }
  const StructMat<double>& src = lev.scaled ? lev.A_setup : lev.A_full;
  const Prec from = lev.storage;
  const std::string before = trunc_reason(lev.trunc);
  lev.storage = to;
  record_stored_range(abs_range(src), lev);
  lev.A_stored.retruncate_from(src, to, cfg_.layout, &lev.trunc);
  refresh_invdiag(lev);
  autopilot_log_.push_back({l, trig, AutopilotAction::Promote, from, to, 0.0,
                            before + " -> " + trunc_reason(lev.trunc)});
  return true;
}

double MGHierarchy::grid_complexity() const noexcept {
  const double n0 = static_cast<double>(levels_.front().A_full.nrows());
  double sum = 0.0;
  for (const Level& l : levels_) {
    sum += static_cast<double>(l.A_full.nrows());
  }
  return sum / n0;
}

double MGHierarchy::operator_complexity() const noexcept {
  const double z0 = static_cast<double>(levels_.front().A_full.nnz_logical());
  double sum = 0.0;
  for (const Level& l : levels_) {
    sum += static_cast<double>(l.A_full.nnz_logical());
  }
  return sum / z0;
}

std::size_t MGHierarchy::stored_matrix_bytes() const noexcept {
  std::size_t total = 0;
  for (const Level& l : levels_) {
    total += l.A_stored.value_bytes();
  }
  return total;
}

std::size_t MGHierarchy::fp64_matrix_bytes() const noexcept {
  std::size_t total = 0;
  for (const Level& l : levels_) {
    total += l.A_stored.value_bytes() / bytes_of(l.A_stored.precision()) * 8;
  }
  return total;
}

TruncateReport MGHierarchy::total_truncation() const noexcept {
  TruncateReport rep;
  for (const Level& l : levels_) {
    rep += l.trunc;
  }
  return rep;
}

}  // namespace smg
