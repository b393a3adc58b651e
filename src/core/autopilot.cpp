#include "core/autopilot.hpp"

#include <cmath>
#include <limits>

#include "core/mg_hierarchy.hpp"
#include "obs/metrics.hpp"
#include "util/env.hpp"

namespace smg {

FormatRange format_range(Prec p) noexcept {
  switch (p) {
    case Prec::FP16:
      return {65504.0, 0x1p-14, 0x1p-24};
    case Prec::BF16:
      // 8 exponent bits like FP32, 7 mantissa bits: max 0x1.FEp127,
      // subnormals bottom out at 2^(-126-7).
      return {0x1.FEp127, 0x1p-126, 0x1p-133};
    case Prec::FP8:
      // e4m3 with IEEE specials (fp/fp8.hpp): max finite 240, min normal
      // 2^-6, subnormals bottom out at 2^-9.
      return {240.0, 0x1p-6, 0x1p-9};
    case Prec::FP32:
      return {static_cast<double>(std::numeric_limits<float>::max()),
              static_cast<double>(std::numeric_limits<float>::min()),
              static_cast<double>(
                  std::numeric_limits<float>::denorm_min())};
    case Prec::FP64:
      return {std::numeric_limits<double>::max(),
              std::numeric_limits<double>::min(),
              std::numeric_limits<double>::denorm_min()};
  }
  return {0.0, 0.0, 0.0};
}

AutopilotThresholds AutopilotThresholds::from_env() {
  AutopilotThresholds t;
  if (const auto env = env_value("SMG_AUTOPILOT_FTZ")) {
    t.max_ftz_frac = env_double_in(
        *env, 0.0, 1.0, "SMG_AUTOPILOT_FTZ must be a fraction in [0, 1]");
  }
  if (const auto env = env_value("SMG_AUTOPILOT_SUBNORMAL")) {
    t.max_subnormal_frac =
        env_double_in(*env, 0.0, 1.0,
                      "SMG_AUTOPILOT_SUBNORMAL must be a fraction in [0, 1]");
  }
  if (const auto env = env_value("SMG_AUTOPILOT_SAFETY")) {
    t.repair_safety =
        env_double_in(*env, std::numeric_limits<double>::denorm_min(), 1.0,
                      "SMG_AUTOPILOT_SAFETY must be a number in (0, 1]");
  }
  if (const auto env = env_value("SMG_AUTOPILOT_MAX_REPAIRS")) {
    t.max_repairs = env_int_at_least(
        *env, 0, "SMG_AUTOPILOT_MAX_REPAIRS must be a non-negative integer");
  }
  return t;
}

PrecisionPolicy effective_policy(PrecisionPolicy configured) {
  const auto env = env_value("SMG_PRECISION_POLICY");
  if (!env) {
    return configured;
  }
  if (*env == "fixed") {
    return PrecisionPolicy::Fixed;
  }
  if (*env == "auto") {
    return PrecisionPolicy::Auto;
  }
  if (*env == "guarded") {
    return PrecisionPolicy::Guarded;
  }
  fail("SMG_PRECISION_POLICY must be one of fixed, auto or guarded "
       "(case-insensitive)",
       __FILE__, __LINE__);
}

StorageAnalysis analyze_storage(const StructMat<double>& A, Prec storage) {
  const FormatRange fr = format_range(storage);
  StorageAnalysis an;
  std::uint64_t over = 0;
  std::uint64_t ftz = 0;
  std::uint64_t sub = 0;
  double min_abs = std::numeric_limits<double>::infinity();
  for (const double v : A.values()) {
    ++an.values;
    if (v == 0.0) {
      continue;
    }
    ++an.nonzero;
    const double a = std::abs(v);
    an.max_abs = std::max(an.max_abs, a);
    min_abs = std::min(min_abs, a);
    if (!(a <= fr.max)) {
      ++over;  // also counts NaN/Inf inputs
    } else if (a < 0.5 * fr.denorm_min) {
      ++ftz;
    } else if (a < fr.min_normal) {
      ++sub;
    }
  }
  an.min_abs = std::isfinite(min_abs) ? min_abs : 0.0;
  const double nz = an.nonzero > 0 ? static_cast<double>(an.nonzero) : 1.0;
  an.overflow_frac = static_cast<double>(over) / nz;
  an.ftz_frac = static_cast<double>(ftz) / nz;
  an.subnormal_frac = static_cast<double>(sub) / nz;
  an.headroom = an.max_abs > 0.0
                    ? fr.max / an.max_abs
                    : std::numeric_limits<double>::infinity();
  return an;
}

bool storage_admissible(const StorageAnalysis& a,
                        const AutopilotThresholds& t) {
  return a.overflow_frac == 0.0 && a.ftz_frac <= t.max_ftz_frac &&
         a.subnormal_frac <= t.max_subnormal_frac;
}

RepairKind decide_repair(const LevelHealth& h, HealthEvent e,
                         const AutopilotThresholds& t) {
  if (!is_narrow_storage(h.storage)) {
    return RepairKind::None;  // already compute precision: nothing to repair
  }
  if (h.overflowed > 0) {
    // Stored infinities explain both failure modes.  A scaled level gets one
    // rescale at the clamped safety (more headroom, storage stays narrow);
    // an unscaled or already-rescaled level has only promotion left.
    return (h.scaled && !h.rescaled) ? RepairKind::Rescale
                                     : RepairKind::Promote;
  }
  const double n = h.values > 0 ? static_cast<double>(h.values) : 1.0;
  const double ftz = static_cast<double>(h.flushed) / n;
  const double sub = static_cast<double>(h.subnormal) / n;
  if (e == HealthEvent::NonFinite) {
    // The stored matrix is finite, so the NaN/Inf arose in compute — e.g. a
    // division against a flushed-to-zero entry.  Rescaling adds headroom at
    // the top of the range and pushes entries *further* into underflow, so
    // promotion is the only useful rung.
    return ftz > t.max_ftz_frac ? RepairKind::Promote : RepairKind::None;
  }
  // Stagnation: quantization noise.  Promote when the underflow evidence
  // marks this level as degraded.
  return (ftz > t.max_ftz_frac || sub > t.max_subnormal_frac)
             ? RepairKind::Promote
             : RepairKind::None;
}

double level_risk(const LevelHealth& h) {
  if (!is_narrow_storage(h.storage)) {
    return -1.0;
  }
  const double n = h.values > 0 ? static_cast<double>(h.values) : 1.0;
  // Overflow dominates flush-to-zero dominates subnormal landings.
  return 1e6 * static_cast<double>(h.overflowed) / n +
         1e3 * static_cast<double>(h.flushed) / n +
         static_cast<double>(h.subnormal) / n;
}

PrecisionGovernor::PrecisionGovernor(MGHierarchy* h) : h_(h) {}

LevelHealth PrecisionGovernor::health_of(int l) const {
  const Level& lev = h_->level(l);
  LevelHealth hl;
  hl.storage = lev.storage;
  hl.scaled = lev.scaled;
  hl.rescaled = l < static_cast<int>(rescaled_.size()) &&
                rescaled_[static_cast<std::size_t>(l)] != 0;
  hl.values = lev.A_full.values().size();
  hl.overflowed = lev.trunc.overflowed;
  hl.flushed = lev.trunc.underflowed;
  hl.subnormal = lev.trunc.subnormal;
  return hl;
}

std::vector<int> PrecisionGovernor::on_event(HealthEvent e) {
  std::vector<int> repaired;
  const AutopilotThresholds& t = h_->thresholds();
  const int n = h_->nlevels();
  rescaled_.resize(static_cast<std::size_t>(n), 0);
  const AutopilotTrigger trig = e == HealthEvent::NonFinite
                                    ? AutopilotTrigger::NonFinite
                                    : AutopilotTrigger::Stagnation;
  obs::record_autopilot_event(e == HealthEvent::NonFinite ? "non_finite"
                                                          : "stagnation");

  const auto execute = [&](int l, RepairKind k) {
    if (repairs_ >= t.max_repairs) {
      return false;
    }
    bool ok = false;
    bool promoted = false;
    // Promotion walks one rung up the storage ladder (FP8 -> 2-byte ->
    // compute) rather than jumping straight to compute: each step concedes
    // one halving of the bandwidth win, and a level that keeps misbehaving
    // climbs again on the next event.
    const Prec up = next_rung_up(h_->level(l).storage,
                                 h_->config().storage_at(0),
                                 h_->config().compute);
    if (k == RepairKind::Rescale) {
      ok = h_->rescale_level(l, t.repair_safety, trig);
      if (ok) {
        rescaled_[static_cast<std::size_t>(l)] = 1;
      } else {
        // No retained setup matrix to rescale from: fall through the ladder.
        ok = h_->promote_level(l, up, trig);
        promoted = ok;
      }
    } else if (k == RepairKind::Promote) {
      ok = h_->promote_level(l, up, trig);
      promoted = ok;
    }
    if (ok) {
      ++repairs_;
      repaired.push_back(l);
      obs::record_autopilot_repair(promoted ? "promote" : "rescale");
    }
    return ok;
  };

  if (e == HealthEvent::NonFinite) {
    // An Inf anywhere in the V-cycle poisons every vector it touches:
    // repair all implicated levels in one pass before the retry.
    for (int l = 0; l < n; ++l) {
      const RepairKind k = decide_repair(health_of(l), e, t);
      if (k != RepairKind::None) {
        execute(l, k);
      }
    }
  } else {
    // Stagnation is gradual: degrade one level per event, the most
    // suspicious first (deeper wins ties — coarse promotions cost the least
    // bandwidth, mirroring the §4.3 shift direction).
    int best = -1;
    RepairKind best_kind = RepairKind::None;
    double best_risk = -1.0;
    for (int l = 0; l < n; ++l) {
      const LevelHealth hl = health_of(l);
      const RepairKind k = decide_repair(hl, e, t);
      if (k == RepairKind::None) {
        continue;
      }
      const double risk = level_risk(hl);
      if (risk >= best_risk) {
        best = l;
        best_kind = k;
        best_risk = risk;
      }
    }
    if (best >= 0) {
      execute(best, best_kind);
    }
  }
  if (!repaired.empty()) {
    return repaired;
  }

  // No counters implicate any level (a NaN born in compute, or stagnation
  // with clean truncation stats).  Escalate: promote the deepest remaining
  // narrow level — the cheapest concession, and the §4.3 shift direction.
  for (int l = n - 1; l >= 0; --l) {
    if (is_narrow_storage(h_->level(l).storage) &&
        execute(l, RepairKind::Promote)) {
      break;
    }
  }
  return repaired;
}

}  // namespace smg
