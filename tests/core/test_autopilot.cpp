// Precision-autopilot tests (DESIGN.md §9): threshold/env plumbing, storage
// analysis, the table-driven repair ladder, the setup-time planner
// (rescale-on-overflow, shift-on-underflow), the runtime governor, and the
// end-to-end forced-overflow recovery the Guarded policy exists for.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

#include "core/autopilot.hpp"
#include "core/mg_hierarchy.hpp"
#include "core/mg_precond.hpp"
#include "obs/counters.hpp"
#include "fp/half.hpp"
#include "kernels/blas1.hpp"
#include "kernels/spmv.hpp"
#include "problems/problem.hpp"
#include "solvers/cg.hpp"
#include "util/aligned.hpp"

namespace smg {
namespace {

MGConfig base_config() {
  MGConfig cfg = config_d16_setup_scale();
  cfg.min_coarse_cells = 64;
  return cfg;
}

template <class KT>
LinOp<KT> op_of(const StructMat<KT>& A) {
  return [&A](std::span<const KT> x, std::span<KT> y) {
    spmv<KT, KT>(A, x, y);
  };
}

/// ||b - A x|| / ||b||.
double true_relres(const StructMat<double>& A, std::span<const double> b,
                   std::span<const double> x) {
  avec<double> r(b.size());
  residual<double, double>(A, b, x, {r.data(), r.size()});
  return nrm2_deterministic<double>({r.data(), r.size()}) /
         nrm2_deterministic<double>(b);
}

/// Count log entries matching (trigger, action).
int count_decisions(const MGHierarchy& h, AutopilotTrigger trig,
                    AutopilotAction act) {
  int n = 0;
  for (const AutopilotDecision& d : h.autopilot_log()) {
    if (d.trigger == trig && d.action == act) {
      ++n;
    }
  }
  return n;
}

// ---- policy / threshold plumbing ------------------------------------------

TEST(Autopilot, EffectivePolicyHonorsEnvOverride) {
  unsetenv("SMG_PRECISION_POLICY");
  EXPECT_EQ(effective_policy(PrecisionPolicy::Fixed), PrecisionPolicy::Fixed);
  EXPECT_EQ(effective_policy(PrecisionPolicy::Guarded),
            PrecisionPolicy::Guarded);

  setenv("SMG_PRECISION_POLICY", "guarded", 1);
  EXPECT_EQ(effective_policy(PrecisionPolicy::Fixed),
            PrecisionPolicy::Guarded);
  setenv("SMG_PRECISION_POLICY", "auto", 1);
  EXPECT_EQ(effective_policy(PrecisionPolicy::Fixed), PrecisionPolicy::Auto);
  setenv("SMG_PRECISION_POLICY", "fixed", 1);
  EXPECT_EQ(effective_policy(PrecisionPolicy::Guarded),
            PrecisionPolicy::Fixed);
  setenv("SMG_PRECISION_POLICY", "Guarded", 1);  // case-insensitive
  EXPECT_EQ(effective_policy(PrecisionPolicy::Fixed),
            PrecisionPolicy::Guarded);
  unsetenv("SMG_PRECISION_POLICY");
}

// A malformed SMG_PRECISION_POLICY is fatal and names the variable and its
// accepted values; it never keeps the configured policy silently.
class PolicyEnvDeathTest : public ::testing::TestWithParam<const char*> {
 protected:
  void TearDown() override { unsetenv("SMG_PRECISION_POLICY"); }
};

TEST_P(PolicyEnvDeathTest, RejectsMalformedPolicy) {
  setenv("SMG_PRECISION_POLICY", GetParam(), 1);
  EXPECT_DEATH(effective_policy(PrecisionPolicy::Auto),
               "SMG_PRECISION_POLICY must be one of fixed, auto or guarded");
}

INSTANTIATE_TEST_SUITE_P(Malformed, PolicyEnvDeathTest,
                         ::testing::Values("bogus", "fix", " auto", "auto ",
                                           "guarded2"));

TEST(Autopilot, ThresholdsFromEnv) {
  unsetenv("SMG_AUTOPILOT_FTZ");
  unsetenv("SMG_AUTOPILOT_SUBNORMAL");
  unsetenv("SMG_AUTOPILOT_SAFETY");
  unsetenv("SMG_AUTOPILOT_MAX_REPAIRS");
  const AutopilotThresholds def = AutopilotThresholds::from_env();
  EXPECT_EQ(def.max_ftz_frac, AutopilotThresholds{}.max_ftz_frac);
  EXPECT_EQ(def.max_repairs, AutopilotThresholds{}.max_repairs);

  setenv("SMG_AUTOPILOT_FTZ", "0.5", 1);
  setenv("SMG_AUTOPILOT_SUBNORMAL", "0.75", 1);
  setenv("SMG_AUTOPILOT_SAFETY", "0.125", 1);
  setenv("SMG_AUTOPILOT_MAX_REPAIRS", "3", 1);
  const AutopilotThresholds t = AutopilotThresholds::from_env();
  EXPECT_EQ(t.max_ftz_frac, 0.5);
  EXPECT_EQ(t.max_subnormal_frac, 0.75);
  EXPECT_EQ(t.repair_safety, 0.125);
  EXPECT_EQ(t.max_repairs, 3);
  // The range ends are accepted: [0, 1] fractions, safety 1, zero repairs.
  setenv("SMG_AUTOPILOT_FTZ", "0", 1);
  setenv("SMG_AUTOPILOT_SUBNORMAL", "1", 1);
  setenv("SMG_AUTOPILOT_SAFETY", "1", 1);
  setenv("SMG_AUTOPILOT_MAX_REPAIRS", "0", 1);
  const AutopilotThresholds ends = AutopilotThresholds::from_env();
  EXPECT_EQ(ends.max_ftz_frac, 0.0);
  EXPECT_EQ(ends.max_subnormal_frac, 1.0);
  EXPECT_EQ(ends.repair_safety, 1.0);
  EXPECT_EQ(ends.max_repairs, 0);
  unsetenv("SMG_AUTOPILOT_FTZ");
  unsetenv("SMG_AUTOPILOT_SUBNORMAL");
  unsetenv("SMG_AUTOPILOT_SAFETY");
  unsetenv("SMG_AUTOPILOT_MAX_REPAIRS");
}

// A malformed or out-of-range SMG_AUTOPILOT_* value is fatal and names the
// variable and its accepted values; it never falls back to the default.
struct ThresholdCase {
  const char* name;
  const char* value;
  const char* message;
};

class ThresholdEnvDeathTest : public ::testing::TestWithParam<ThresholdCase> {
 protected:
  void TearDown() override { unsetenv(GetParam().name); }
};

TEST_P(ThresholdEnvDeathTest, RejectsMalformedThreshold) {
  setenv(GetParam().name, GetParam().value, 1);
  EXPECT_DEATH(AutopilotThresholds::from_env(), GetParam().message);
}

constexpr const char* kFtz =
    "SMG_AUTOPILOT_FTZ must be a fraction in \\[0, 1\\]";
constexpr const char* kSub =
    "SMG_AUTOPILOT_SUBNORMAL must be a fraction in \\[0, 1\\]";
constexpr const char* kSafety =
    "SMG_AUTOPILOT_SAFETY must be a number in \\(0, 1\\]";
constexpr const char* kRepairs =
    "SMG_AUTOPILOT_MAX_REPAIRS must be a non-negative integer";

INSTANTIATE_TEST_SUITE_P(
    Malformed, ThresholdEnvDeathTest,
    ::testing::Values(ThresholdCase{"SMG_AUTOPILOT_FTZ", "abc", kFtz},
                      ThresholdCase{"SMG_AUTOPILOT_FTZ", "not-a-number", kFtz},
                      ThresholdCase{"SMG_AUTOPILOT_FTZ", "1.5", kFtz},
                      ThresholdCase{"SMG_AUTOPILOT_FTZ", "nan", kFtz},
                      ThresholdCase{"SMG_AUTOPILOT_SUBNORMAL", "-0.1", kSub},
                      ThresholdCase{"SMG_AUTOPILOT_SUBNORMAL", "0.5x", kSub},
                      ThresholdCase{"SMG_AUTOPILOT_SAFETY", "-5", kSafety},
                      ThresholdCase{"SMG_AUTOPILOT_SAFETY", "0", kSafety},
                      ThresholdCase{"SMG_AUTOPILOT_SAFETY", "inf", kSafety},
                      ThresholdCase{"SMG_AUTOPILOT_MAX_REPAIRS", "3x",
                                    kRepairs},
                      ThresholdCase{"SMG_AUTOPILOT_MAX_REPAIRS", "-1",
                                    kRepairs},
                      ThresholdCase{"SMG_AUTOPILOT_MAX_REPAIRS", " 3",
                                    kRepairs}));

// ---- storage analysis ------------------------------------------------------

TEST(Autopilot, AnalyzeStorageInRangeMatrix) {
  auto p = make_laplace27(Box{8, 8, 8});  // values 26 and -1: in FP16 range
  const StorageAnalysis an = analyze_storage(p.A, Prec::FP16);
  EXPECT_GT(an.nonzero, 0u);
  EXPECT_LE(an.nonzero, an.values);
  EXPECT_EQ(an.overflow_frac, 0.0);
  EXPECT_EQ(an.ftz_frac, 0.0);
  EXPECT_EQ(an.subnormal_frac, 0.0);
  EXPECT_DOUBLE_EQ(an.max_abs, 26.0);
  EXPECT_DOUBLE_EQ(an.min_abs, 1.0);
  EXPECT_DOUBLE_EQ(an.headroom, static_cast<double>(kHalfMax) / 26.0);
  EXPECT_TRUE(storage_admissible(an, AutopilotThresholds{}));
}

TEST(Autopilot, AnalyzeStorageDetectsOverflow) {
  auto p = make_laplace27e8(Box{8, 8, 8});  // diagonal 2.6e9 >> FP16_MAX
  const StorageAnalysis an = analyze_storage(p.A, Prec::FP16);
  EXPECT_GT(an.overflow_frac, 0.0);
  EXPECT_LT(an.headroom, 1.0);
  EXPECT_FALSE(storage_admissible(an, AutopilotThresholds{}));
  // The same matrix is fine in BF16's FP32-like exponent range.
  const StorageAnalysis bf = analyze_storage(p.A, Prec::BF16);
  EXPECT_EQ(bf.overflow_frac, 0.0);
  EXPECT_TRUE(storage_admissible(bf, AutopilotThresholds{}));
}

TEST(Autopilot, AnalyzeStorageDetectsSubnormalAndFtz) {
  // FP16: min normal 2^-14 ~ 6.1e-5, min subnormal 2^-24 ~ 6.0e-8.
  auto p = make_laplace27(Box{6, 6, 6});
  for (double& v : p.A.values()) {
    v *= 1e-6;  // 2.6e-5 / 1e-6: all nonzeros subnormal, none flushed
  }
  StorageAnalysis an = analyze_storage(p.A, Prec::FP16);
  EXPECT_EQ(an.overflow_frac, 0.0);
  EXPECT_EQ(an.ftz_frac, 0.0);
  EXPECT_DOUBLE_EQ(an.subnormal_frac, 1.0);
  EXPECT_FALSE(storage_admissible(an, AutopilotThresholds{}));

  for (double& v : p.A.values()) {
    v *= 1e-3;  // 2.6e-8 / 1e-9: below half the min subnormal -> flushed
  }
  an = analyze_storage(p.A, Prec::FP16);
  EXPECT_DOUBLE_EQ(an.ftz_frac, 1.0);
  EXPECT_EQ(an.subnormal_frac, 0.0);
  EXPECT_FALSE(storage_admissible(an, AutopilotThresholds{}));
}

TEST(Autopilot, FormatRangeConstantsPerFormat) {
  // The admissibility analysis must judge each format against *its own*
  // edges, not FP16's.  These constants are the format edges DESIGN.md §9
  // and Theorem 4.1 reason about; a regression here silently corrupts every
  // headroom / underflow verdict for the format.
  const FormatRange h = format_range(Prec::FP16);
  EXPECT_EQ(h.max, 65504.0);
  EXPECT_EQ(h.min_normal, 0x1p-14);
  EXPECT_EQ(h.denorm_min, 0x1p-24);

  const FormatRange b = format_range(Prec::BF16);
  EXPECT_EQ(b.max, 0x1.FEp127);
  EXPECT_EQ(b.min_normal, 0x1p-126);
  EXPECT_EQ(b.denorm_min, 0x1p-133);
  // BF16's edges are nothing like FP16's — the audit this test pins down.
  EXPECT_GT(b.max / h.max, 1e30);
  EXPECT_LT(b.min_normal / h.min_normal, 1e-30);

  const FormatRange q = format_range(Prec::FP8);
  EXPECT_EQ(q.max, 240.0);
  EXPECT_EQ(q.min_normal, 0x1p-6);
  EXPECT_EQ(q.denorm_min, 0x1p-9);

  EXPECT_EQ(format_range(Prec::FP32).max,
            static_cast<double>(std::numeric_limits<float>::max()));
  EXPECT_EQ(format_range(Prec::FP64).max,
            std::numeric_limits<double>::max());
  for (const Prec p : {Prec::FP64, Prec::FP32, Prec::FP16, Prec::BF16,
                       Prec::FP8}) {
    const FormatRange r = format_range(p);
    EXPECT_EQ(r.max, format_max(p));  // the two tables must agree
    EXPECT_LT(r.denorm_min, r.min_normal);
  }
}

TEST(Autopilot, AnalyzeStoragePerFormatVerdicts) {
  // The same matrix can be admissible in one format and hopeless in the
  // next rung down.  Scaled up, laplace27's diagonal (26 -> 2600) overflows
  // FP8's 240 max but sits far inside FP16's 65504.
  auto p = make_laplace27(Box{6, 6, 6});
  for (double& v : p.A.values()) {
    v *= 100.0;  // center 2600, off-diagonals -100
  }
  const StorageAnalysis f16 = analyze_storage(p.A, Prec::FP16);
  EXPECT_EQ(f16.overflow_frac, 0.0);
  EXPECT_TRUE(storage_admissible(f16, AutopilotThresholds{}));
  const StorageAnalysis f8 = analyze_storage(p.A, Prec::FP8);
  EXPECT_GT(f8.overflow_frac, 0.0);  // 2600 > 240
  EXPECT_LT(f8.headroom, 1.0);
  EXPECT_FALSE(storage_admissible(f8, AutopilotThresholds{}));

  // And the underflow mirror: off-diagonals scaled to 2^-8 land in FP8's
  // subnormal zone (below its 2^-6 min normal) while remaining perfectly
  // normal FP16 values (min normal 2^-14).
  auto q = make_laplace27(Box{6, 6, 6});
  for (double& v : q.A.values()) {
    v *= 0x1p-8;  // off-diagonals 2^-8; center 26*2^-8, FP8-normal
  }
  const StorageAnalysis sub8 = analyze_storage(q.A, Prec::FP8);
  EXPECT_GT(sub8.subnormal_frac + sub8.ftz_frac, 0.9);
  EXPECT_FALSE(storage_admissible(sub8, AutopilotThresholds{}));
  const StorageAnalysis sub16 = analyze_storage(q.A, Prec::FP16);
  EXPECT_EQ(sub16.subnormal_frac, 0.0);
  EXPECT_EQ(sub16.ftz_frac, 0.0);
  EXPECT_TRUE(storage_admissible(sub16, AutopilotThresholds{}));
}

// ---- repair ladder (table-driven) -----------------------------------------

TEST(Autopilot, DecideRepairLadder) {
  const AutopilotThresholds t;
  LevelHealth h;
  h.values = 1000;

  // Compute-precision levels are never touched.
  h.storage = Prec::FP32;
  h.overflowed = 10;
  EXPECT_EQ(decide_repair(h, HealthEvent::NonFinite, t), RepairKind::None);
  EXPECT_EQ(decide_repair(h, HealthEvent::Stagnation, t), RepairKind::None);

  // Overflow on a scaled level with the rescale still unspent: rescale.
  h.storage = Prec::FP16;
  h.scaled = true;
  h.rescaled = false;
  EXPECT_EQ(decide_repair(h, HealthEvent::NonFinite, t), RepairKind::Rescale);
  EXPECT_EQ(decide_repair(h, HealthEvent::Stagnation, t),
            RepairKind::Rescale);

  // Rescale already spent, or never scaled: promotion is the only rung left.
  h.rescaled = true;
  EXPECT_EQ(decide_repair(h, HealthEvent::NonFinite, t), RepairKind::Promote);
  h.scaled = false;
  h.rescaled = false;
  EXPECT_EQ(decide_repair(h, HealthEvent::NonFinite, t), RepairKind::Promote);

  // No overflow: a NaN with a flush-to-zero storm promotes (rescaling would
  // push entries further into underflow); clean counters leave it alone.
  h.overflowed = 0;
  h.flushed = 500;  // 50% >> 1% threshold
  EXPECT_EQ(decide_repair(h, HealthEvent::NonFinite, t), RepairKind::Promote);
  h.flushed = 1;  // 0.1% < 1%
  EXPECT_EQ(decide_repair(h, HealthEvent::NonFinite, t), RepairKind::None);

  // Stagnation: subnormal evidence above threshold promotes.
  h.flushed = 0;
  h.subnormal = 400;  // 40% > 25%
  EXPECT_EQ(decide_repair(h, HealthEvent::Stagnation, t),
            RepairKind::Promote);
  h.subnormal = 100;  // 10% < 25%
  EXPECT_EQ(decide_repair(h, HealthEvent::Stagnation, t), RepairKind::None);
}

TEST(Autopilot, DecideRepairTreatsFp8AsNarrow) {
  // FP8 levels are narrow-stored: the repair ladder applies to them exactly
  // as it does to the 2-byte rungs.
  const AutopilotThresholds t;
  LevelHealth h;
  h.values = 1000;
  h.storage = Prec::FP8;
  h.scaled = true;  // FP8 storage is always scaled
  h.rescaled = false;
  h.overflowed = 10;
  EXPECT_EQ(decide_repair(h, HealthEvent::NonFinite, t), RepairKind::Rescale);
  h.rescaled = true;
  EXPECT_EQ(decide_repair(h, HealthEvent::NonFinite, t), RepairKind::Promote);
  h.overflowed = 0;
  h.subnormal = 400;
  EXPECT_EQ(decide_repair(h, HealthEvent::Stagnation, t),
            RepairKind::Promote);
}

TEST(Autopilot, NextRungUpWalksTheLadder) {
  // Promotion is one rung at a time: FP8 climbs to the configured 2-byte
  // format (so a BF16 config promotes FP8 -> BF16, not FP8 -> FP16), the
  // 2-byte formats climb to compute.  An FP8 rung under a config that never
  // stored a 2-byte format still passes through FP16 rather than jumping
  // straight to compute.
  EXPECT_EQ(next_rung_up(Prec::FP8, Prec::FP16, Prec::FP32), Prec::FP16);
  EXPECT_EQ(next_rung_up(Prec::FP8, Prec::BF16, Prec::FP32), Prec::BF16);
  EXPECT_EQ(next_rung_up(Prec::FP8, Prec::FP32, Prec::FP32), Prec::FP16);
  EXPECT_EQ(next_rung_up(Prec::FP16, Prec::FP16, Prec::FP32), Prec::FP32);
  EXPECT_EQ(next_rung_up(Prec::BF16, Prec::BF16, Prec::FP64), Prec::FP64);
  EXPECT_EQ(next_rung_up(Prec::FP32, Prec::FP16, Prec::FP64), Prec::FP64);
}

TEST(Autopilot, LevelRiskOrdersOverflowAboveUnderflow) {
  LevelHealth clean;
  clean.storage = Prec::FP16;
  clean.values = 100;

  LevelHealth sub = clean;
  sub.subnormal = 50;
  LevelHealth ftz = clean;
  ftz.flushed = 1;
  LevelHealth ovf = clean;
  ovf.overflowed = 1;

  EXPECT_GT(level_risk(sub), level_risk(clean));
  EXPECT_GT(level_risk(ftz), level_risk(sub));
  EXPECT_GT(level_risk(ovf), level_risk(ftz));

  LevelHealth wide = ovf;
  wide.storage = Prec::FP32;
  EXPECT_LT(level_risk(wide), 0.0);  // not a candidate
}

// ---- setup-time planner ----------------------------------------------------

TEST(Autopilot, PlannerRescuesForcedOverflow) {
  // scale_safety > 1 targets G > G_max: Fixed stores infinities, the planner
  // re-scales at the clamped repair safety and keeps FP16.
  auto p1 = make_laplace27e8(Box{12, 12, 12});
  MGConfig cfg = base_config();
  cfg.scale_safety = 4.0;
  MGHierarchy fixed(std::move(p1.A), cfg);
  EXPECT_GT(fixed.total_truncation().overflowed, 0u);
  EXPECT_TRUE(fixed.autopilot_log().empty());

  auto p2 = make_laplace27e8(Box{12, 12, 12});
  cfg.precision_policy = PrecisionPolicy::Auto;
  MGHierarchy auto_h(std::move(p2.A), cfg);
  EXPECT_EQ(auto_h.total_truncation().overflowed, 0u);
  EXPECT_EQ(auto_h.level(0).storage, Prec::FP16);
  EXPECT_TRUE(auto_h.level(0).scaled);
  EXPECT_GE(count_decisions(auto_h, AutopilotTrigger::SetupPlan,
                            AutopilotAction::Rescale),
            1);
  // The planner clamped G to repair_safety * G_max.
  EXPECT_NEAR(auto_h.level(0).g,
              auto_h.thresholds().repair_safety * auto_h.level(0).gmax,
              auto_h.level(0).gmax * 1e-12);
  // Auto does not pay for the retained FP64 copy; Guarded does.
  EXPECT_EQ(auto_h.level(0).A_setup.ncells(), 0);
}

TEST(Autopilot, PlannerShiftsUnderflowStorm) {
  // An unscaled FP16 level whose values sit in the subnormal range: the
  // planner shifts it (and everything coarser) to compute precision instead
  // of quantizing the whole operator into noise.
  auto p = make_laplace27(Box{12, 12, 12});
  for (double& v : p.A.values()) {
    v *= 1e-6;
  }
  MGConfig cfg = config_d16_none();
  cfg.min_coarse_cells = 64;
  cfg.precision_policy = PrecisionPolicy::Auto;
  MGHierarchy h(std::move(p.A), cfg);
  // The realized ladder is the one-rung compute ladder (shift_levid = 0).
  EXPECT_EQ(h.config().storage_ladder, std::vector<Prec>{h.config().compute});
  for (int l = 0; l < h.nlevels(); ++l) {
    EXPECT_EQ(h.level(l).A_stored.precision(), h.config().compute)
        << "level " << l;
  }
  EXPECT_GE(count_decisions(h, AutopilotTrigger::SetupPlan,
                            AutopilotAction::Shift),
            1);
  EXPECT_EQ(h.total_truncation().underflowed, 0u);
}

TEST(Autopilot, PlannerFallsBackOnDegenerateDiagonal) {
  // A negative diagonal entry voids Theorem 4.1; the level must fall back to
  // unscaled compute-precision storage instead of scaling into NaN.  (Not
  // zero: the smoother still needs invertible diagonal blocks.)
  auto p = make_laplace27e8(Box{10, 10, 10});
  p.A.at(0, p.A.stencil().center()) = -2.6e9;
  MGConfig cfg = base_config();
  cfg.precision_policy = PrecisionPolicy::Guarded;
  MGHierarchy h(std::move(p.A), cfg);
  EXPECT_TRUE(h.level(0).degenerate_diag);
  EXPECT_FALSE(h.level(0).scaled);
  EXPECT_EQ(h.level(0).storage, h.config().compute);
  EXPECT_GE(count_decisions(h, AutopilotTrigger::DegenerateDiag,
                            AutopilotAction::Fallback),
            1);
}

TEST(Autopilot, FixedPolicyPlansNothing) {
  auto p = make_laplace27e8(Box{12, 12, 12});
  MGHierarchy h(std::move(p.A), base_config());
  EXPECT_EQ(h.policy(), PrecisionPolicy::Fixed);
  EXPECT_TRUE(h.autopilot_log().empty());
  EXPECT_EQ(h.level(0).A_setup.ncells(), 0);  // no retained copy
}

// ---- runtime repairs on the hierarchy -------------------------------------

TEST(Autopilot, RescaleLevelRetruncatesInPlace) {
  auto p = make_laplace27e8(Box{12, 12, 12});
  MGConfig cfg = base_config();
  cfg.precision_policy = PrecisionPolicy::Guarded;
  MGHierarchy h(std::move(p.A), cfg);
  ASSERT_TRUE(h.level(0).scaled);
  ASSERT_GT(h.level(0).A_setup.ncells(), 0);

  const double g_before = h.level(0).g;
  const double gmax = h.level(0).gmax;
  EXPECT_TRUE(
      h.rescale_level(0, 0.125, AutopilotTrigger::NonFinite));
  EXPECT_NEAR(h.level(0).g, 0.125 * gmax, gmax * 1e-12);
  EXPECT_NE(h.level(0).g, g_before);
  EXPECT_EQ(h.level(0).trunc.overflowed, 0u);
  EXPECT_EQ(h.level(0).storage, Prec::FP16);
  // The rescaled copy still reproduces the original operator: the scaled
  // diagonal equals the new G and q2 followed as sqrt(G/G').
  const int center = h.level(0).A_setup.stencil().center();
  EXPECT_NEAR(h.level(0).A_setup.at(0, center), h.level(0).g,
              h.level(0).g * 1e-12);

  // Same safety again is a no-op and must be refused.
  EXPECT_FALSE(h.rescale_level(0, 0.125, AutopilotTrigger::NonFinite));
  // Out-of-range levels and nonsense safeties are refused.
  EXPECT_FALSE(h.rescale_level(99, 0.125, AutopilotTrigger::NonFinite));
  EXPECT_FALSE(h.rescale_level(0, 0.0, AutopilotTrigger::NonFinite));
}

TEST(Autopilot, PromoteLevelWidensOnly) {
  auto p = make_laplace27(Box{12, 12, 12});
  MGConfig cfg = base_config();
  cfg.precision_policy = PrecisionPolicy::Guarded;
  MGHierarchy h(std::move(p.A), cfg);
  ASSERT_EQ(h.level(0).storage, Prec::FP16);

  // Narrowing and same-width "promotions" are refused.
  EXPECT_FALSE(h.promote_level(0, Prec::FP16, AutopilotTrigger::NonFinite));
  EXPECT_TRUE(h.promote_level(0, Prec::FP32, AutopilotTrigger::NonFinite));
  EXPECT_EQ(h.level(0).storage, Prec::FP32);
  EXPECT_EQ(h.level(0).A_stored.precision(), Prec::FP32);
  EXPECT_EQ(h.level(0).trunc.overflowed, 0u);
  EXPECT_EQ(h.level(0).trunc.subnormal, 0u);
  EXPECT_FALSE(h.promote_level(0, Prec::FP32, AutopilotTrigger::NonFinite));
}

TEST(Autopilot, GovernorEscalatesDeepestTwoByteLevel) {
  // Clean counters + a NaN event: no level is directly implicated, so the
  // governor concedes the deepest 2-byte level (the §4.3 shift direction).
  auto p = make_laplace27(Box{17, 17, 17});
  MGConfig cfg = base_config();
  cfg.precision_policy = PrecisionPolicy::Guarded;
  MGHierarchy h(std::move(p.A), cfg);
  ASSERT_GE(h.nlevels(), 3);

  PrecisionGovernor gov(&h);
  const int deepest = h.nlevels() - 1;
  ASSERT_EQ(h.level(deepest).storage, Prec::FP16);

  const std::vector<int> repaired = gov.on_event(HealthEvent::NonFinite);
  ASSERT_EQ(repaired.size(), 1u);
  EXPECT_EQ(repaired.front(), deepest);
  EXPECT_EQ(h.level(deepest).storage, h.config().compute);
  EXPECT_EQ(gov.repairs(), 1);

  // Each further event walks one level up; after all levels are promoted
  // the governor reports nothing left to try.
  for (int l = deepest - 1; l >= 0; --l) {
    const std::vector<int> r = gov.on_event(HealthEvent::Stagnation);
    ASSERT_EQ(r.size(), 1u);
    EXPECT_EQ(r.front(), l);
  }
  EXPECT_TRUE(gov.on_event(HealthEvent::NonFinite).empty());
  EXPECT_GE(count_decisions(h, AutopilotTrigger::NonFinite,
                            AutopilotAction::Promote),
            1);
  EXPECT_GE(count_decisions(h, AutopilotTrigger::Stagnation,
                            AutopilotAction::Promote),
            1);
}

TEST(Autopilot, GovernorWalksFp8ThroughTwoByteToCompute) {
  // An FP8 rung under the Guarded governor concedes one rung per event:
  // FP8 -> FP16 (still narrow, still scaled) -> compute.  It must not jump
  // straight from 1 byte to 4.
  auto p = make_laplace27(Box{17, 17, 17});
  MGConfig cfg = base_config();
  cfg.precision_policy = PrecisionPolicy::Guarded;
  cfg.storage_ladder = {Prec::FP16, Prec::FP16, Prec::FP8};
  // The coarse Galerkin operators put ~27% of their scaled entries in FP8's
  // subnormal zone and ~3% below its flush threshold; loosen the planner's
  // vetoes so the rung survives setup — this test is about the *runtime*
  // walk, not setup admissibility (which PlannerShiftsUnderflowStorm and
  // the ladder tests already cover).
  setenv("SMG_AUTOPILOT_SUBNORMAL", "0.5", 1);
  setenv("SMG_AUTOPILOT_FTZ", "0.1", 1);
  MGHierarchy h(std::move(p.A), cfg);
  unsetenv("SMG_AUTOPILOT_SUBNORMAL");
  unsetenv("SMG_AUTOPILOT_FTZ");
  ASSERT_GE(h.nlevels(), 3);
  const int deepest = h.nlevels() - 1;
  ASSERT_EQ(h.level(deepest).storage, Prec::FP8);

  PrecisionGovernor gov(&h);
  std::vector<int> r = gov.on_event(HealthEvent::NonFinite);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.front(), deepest);
  EXPECT_EQ(h.level(deepest).storage, Prec::FP16);  // one rung, not two
  EXPECT_EQ(h.level(deepest).A_stored.precision(), Prec::FP16);

  r = gov.on_event(HealthEvent::NonFinite);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.front(), deepest);  // same level climbs again
  EXPECT_EQ(h.level(deepest).storage, h.config().compute);
  EXPECT_GE(count_decisions(h, AutopilotTrigger::NonFinite,
                            AutopilotAction::Promote),
            2);
}

TEST(Autopilot, GovernorRespectsRepairBudget) {
  setenv("SMG_AUTOPILOT_MAX_REPAIRS", "1", 1);
  auto p = make_laplace27(Box{17, 17, 17});
  MGConfig cfg = base_config();
  cfg.precision_policy = PrecisionPolicy::Guarded;
  MGHierarchy h(std::move(p.A), cfg);
  unsetenv("SMG_AUTOPILOT_MAX_REPAIRS");
  ASSERT_EQ(h.thresholds().max_repairs, 1);

  PrecisionGovernor gov(&h);
  EXPECT_EQ(gov.on_event(HealthEvent::NonFinite).size(), 1u);
  EXPECT_TRUE(gov.on_event(HealthEvent::NonFinite).empty());
  EXPECT_EQ(gov.repairs(), 1);
}

TEST(Autopilot, CounterDeltaIsolatesRepairs) {
  auto p = make_laplace27(Box{17, 17, 17});
  MGConfig cfg = base_config();
  cfg.precision_policy = PrecisionPolicy::Guarded;
  MGHierarchy h(std::move(p.A), cfg);
  const auto before = obs::collect_precision_counters(h);

  PrecisionGovernor gov(&h);
  const std::vector<int> repaired = gov.on_event(HealthEvent::NonFinite);
  ASSERT_EQ(repaired.size(), 1u);
  const int deep = repaired.front();

  const auto after = obs::collect_precision_counters(h);
  const auto delta = obs::counter_delta(before, after);
  ASSERT_EQ(delta.size(), before.size());
  for (const obs::LevelPrecisionDelta& d : delta) {
    if (d.level == deep) {
      EXPECT_TRUE(d.storage_changed);
      EXPECT_EQ(d.storage_before, Prec::FP16);
      EXPECT_EQ(d.storage_after, h.config().compute);
      EXPECT_EQ(d.promotions, 1u);
      EXPECT_EQ(d.rescales, 0u);
    } else {
      EXPECT_FALSE(d.storage_changed) << "level " << d.level;
      EXPECT_EQ(d.promotions, 0u) << "level " << d.level;
      EXPECT_EQ(d.rescales, 0u) << "level " << d.level;
    }
  }
}

// ---- end-to-end: Guarded rescues the forced-overflow solve ----------------

TEST(Autopilot, GuardedSolveSurvivesForcedOverflow) {
  const Box box{12, 12, 12};
  MGConfig cfg = base_config();
  cfg.scale_safety = 4.0;  // G = 4 * G_max: guaranteed stored infinities

  // Fixed: the poisoned preconditioner must surface as a breakdown.
  {
    auto p = make_laplace27e8(box);
    const StructMat<double> A = p.A;
    MGHierarchy h(std::move(p.A), cfg);
    auto M = make_mg_precond<double>(h);
    const std::size_t n = p.b.size();
    avec<double> x(n, 0.0);
    SolveOptions opts;
    opts.max_iters = 60;
    const auto res =
        pcg<double>(op_of(A), {p.b.data(), n}, {x.data(), n}, *M, opts);
    EXPECT_FALSE(res.converged);
    EXPECT_TRUE(res.breakdown);
  }

  // Guarded: the same configuration converges like a sane one, on FP16.
  {
    auto p = make_laplace27e8(box);
    const StructMat<double> A = p.A;
    cfg.precision_policy = PrecisionPolicy::Guarded;
    MGHierarchy h(std::move(p.A), cfg);
    auto M = make_mg_precond<double>(h);
    const std::size_t n = p.b.size();
    avec<double> x(n, 0.0);
    SolveOptions opts;
    opts.max_iters = 60;
    const auto res =
        pcg<double>(op_of(A), {p.b.data(), n}, {x.data(), n}, *M, opts);
    EXPECT_TRUE(res.converged) << res.status();
    EXPECT_LE(res.iters, 25);  // same budget the healthy config meets
    EXPECT_LT(true_relres(A, {p.b.data(), n}, {x.data(), n}), 1e-9);
    EXPECT_EQ(h.level(0).storage, Prec::FP16);  // kept the bandwidth win
    EXPECT_FALSE(h.autopilot_log().empty());
  }
}

TEST(Autopilot, ReportHealthRunsLadderOnlyWhenGuarded) {
  {
    auto p = make_laplace27(Box{12, 12, 12});
    MGHierarchy h(std::move(p.A), base_config());
    auto M = make_mg_precond<double>(h);
    EXPECT_FALSE(M->self_healing());
    EXPECT_FALSE(M->report_health(HealthEvent::Stagnation));
    EXPECT_TRUE(h.autopilot_log().empty());
  }
  {
    auto p = make_laplace27(Box{12, 12, 12});
    MGConfig cfg = base_config();
    cfg.precision_policy = PrecisionPolicy::Guarded;
    MGHierarchy h(std::move(p.A), cfg);
    auto M = make_mg_precond<double>(h);
    EXPECT_TRUE(M->self_healing());
    EXPECT_TRUE(M->report_health(HealthEvent::Stagnation));
    EXPECT_GE(count_decisions(h, AutopilotTrigger::Stagnation,
                              AutopilotAction::Promote),
              1);
  }
}

}  // namespace
}  // namespace smg
