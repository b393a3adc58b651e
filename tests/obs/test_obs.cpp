// Telemetry subsystem tests: off-mode bitwise identity, span-counter
// exactness on a hand-sized hierarchy, precision-event counters,
// deterministic reductions, and the PhaseTimer nesting guard.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <utility>
#include <vector>

#include "core/mg_precond.hpp"
#include "kernels/blas1.hpp"
#include "kernels/spmv.hpp"
#include "obs/counters.hpp"
#include "obs/telemetry.hpp"
#include "problems/problem.hpp"
#include "solvers/cg.hpp"
#include "util/aligned.hpp"
#include "util/timer.hpp"

#if defined(_OPENMP)
#include <omp.h>
#endif

namespace smg {
namespace {

LinOp<double> op_of(const StructMat<double>& A) {
  return [&A](std::span<const double> x, std::span<double> y) {
    spmv<double, double>(A, x, y);
  };
}

SolveResult solve_with(const Problem& p, MGConfig cfg, int max_iters = 120,
                       double rtol = 1e-8) {
  cfg.min_coarse_cells = 64;
  StructMat<double> A = p.A;  // keep p reusable
  MGHierarchy h(std::move(A), cfg);
  auto M = make_mg_precond<double>(h);
  const std::size_t n = p.b.size();
  avec<double> x(n, 0.0);
  SolveOptions opts;
  opts.max_iters = max_iters;
  opts.rtol = rtol;
  return pcg<double>(op_of(p.A), {p.b.data(), n}, {x.data(), n}, *M, opts);
}

// ---- level parsing and env override ---------------------------------------

TEST(TelemetryLevel, ParsesAllSpellings) {
  using obs::TelemetryLevel;
  const TelemetryLevel fb = TelemetryLevel::Counters;
  EXPECT_EQ(obs::parse_telemetry("off", fb), TelemetryLevel::Off);
  EXPECT_EQ(obs::parse_telemetry("OFF", fb), TelemetryLevel::Off);
  EXPECT_EQ(obs::parse_telemetry("0", fb), TelemetryLevel::Off);
  EXPECT_EQ(obs::parse_telemetry("none", fb), TelemetryLevel::Off);
  EXPECT_EQ(obs::parse_telemetry("counters", fb), TelemetryLevel::Counters);
  EXPECT_EQ(obs::parse_telemetry("1", fb), TelemetryLevel::Counters);
  EXPECT_EQ(obs::parse_telemetry("full", fb), TelemetryLevel::Full);
  EXPECT_EQ(obs::parse_telemetry("Trace", fb), TelemetryLevel::Full);
  EXPECT_EQ(obs::parse_telemetry("2", fb), TelemetryLevel::Full);
  EXPECT_EQ(obs::parse_telemetry("bogus", fb), fb);
  EXPECT_EQ(obs::parse_telemetry("", fb), fb);
}

TEST(TelemetryLevel, EnvOverridesConfigured) {
  using obs::TelemetryLevel;
  unsetenv("SMG_TELEMETRY");
  EXPECT_EQ(obs::effective_level(TelemetryLevel::Off), TelemetryLevel::Off);
  EXPECT_EQ(obs::effective_level(TelemetryLevel::Full), TelemetryLevel::Full);
  setenv("SMG_TELEMETRY", "full", 1);
  EXPECT_EQ(obs::effective_level(TelemetryLevel::Off), TelemetryLevel::Full);
  setenv("SMG_TELEMETRY", "off", 1);
  EXPECT_EQ(obs::effective_level(TelemetryLevel::Full), TelemetryLevel::Off);
  setenv("SMG_TELEMETRY", "garbage", 1);
  EXPECT_EQ(obs::effective_level(TelemetryLevel::Counters),
            TelemetryLevel::Counters);
  unsetenv("SMG_TELEMETRY");
}

// ---- zero-overhead-when-off: bitwise identical histories ------------------

TEST(TelemetryOff, HistoriesBitwiseIdenticalAcrossLevels) {
  // The same solve at Off / Counters / Full must produce bitwise-identical
  // convergence histories: spans only read clocks, never touch data.
  const Problem p = make_problem("laplace27", Box{12, 12, 10});
  MGConfig cfg = config_d16_setup_scale();
  cfg.telemetry = obs::TelemetryLevel::Off;
  const auto off = solve_with(p, cfg);
  cfg.telemetry = obs::TelemetryLevel::Counters;
  const auto counters = solve_with(p, cfg);
  cfg.telemetry = obs::TelemetryLevel::Full;
  const auto full = solve_with(p, cfg);
  ASSERT_TRUE(off.converged);
  EXPECT_EQ(off.iters, counters.iters);
  EXPECT_EQ(off.iters, full.iters);
  EXPECT_EQ(off.final_relres, counters.final_relres);
  EXPECT_EQ(off.final_relres, full.final_relres);
  EXPECT_EQ(off.history, counters.history);
  EXPECT_EQ(off.history, full.history);
}

TEST(TelemetryOff, ApplySecondsStillAccumulates) {
  // The always-on apply accumulator replaces the adapter's old Timer-based
  // seconds_ and must keep working at telemetry Off.
  const Problem p = make_problem("laplace27", Box{10, 10, 10});
  MGConfig cfg = config_d16_setup_scale();
  cfg.min_coarse_cells = 64;
  ASSERT_EQ(cfg.telemetry, obs::TelemetryLevel::Off);
  StructMat<double> A = p.A;
  MGHierarchy h(std::move(A), cfg);
  auto M = make_mg_precond<double>(h);
  ASSERT_NE(M->telemetry(), nullptr);
  EXPECT_FALSE(M->telemetry()->enabled());
  const std::size_t n = p.b.size();
  avec<double> r(n, 1.0), e(n, 0.0);
  M->apply({r.data(), n}, {e.data(), n});
  EXPECT_GT(M->apply_seconds(), 0.0);
  EXPECT_EQ(M->telemetry()->apply_calls(), 1u);
  // Off records no spans.
  EXPECT_EQ(M->telemetry()->total(obs::Kind::SymGS).calls, 0u);
  M->reset_timing();
  EXPECT_EQ(M->apply_seconds(), 0.0);
  EXPECT_EQ(M->telemetry()->apply_calls(), 0u);
}

// ---- span-counter exactness on a hand-sized hierarchy ---------------------

TEST(TelemetrySpans, CountsExactPerVCycleApply) {
  const Problem p = make_problem("laplace27", Box{10, 10, 10});
  MGConfig cfg = config_d16_setup_scale();
  cfg.min_coarse_cells = 64;
  cfg.telemetry = obs::TelemetryLevel::Counters;
  StructMat<double> A = p.A;
  MGHierarchy h(std::move(A), cfg);
  auto M = make_mg_precond<double>(h);
  obs::Telemetry* t = M->telemetry();
  ASSERT_NE(t, nullptr);
  ASSERT_TRUE(t->enabled());

  const std::size_t n = p.b.size();
  avec<double> r(n, 1.0), e(n, 0.0);
  const std::uint64_t applies = 3;
  for (std::uint64_t i = 0; i < applies; ++i) {
    M->apply({r.data(), n}, {e.data(), n});
  }

  const int last = h.nlevels() - 1;
  ASSERT_GE(last, 1);
  for (int l = 0; l < last; ++l) {
    // nu1 + nu2 = 2 SymGS sweeps per level visit (V-cycle: one visit).
    EXPECT_EQ(t->stat(obs::Kind::SymGS, l).calls, 2 * applies)
        << "level " << l;
    // Fused downstroke: one residual_restrict, no separate residual or
    // restrict dispatches.
    EXPECT_EQ(t->stat(obs::Kind::ResidualRestrict, l).calls, applies);
    EXPECT_EQ(t->stat(obs::Kind::Residual, l).calls, 0u);
    EXPECT_EQ(t->stat(obs::Kind::Restrict, l).calls, 0u);
    EXPECT_EQ(t->stat(obs::Kind::Prolong, l).calls, applies);
    // Each level visit is one Level span.
    EXPECT_EQ(t->stat(obs::Kind::Level, l).calls, applies);
  }
  EXPECT_EQ(t->stat(obs::Kind::CoarseSolve, last).calls, applies);
  EXPECT_EQ(t->apply_calls(), applies);
  EXPECT_EQ(t->total(obs::Kind::PrecondApply).calls, applies);
  EXPECT_EQ(t->dropped(), 0u);
  // KT=double, CT=float: residual truncation + error recovery per apply.
  EXPECT_EQ(t->vec_conversions_per_apply(), 2 * n);

  t->reset();
  EXPECT_EQ(t->total(obs::Kind::SymGS).calls, 0u);
  EXPECT_EQ(t->apply_calls(), 0u);
}

TEST(TelemetrySpans, NestedKernelSpansDoNotDoubleCount) {
  // nrm2 calls dot internally; exactly one Blas1 span must be recorded
  // per nrm2 dispatch.
  obs::Telemetry t(obs::TelemetryLevel::Counters, 1);
  const obs::InstallGuard guard(&t);
  avec<double> v(100, 1.0);
  (void)nrm2_deterministic<double>({v.data(), v.size()});
  EXPECT_EQ(t.total(obs::Kind::Blas1).calls, 1u);
  (void)dot_deterministic<double>({v.data(), v.size()}, {v.data(), v.size()});
  EXPECT_EQ(t.total(obs::Kind::Blas1).calls, 2u);
}

TEST(TelemetrySpans, SolverSpansJoinPrecondLedger) {
  const Problem p = make_problem("laplace27", Box{10, 10, 10});
  MGConfig cfg = config_d16_setup_scale();
  cfg.min_coarse_cells = 64;
  cfg.telemetry = obs::TelemetryLevel::Counters;
  StructMat<double> A = p.A;
  MGHierarchy h(std::move(A), cfg);
  auto M = make_mg_precond<double>(h);
  const std::size_t n = p.b.size();
  avec<double> x(n, 0.0);
  SolveOptions opts;
  opts.max_iters = 50;
  opts.rtol = 1e-8;
  const auto res =
      pcg<double>(op_of(p.A), {p.b.data(), n}, {x.data(), n}, *M, opts);
  ASSERT_TRUE(res.converged);
  obs::Telemetry* t = M->telemetry();
  EXPECT_EQ(t->total(obs::Kind::Solve).calls, 1u);
  EXPECT_EQ(t->total(obs::Kind::Iteration).calls,
            static_cast<std::uint64_t>(res.iters));
  // Solver-side SpMV lands in the level "-1" bucket.
  EXPECT_GT(t->stat(obs::Kind::SpMV, -1).calls, 0u);
  EXPECT_GT(t->total(obs::Kind::Blas1).calls, 0u);
  EXPECT_EQ(t->apply_seconds(), res.precond_seconds);
}

TEST(TelemetryTrace, FullRecordsSortedEvents) {
  const Problem p = make_problem("laplace27", Box{10, 10, 10});
  MGConfig cfg = config_d16_setup_scale();
  cfg.min_coarse_cells = 64;
  cfg.telemetry = obs::TelemetryLevel::Full;
  StructMat<double> A = p.A;
  MGHierarchy h(std::move(A), cfg);
  auto M = make_mg_precond<double>(h);
  const std::size_t n = p.b.size();
  avec<double> r(n, 1.0), e(n, 0.0);
  M->apply({r.data(), n}, {e.data(), n});
  const auto events = M->telemetry()->trace_events();
  ASSERT_FALSE(events.empty());
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].t0, events[i].t0);
  }
  for (const auto& ev : events) {
    EXPECT_LE(ev.t0, ev.t1);
    EXPECT_GE(ev.level, -1);
    EXPECT_LT(ev.level, h.nlevels());
  }
}

// ---- precision-event counters ---------------------------------------------

TEST(PrecisionCounters, InRangeProblemHasHeadroomAndNoFlushes) {
  // laplace27 and oil: the counters must state positive overflow headroom
  // and zero overflow events on every level.
  for (const char* name : {"laplace27", "oil"}) {
    const Problem p = make_problem(name, Box{10, 10, 10});
    MGConfig cfg = config_d16_setup_scale();
    cfg.min_coarse_cells = 64;
    StructMat<double> A = p.A;
    MGHierarchy h(std::move(A), cfg);
    const auto counters = obs::collect_precision_counters(h);
    ASSERT_EQ(static_cast<int>(counters.size()), h.nlevels());
    for (const auto& c : counters) {
      EXPECT_GT(c.headroom, 1.0) << name << " level " << c.level;
      EXPECT_EQ(c.overflowed, 0u) << name << " level " << c.level;
      EXPECT_GT(c.max_abs, 0.0);
      EXPECT_GT(c.min_abs, 0.0);
      EXPECT_LE(c.min_abs, c.max_abs);
      if (std::string(name) == "laplace27") {
        // Uniform stencil: nothing flushes to zero anywhere.
        EXPECT_EQ(c.flushed_to_zero, 0u) << "level " << c.level;
      }
    }
  }
}

TEST(PrecisionCounters, ShiftLevidEliminatesCoarseFlushes) {
  // oil's Galerkin chain produces coarse-level entries tiny enough to flush
  // to zero in FP16 — the exact failure mode §4.3's shift_levid escapes.
  // The counters must make both halves of that story visible.
  const Problem p = make_problem("oil", Box{10, 10, 10});
  MGConfig cfg = config_d16_setup_scale();
  cfg.min_coarse_cells = 64;
  StructMat<double> A0 = p.A;
  MGHierarchy h0(std::move(A0), cfg);
  std::uint64_t coarse_flushed = 0;
  for (const auto& c : obs::collect_precision_counters(h0)) {
    if (c.level >= 1) {
      coarse_flushed += c.flushed_to_zero;
    }
  }
  ASSERT_GT(coarse_flushed, 0u)
      << "expected oil's coarse levels to flush in FP16";

  // The paper's shift_levid = 1: levels >= 1 in compute precision.
  cfg.storage_ladder = {Prec::FP16, Prec::FP32};
  StructMat<double> A1 = p.A;
  MGHierarchy h1(std::move(A1), cfg);
  for (const auto& c : obs::collect_precision_counters(h1)) {
    if (c.level >= 1) {
      EXPECT_TRUE(c.shifted);
      EXPECT_EQ(c.flushed_to_zero, 0u) << "level " << c.level;
    }
  }
}

TEST(PrecisionCounters, SetupScaleHeadroomIsInverseSafety) {
  // When a level is scaled, G = safety * G_max, so headroom = G_max / G
  // must equal 1/safety (= 4 at the default 0.25).
  const Problem p = make_problem("laplace27e8", Box{10, 10, 10});
  MGConfig cfg = config_d16_setup_scale();
  cfg.min_coarse_cells = 64;
  StructMat<double> A = p.A;
  MGHierarchy h(std::move(A), cfg);
  const auto counters = obs::collect_precision_counters(h);
  bool any_scaled = false;
  for (const auto& c : counters) {
    if (c.scaled) {
      any_scaled = true;
      EXPECT_NEAR(c.headroom, 1.0 / cfg.scale_safety, 1e-9)
          << "level " << c.level;
      EXPECT_GT(c.g, 0.0);
      EXPECT_GT(c.gmax, c.g);
      EXPECT_EQ(c.overflowed, 0u);
    }
  }
  EXPECT_TRUE(any_scaled);
}

TEST(PrecisionCounters, ForcedOverflowIsCounted) {
  // laplace27e8 without scaling: values far above FP16_MAX must show up as
  // nonzero overflow counts (the Fig. 6 "none" failure mode, observable).
  const Problem p = make_problem("laplace27e8", Box{10, 10, 10});
  MGConfig cfg = config_d16_none();
  cfg.min_coarse_cells = 64;
  StructMat<double> A = p.A;
  MGHierarchy h(std::move(A), cfg);
  const auto counters = obs::collect_precision_counters(h);
  std::uint64_t total_overflow = 0;
  for (const auto& c : counters) {
    total_overflow += c.overflowed;
    EXPECT_FALSE(c.scaled);
  }
  EXPECT_GT(total_overflow, 0u);
}

TEST(PrecisionCounters, ForcedUnderflowIsCounted) {
  // Shrink laplace27 to ~1e-10 magnitudes: below FP16's smallest subnormal
  // (~6e-8) every nonzero entry flushes to zero.
  Problem p = make_problem("laplace27", Box{8, 8, 8});
  for (auto& v : p.A.values()) {
    v *= 1e-10;
  }
  MGConfig cfg = config_d16_none();
  cfg.min_coarse_cells = 64;
  MGHierarchy h(std::move(p.A), cfg);
  const auto counters = obs::collect_precision_counters(h);
  std::uint64_t flushed = 0;
  for (const auto& c : counters) {
    flushed += c.flushed_to_zero;
  }
  EXPECT_GT(flushed, 0u);
}

TEST(PrecisionCounters, SubnormalRangeIsCounted) {
  // ~1e-6 magnitudes land between FP16's smallest subnormal (~6e-8) and
  // smallest normal (~6.1e-5).
  Problem p = make_problem("laplace27", Box{8, 8, 8});
  for (auto& v : p.A.values()) {
    v *= 1e-6;
  }
  MGConfig cfg = config_d16_none();
  cfg.min_coarse_cells = 64;
  MGHierarchy h(std::move(p.A), cfg);
  const auto counters = obs::collect_precision_counters(h);
  std::uint64_t subnormal = 0;
  for (const auto& c : counters) {
    subnormal += c.subnormal;
  }
  EXPECT_GT(subnormal, 0u);
}

TEST(PrecisionCounters, ConversionCountsAreAnalytic) {
  const Problem p = make_problem("laplace27", Box{10, 10, 10});
  MGConfig cfg = config_d16_setup_scale();  // nu1 = nu2 = 1
  cfg.min_coarse_cells = 64;
  StructMat<double> A = p.A;
  MGHierarchy h(std::move(A), cfg);
  const auto counters = obs::collect_precision_counters(h);
  for (const auto& c : counters) {
    const bool coarsest = c.level + 1 == h.nlevels();
    const Level& lev = h.level(c.level);
    const std::uint64_t slots =
        static_cast<std::uint64_t>(lev.A_full.ncells()) *
        static_cast<std::uint64_t>(lev.A_full.ndiag()) *
        static_cast<std::uint64_t>(lev.A_full.block_size()) *
        static_cast<std::uint64_t>(lev.A_full.block_size());
    EXPECT_EQ(c.stored_values, slots) << "level " << c.level;
    if (bytes_of(lev.storage) == 2 && !coarsest) {
      // nu1 + nu2 smoothing passes + 1 downstroke residual pass.
      EXPECT_EQ(c.conversions_per_apply, 3 * slots) << "level " << c.level;
    } else {
      EXPECT_EQ(c.conversions_per_apply, 0u) << "level " << c.level;
    }
  }
}

TEST(PrecisionCounters, WCycleMultipliesConversionsByVisits) {
  const Problem p = make_problem("laplace27", Box{12, 12, 10});
  MGConfig v_cfg = config_d16_setup_scale();
  v_cfg.min_coarse_cells = 64;
  MGConfig w_cfg = v_cfg;
  w_cfg.cycle = CycleShape::W;
  StructMat<double> Av = p.A;
  MGHierarchy hv(std::move(Av), v_cfg);
  StructMat<double> Aw = p.A;
  MGHierarchy hw(std::move(Aw), w_cfg);
  ASSERT_EQ(hv.nlevels(), hw.nlevels());
  const auto cv = obs::collect_precision_counters(hv);
  const auto cw = obs::collect_precision_counters(hw);
  // Level l is visited 2^l times per W-cycle apply (while it still has a
  // coarser level below it to recurse into twice).
  std::uint64_t visits = 1;
  for (int l = 0; l < hv.nlevels(); ++l) {
    EXPECT_EQ(cw[l].conversions_per_apply,
              visits * cv[l].conversions_per_apply)
        << "level " << l;
    if (w_cfg.cycle == CycleShape::W && l + 2 < hv.nlevels()) {
      visits *= 2;
    }
  }
}

TEST(PrecisionCounters, ShiftLevidIsReflected) {
  const Problem p = make_problem("laplace27", Box{10, 10, 10});
  MGConfig cfg = config_d16_setup_scale();
  cfg.min_coarse_cells = 64;
  cfg.storage_ladder = {Prec::FP16, Prec::FP32};  // shift_levid = 1
  StructMat<double> A = p.A;
  MGHierarchy h(std::move(A), cfg);
  const auto counters = obs::collect_precision_counters(h);
  for (const auto& c : counters) {
    if (c.level >= 1) {
      EXPECT_TRUE(c.shifted) << "level " << c.level;
      EXPECT_EQ(c.storage, cfg.compute);
      EXPECT_EQ(c.conversions_per_apply, 0u);  // 4-byte storage
    } else {
      EXPECT_FALSE(c.shifted);
      EXPECT_EQ(c.storage, Prec::FP16);
    }
  }
}

TEST(PrecisionCounters, ShiftedNeedsANarrowFinerRung) {
  // A level is shifted when its rung is the compute precision below a
  // narrow finer rung: {fp16, fp32} shifts every level past the finest,
  // while an all-compute ladder or a narrow coarse rung shifts nothing.
  const Problem p = make_problem("laplace27", Box{10, 10, 10});
  const auto shifted_levels = [&p](std::vector<Prec> ladder) {
    MGConfig cfg = config_d16_setup_scale();
    cfg.min_coarse_cells = 64;
    cfg.storage_ladder = std::move(ladder);
    StructMat<double> A = p.A;
    const MGHierarchy h(std::move(A), cfg);
    std::vector<int> out;
    for (const auto& c : obs::collect_precision_counters(h)) {
      if (c.shifted) {
        out.push_back(c.level);
      }
    }
    EXPECT_GE(h.nlevels(), 3);
    return std::make_pair(out, h.nlevels());
  };
  const auto [split, nlev] = shifted_levels({Prec::FP16, Prec::FP32});
  std::vector<int> want;
  for (int l = 1; l < nlev; ++l) {
    want.push_back(l);
  }
  EXPECT_EQ(split, want);
  EXPECT_TRUE(shifted_levels({Prec::FP32}).first.empty());
  EXPECT_TRUE(shifted_levels({Prec::FP16, Prec::FP8}).first.empty());
}

// ---- deterministic reductions ---------------------------------------------

TEST(DeterministicDot, InvariantAcrossThreadCounts) {
  const std::size_t n = 40000;
  avec<double> x(n), y(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Spread magnitudes and signs so summation order matters.
    x[i] = (static_cast<double>(i % 7) + 1.0) * 1e-3 *
           ((i % 2 == 0) ? 1.0 : -1.0) * (1.0 + static_cast<double>(i % 97));
    y[i] = 1.0 / (1.0 + static_cast<double>(i % 31));
  }
  const std::span<const double> xs{x.data(), n};
  const std::span<const double> ys{y.data(), n};
#if defined(_OPENMP)
  const int save = omp_get_max_threads();
  omp_set_num_threads(1);
  const double d1 = dot_deterministic(xs, ys);
  omp_set_num_threads(2);
  const double d2 = dot_deterministic(xs, ys);
  omp_set_num_threads(4);
  const double d4 = dot_deterministic(xs, ys);
  omp_set_num_threads(save);
  EXPECT_EQ(d1, d2);
  EXPECT_EQ(d1, d4);
#else
  const double d1 = dot_deterministic(xs, ys);
#endif
  // Agrees with a sequential sum to rounding.
  double ref = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    ref += x[i] * y[i];
  }
  EXPECT_NEAR(d1, ref, 1e-9 * (std::abs(ref) + 1.0));
  EXPECT_EQ(nrm2_deterministic(xs), std::sqrt(dot_deterministic(xs, xs)));
}

TEST(DeterministicDot, SmallVectorsAndEmpty) {
  avec<double> x{1.0, 2.0, 3.0};
  EXPECT_EQ(dot_deterministic<double>({x.data(), 3}, {x.data(), 3}), 14.0);
  EXPECT_EQ(dot_deterministic<double>({x.data(), 0}, {x.data(), 0}), 0.0);
}

TEST(DeterministicDot, SolverHistoriesReproducible) {
  // Two runs of the same multi-threaded solve produce bitwise-identical
  // histories.
  const Problem p = make_problem("laplace27", Box{12, 12, 10});
  const MGConfig cfg = config_d16_setup_scale();
  const auto a = solve_with(p, cfg);
  const auto b = solve_with(p, cfg);
  ASSERT_TRUE(a.converged);
  EXPECT_EQ(a.iters, b.iters);
  EXPECT_EQ(a.final_relres, b.final_relres);
  EXPECT_EQ(a.history, b.history);
}

// ---- PhaseTimer nesting guard ---------------------------------------------

TEST(PhaseTimerDeathTest, ReentrantStartAborts) {
  PhaseTimer t;
  t.start();
  EXPECT_DEATH(t.start(), "already running");
}

TEST(PhaseTimerDeathTest, StopWithoutStartAborts) {
  PhaseTimer t;
  EXPECT_DEATH(t.stop(), "without a matching start");
}

TEST(PhaseTimer, NormalPairingStillWorks) {
  PhaseTimer t;
  EXPECT_FALSE(t.running());
  t.start();
  EXPECT_TRUE(t.running());
  t.stop();
  EXPECT_FALSE(t.running());
  EXPECT_GE(t.total(), 0.0);
  t.clear();
  EXPECT_EQ(t.total(), 0.0);
}

}  // namespace
}  // namespace smg
