// Halo perfmodel: the decomp chain's agglomeration shape, and the contract
// that the engine's measured halo traffic equals the model prediction
// *exactly* (the fig_weak_scaling gate), plus the analytic speedup model.
#include <gtest/gtest.h>

#include <cmath>

#include "core/mg_precond.hpp"
#include "obs/telemetry.hpp"
#include "perfmodel/halo.hpp"
#include "problems/problem.hpp"

namespace smg {
namespace {

MGConfig decomp_cfg(std::array<int, 3> nb, SmootherType sm) {
  MGConfig cfg = config_full64();
  cfg.min_coarse_cells = 64;
  cfg.smoother = sm;
  cfg.decomp = nb;
  cfg.decomp_min_box = 32;
  return cfg;
}

TEST(HaloModel, DecompChainIsMonotoneAndCoarsestIsSingleBox) {
  auto p = make_laplace27(Box{17, 17, 17});
  MGHierarchy h(std::move(p.A), decomp_cfg({2, 2, 2}, SmootherType::Jacobi));
  const auto chain = decomp_chain(h, {2, 2, 2}, 32);
  ASSERT_EQ(static_cast<int>(chain.size()), h.nlevels());
  EXPECT_TRUE(chain.front().decomposed());
  EXPECT_FALSE(chain.back().decomposed());
  // Monotone: once a level agglomerates, every deeper one is single-box.
  bool collapsed = false;
  for (const BoxDecomp& d : chain) {
    if (collapsed) {
      EXPECT_FALSE(d.decomposed());
    }
    collapsed = collapsed || !d.decomposed();
  }
}

TEST(HaloModel, StencilGhostIsOneForAllBuiltinPatterns) {
  for (const char* name : {"laplace27", "weather", "rhd3t", "solid3d"}) {
    auto p = make_problem(name, Box{10, 10, 10});
    EXPECT_EQ(stencil_ghost(p.A.stencil()), 1) << name;
  }
}

/// One preconditioner apply with a telemetry sink installed; returns the
/// per-level measured (bytes, exchanges) for comparison against the model.
template <class CT>
void apply_with_telemetry(MGHierarchy& h, obs::Telemetry& t) {
  const obs::InstallGuard guard(&t);
  MGPrecond<CT> M(&h);
  const std::size_t n = static_cast<std::size_t>(h.level(0).A_full.nrows());
  avec<CT> r(n, CT{1}), e(n);
  M.apply({r.data(), n}, {e.data(), n});
}

TEST(HaloModel, MeasuredBytesMatchModelExactlyVCycle) {
  auto p = make_laplace27(Box{17, 17, 17});
  MGHierarchy h(std::move(p.A), decomp_cfg({2, 2, 2}, SmootherType::Jacobi));
  obs::Telemetry t(obs::TelemetryLevel::Counters, h.nlevels());
  apply_with_telemetry<double>(h, t);
  const auto m = model_halo(h, {2, 2, 2}, 32);
  ASSERT_EQ(static_cast<int>(m.size()), h.nlevels());
  for (const HaloLevelModel& lm : m) {
    EXPECT_EQ(t.halo_bytes(lm.level),
              static_cast<std::uint64_t>(lm.bytes_per_apply(sizeof(double))))
        << "level " << lm.level;
    EXPECT_EQ(t.halo_exchanges(lm.level),
              static_cast<std::uint64_t>(lm.exchanges()))
        << "level " << lm.level;
  }
  EXPECT_EQ(t.halo_bytes_total(),
            static_cast<std::uint64_t>(
                model_halo_bytes_per_apply(m, sizeof(double))));
  EXPECT_GT(t.halo_bytes_total(), 0u);
}

TEST(HaloModel, MeasuredBytesMatchModelExactlyWCycleAndSymGS) {
  // W-cycle doubles per-level visits below the finest; SymGS shares the
  // Jacobi exchange schedule (one u-exchange per sweep).
  MGConfig cfg = decomp_cfg({2, 2, 1}, SmootherType::SymGS);
  cfg.cycle = CycleShape::W;
  cfg.nu1 = 2;
  auto p = make_laplace27(Box{17, 17, 17});
  MGHierarchy h(std::move(p.A), cfg);
  obs::Telemetry t(obs::TelemetryLevel::Counters, h.nlevels());
  apply_with_telemetry<double>(h, t);
  const auto m = model_halo(h, {2, 2, 1}, 32);
  for (const HaloLevelModel& lm : m) {
    EXPECT_EQ(t.halo_bytes(lm.level),
              static_cast<std::uint64_t>(lm.bytes_per_apply(sizeof(double))))
        << "level " << lm.level;
  }
}

TEST(HaloModel, Fp16WireHalvesFp32HaloBytes) {
  auto p = make_laplace27(Box{17, 17, 17});
  MGHierarchy h(std::move(p.A), decomp_cfg({2, 2, 2}, SmootherType::Jacobi));
  const auto m = model_halo(h, {2, 2, 2}, 32);
  EXPECT_EQ(2 * model_halo_bytes_per_apply(m, sizeof(half)),
            model_halo_bytes_per_apply(m, sizeof(float)));
}

TEST(HaloModel, UndecomposedHierarchyHasZeroHaloTraffic) {
  auto p = make_laplace27(Box{17, 17, 17});
  MGHierarchy h(std::move(p.A), decomp_cfg({1, 1, 1}, SmootherType::Jacobi));
  const auto m = model_halo(h, {1, 1, 1}, 32);
  EXPECT_EQ(model_halo_bytes_per_apply(m, sizeof(double)), 0);
  for (const HaloLevelModel& lm : m) {
    EXPECT_FALSE(lm.boxed);
  }
}

TEST(HaloModel, PredictsSpeedupForTwoBoxesOnTwoThreads) {
  // Analytic scaling (this host has one core, so parallel speedup is
  // modeled, not measured): splitting across 2 boxes on 2 workers must beat
  // serial despite the halo cost, and {1,1,1} must degenerate to serial.
  auto p = make_laplace27(Box{33, 33, 33});
  MGHierarchy h(std::move(p.A), decomp_cfg({2, 1, 1}, SmootherType::Jacobi));
  const MachineModel mm;
  const double serial =
      model_decomp_apply_seconds(h, {1, 1, 1}, 512, 1, sizeof(double), mm);
  const double two =
      model_decomp_apply_seconds(h, {2, 1, 1}, 512, 2, sizeof(double), mm);
  EXPECT_GT(serial, 0.0);
  EXPECT_GT(two, 0.0);
  EXPECT_GE(serial / two, 1.2);
  // More boxes than threads cannot help beyond the thread count.
  const double eight_on_two =
      model_decomp_apply_seconds(h, {2, 2, 2}, 64, 2, sizeof(double), mm);
  EXPECT_GE(eight_on_two, two * 0.8);
}

}  // namespace
}  // namespace smg
