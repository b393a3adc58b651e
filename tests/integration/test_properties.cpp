// Property-style parameterized sweeps over random matrices and
// configurations: invariants that must hold for *any* admissible input.
#include <gtest/gtest.h>

#include <cmath>

#include "core/mg_precond.hpp"
#include "core/scaling.hpp"
#include "fp/convert.hpp"
#include "kernels/blas1.hpp"
#include "kernels/spmv.hpp"
#include "kernels/symgs.hpp"
#include "core/smoother.hpp"
#include "solvers/cg.hpp"
#include "util/rng.hpp"

namespace smg {
namespace {

/// Random SPD-style diffusion matrix with controllable magnitude span.
/// The magnitude field is spatially *smooth* (random low-frequency modes):
/// iid decade jumps between neighbors would defeat geometric interpolation
/// for any precision, which is an algorithmic limit rather than the FP16
/// property under test (the paper's wide-span problems, rhd in particular,
/// have smooth multi-scale coefficients too).
StructMat<double> random_spd(const Box& box, double decades,
                             std::uint64_t seed) {
  StructMat<double> A(box, Stencil::make(Pattern::P3d7), 1, Layout::SOA);
  Rng rng(seed);
  const double px = rng.uniform(0.0, 6.28), kx = rng.uniform(1.0, 2.5);
  const double py = rng.uniform(0.0, 6.28), ky = rng.uniform(1.0, 2.5);
  const double pz = rng.uniform(0.0, 6.28), kz = rng.uniform(1.0, 2.5);
  auto field = [&](std::int64_t cell) {
    const int i = static_cast<int>(cell % box.nx);
    const int j = static_cast<int>((cell / box.nx) % box.ny);
    const int k = static_cast<int>(cell / (box.nx * box.ny));
    const double s = std::sin(kx * i / box.nx * 6.28 + px) +
                     std::sin(ky * j / box.ny * 6.28 + py) +
                     std::sin(kz * k / box.nz * 6.28 + pz);
    return std::pow(10.0, decades * s / 3.0);
  };
  // Symmetric face weights: harmonic mean of the two cell magnitudes times
  // a factor hashed from the unordered cell pair (so a_ij == a_ji exactly).
  const Stencil& st = A.stencil();
  const int center = st.center();
  auto face_factor = [](std::int64_t a, std::int64_t b) {
    std::uint64_t h = static_cast<std::uint64_t>(std::min(a, b)) * 0x9E3779B9ull +
                      static_cast<std::uint64_t>(std::max(a, b));
    return 0.2 + 0.8 * (static_cast<double>(splitmix64(h) >> 11) * 0x1.0p-53);
  };
  for (int k = 0; k < box.nz; ++k) {
    for (int j = 0; j < box.ny; ++j) {
      for (int i = 0; i < box.nx; ++i) {
        const std::int64_t cell = box.idx(i, j, k);
        double diag = 0.0;
        for (int d = 0; d < st.ndiag(); ++d) {
          if (d == center) {
            continue;
          }
          const Offset& o = st.offset(d);
          const double mi = field(cell);
          double w;
          if (box.contains(i + o.dx, j + o.dy, k + o.dz)) {
            const std::int64_t nbr = box.idx(i + o.dx, j + o.dy, k + o.dz);
            const double mn = field(nbr);
            w = 2.0 * mi * mn / (mi + mn) * face_factor(cell, nbr);
            A.at(cell, d) = -w;
          } else {
            w = mi;
          }
          diag += w;
        }
        A.at(cell, center) = diag + 1e-3 * field(cell);
      }
    }
  }
  return A;
}

// ---------------------------------------------------------------------------
// Property: Theorem 4.1 over random magnitude spans and safety factors.
// ---------------------------------------------------------------------------
class ScalingProperty
    : public ::testing::TestWithParam<std::tuple<double, double, int>> {};

TEST_P(ScalingProperty, TruncationAfterScalingNeverOverflows) {
  const auto [decades, safety, seed] = GetParam();
  auto A = random_spd(Box{7, 6, 5}, decades, static_cast<std::uint64_t>(seed));
  const ScaleResult sr = scale_matrix(A, safety, kHalfMax);
  ASSERT_TRUE(sr.applied);
  TruncateReport rep;
  convert<half>(A, Layout::SOA, &rep);
  EXPECT_EQ(rep.overflowed, 0u)
      << "decades=" << decades << " safety=" << safety << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ScalingProperty,
    ::testing::Combine(::testing::Values(2.0, 5.0, 9.0, 14.0),
                       ::testing::Values(0.9, 0.5, 0.1),
                       ::testing::Values(1, 2, 3)));

// ---------------------------------------------------------------------------
// Property: recover-and-rescale SpMV equals the unscaled operator within
// FP16 truncation error, for random matrices.
// ---------------------------------------------------------------------------
class RescaleProperty : public ::testing::TestWithParam<int> {};

TEST_P(RescaleProperty, ScaledFp16SpmvApproximatesOriginal) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  auto A = random_spd(Box{8, 7, 6}, 4.0, seed);
  const StructMat<double> orig = A;
  const ScaleResult sr = scale_matrix(A, 0.25, kHalfMax);
  auto Ah = convert<half>(A, Layout::SOA);

  avec<float> q2(sr.q2.size());
  for (std::size_t i = 0; i < q2.size(); ++i) {
    q2[i] = static_cast<float>(sr.q2[i]);
  }

  Rng rng(seed ^ 0xFFFF);
  const std::size_t n = static_cast<std::size_t>(A.nrows());
  avec<float> x(n);
  avec<double> xd(n);
  for (std::size_t i = 0; i < n; ++i) {
    xd[i] = rng.uniform(-1.0, 1.0);
    x[i] = static_cast<float>(xd[i]);
  }
  avec<float> y(n);
  avec<double> yd(n);
  spmv<half, float>(Ah, {x.data(), n}, {y.data(), n}, q2.data());
  spmv<double, double>(orig, {xd.data(), n}, {yd.data(), n});

  // Row scale: |A| row sums bound the truncation error amplification.
  for (std::size_t i = 0; i < n; ++i) {
    double row_scale = 0.0;
    for (int d = 0; d < orig.ndiag(); ++d) {
      row_scale += std::abs(orig.at(static_cast<std::int64_t>(i), d));
    }
    EXPECT_NEAR(y[i], yd[i], 2e-3 * row_scale + 1e-6) << "row " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RescaleProperty, ::testing::Range(1, 9));

// ---------------------------------------------------------------------------
// Property: GS sweeps never increase the energy norm error on SPD
// diagonally dominant systems (A-norm contraction), any precision.
// ---------------------------------------------------------------------------
class GsContraction : public ::testing::TestWithParam<int> {};

TEST_P(GsContraction, ForwardBackwardSweepContractsResidual) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  auto A = random_spd(Box{6, 6, 6}, 1.0, seed);
  const auto invd = compute_invdiag(A);
  Rng rng(seed * 31);
  const std::size_t n = static_cast<std::size_t>(A.nrows());
  avec<double> b(n), u(n, 0.0), r(n);
  for (auto& v : b) {
    v = rng.uniform(-1.0, 1.0);
  }
  auto rn = [&]() {
    residual<double, double>(A, {b.data(), n}, {u.data(), n}, {r.data(), n});
    double s = 0;
    for (double v : r) {
      s += v * v;
    }
    return std::sqrt(s);
  };
  double prev = rn();
  for (int sweep = 0; sweep < 5; ++sweep) {
    gs_forward<double, double>(A, {b.data(), n}, {u.data(), n},
                               {invd.data(), invd.size()});
    gs_backward<double, double>(A, {b.data(), n}, {u.data(), n},
                                {invd.data(), invd.size()});
    const double cur = rn();
    EXPECT_LT(cur, prev * 1.0000001) << "sweep " << sweep;
    prev = cur;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GsContraction, ::testing::Range(1, 9));

// ---------------------------------------------------------------------------
// Property: reduced-precision storage does not degrade the preconditioner
// relative to the Full64 hierarchy on the same matrix.  This is the
// paper-relevant invariant (Fig. 6): for mild problems a stationary V-cycle
// iteration must contract; for harsh multi-scale problems (where multigrid
// with geometric interpolation is weak at *any* precision) the FP16 config
// must cost at most a bounded factor of extra CG iterations over Full64.
// ---------------------------------------------------------------------------
struct VcProp {
  int seed;
  double decades;
  Prec storage;
};

class VCyclePrecisionRobustness : public ::testing::TestWithParam<VcProp> {};

TEST_P(VCyclePrecisionRobustness, NoWorseThanFull64) {
  const auto& pr = GetParam();
  auto A1 = random_spd(Box{12, 12, 12}, pr.decades,
                       static_cast<std::uint64_t>(pr.seed));
  auto A2 = A1;
  const StructMat<double> orig = A1;

  MGConfig full = config_full64();
  full.min_coarse_cells = 64;
  MGConfig mix = config_d16_setup_scale();
  mix.storage_ladder = {pr.storage};
  mix.min_coarse_cells = 64;

  MGHierarchy hf(std::move(A1), full);
  MGHierarchy hm(std::move(A2), mix);
  ASSERT_EQ(hm.total_truncation().overflowed, 0u);
  auto Mf = make_mg_precond<double>(hf);
  auto Mm = make_mg_precond<double>(hm);

  const LinOp<double> op = [&orig](std::span<const double> x,
                                   std::span<double> y) {
    spmv<double, double>(orig, x, y);
  };
  Rng rng(static_cast<std::uint64_t>(pr.seed) * 977);
  const std::size_t n = static_cast<std::size_t>(orig.nrows());
  avec<double> b(n);
  for (auto& v : b) {
    v = rng.uniform(-1.0, 1.0);
  }
  SolveOptions opts;
  opts.max_iters = 300;
  opts.rtol = 1e-8;
  avec<double> xf(n, 0.0), xm(n, 0.0);
  const auto rf = pcg<double>(op, {b.data(), n}, {xf.data(), n}, *Mf, opts);
  const auto rm = pcg<double>(op, {b.data(), n}, {xm.data(), n}, *Mm, opts);
  ASSERT_TRUE(rf.converged)
      << "seed=" << pr.seed << " decades=" << pr.decades;
  ASSERT_TRUE(rm.converged)
      << "seed=" << pr.seed << " decades=" << pr.decades;
  EXPECT_LE(rm.iters, 2 * rf.iters + 10)
      << "seed=" << pr.seed << " decades=" << pr.decades
      << " storage=" << to_string(pr.storage);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, VCyclePrecisionRobustness,
    ::testing::Values(VcProp{1, 0.0, Prec::FP16}, VcProp{2, 2.0, Prec::FP16},
                      VcProp{3, 5.0, Prec::FP16}, VcProp{1, 2.0, Prec::BF16},
                      VcProp{2, 5.0, Prec::BF16}, VcProp{1, 5.0, Prec::FP32},
                      VcProp{4, 8.0, Prec::FP16}));

// ---------------------------------------------------------------------------
// Property: layout is a pure implementation detail — AOS and SOA hierarchies
// produce identical convergence (same arithmetic, different order-of-access).
// ---------------------------------------------------------------------------
TEST(LayoutProperty, AosAndSoaVCyclesAgreeClosely) {
  auto A1 = random_spd(Box{10, 10, 10}, 2.0, 5);
  auto A2 = A1;
  const StructMat<double> orig = A1;
  MGConfig soa = config_d16_setup_scale();
  soa.min_coarse_cells = 64;
  MGConfig aos = soa;
  aos.layout = Layout::AOS;
  MGHierarchy hs(std::move(A1), soa);
  MGHierarchy ha(std::move(A2), aos);
  auto Ms = make_mg_precond<double>(hs);
  auto Ma = make_mg_precond<double>(ha);

  const std::size_t n = static_cast<std::size_t>(orig.nrows());
  avec<double> r(n, 1.0), es(n), ea(n);
  Ms->apply({r.data(), n}, {es.data(), n});
  Ma->apply({r.data(), n}, {ea.data(), n});
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    num += (es[i] - ea[i]) * (es[i] - ea[i]);
    den += es[i] * es[i];
  }
  EXPECT_LT(std::sqrt(num / den), 1e-4);
}

}  // namespace
}  // namespace smg
