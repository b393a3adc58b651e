// Decomposed-engine equivalence: with raw-precision halos, a Jacobi-smoothed
// V-cycle over {2,2,2} boxes is bitwise identical to the single-box path
// across stencils, layouts, storage precisions (scaled levels included) and
// block sizes; PCG convergence histories match exactly under deterministic
// reductions; the decomposed SymGS variant (per-box sweeps, block-Jacobi
// boundary coupling) still contracts and converges on scaled FP16 levels;
// the FP16 halo wire stays within its tolerance contract, and the
// SMG_HALO_FP16 switch accepts only its documented spellings.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdlib>
#include <memory>

#include "core/mg_precond.hpp"
#include "kernels/blas1.hpp"
#include "kernels/spmv.hpp"
#include "problems/problem.hpp"
#include "solvers/cg.hpp"
#include "util/multivector.hpp"

namespace smg {
namespace {

/// Small-hierarchy config with the decomposition threshold lowered so the
/// test grids (13^3 .. 17^3 split 2x2x2 -> >= 216-cell boxes) actually stay
/// decomposed instead of agglomerating at the 512-cell default.
MGConfig decomposed(MGConfig cfg, std::array<int, 3> nb) {
  cfg.min_coarse_cells = 64;
  cfg.decomp = nb;
  cfg.decomp_min_box = 32;
  return cfg;
}

template <class CT>
void expect_bitwise_equal_apply(Problem pa, Problem pb, const MGConfig& base,
                                const char* tag) {
  MGHierarchy ha(std::move(pa.A), decomposed(base, {2, 2, 2}));
  MGHierarchy hb(std::move(pb.A), decomposed(base, {1, 1, 1}));
  MGPrecond<CT> Ma(&ha);
  MGPrecond<CT> Mb(&hb);
  const std::size_t n = static_cast<std::size_t>(ha.level(0).A_full.nrows());
  avec<CT> r(n), ea(n), eb(n);
  for (std::size_t i = 0; i < n; ++i) {
    r[i] = static_cast<CT>(std::sin(0.3 * static_cast<double>(i)));
  }
  Ma.apply({r.data(), n}, {ea.data(), n});
  Mb.apply({r.data(), n}, {eb.data(), n});
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(ea[i], eb[i]) << tag << " i=" << i;
  }
}

TEST(DecompEngine, JacobiBitwiseIdenticalAcrossPrecisionConfigs) {
  // Storage-precision axis of the acceptance matrix.
  struct Case {
    const char* name;
    MGConfig cfg;
  };
  for (const Case& tc : {Case{"Full64", config_full64()},
                         Case{"K64P32D32", config_k64p32d32()},
                         Case{"D16-setup-scale", config_d16_setup_scale()},
                         Case{"D16-scale-setup(wrapped)",
                              config_d16_scale_setup()}}) {
    MGConfig cfg = tc.cfg;
    cfg.smoother = SmootherType::Jacobi;
    if (std::string(tc.name) == "D16-setup-scale") {
      // Scaled levels with strongly varying q2: ghost cells must carry the
      // neighbouring boxes' true q2.
      expect_bitwise_equal_apply<float>(make_rhd(Box{16, 16, 16}),
                                        make_rhd(Box{16, 16, 16}), cfg,
                                        "D16-setup-scale rhd");
      expect_bitwise_equal_apply<float>(make_rhd3t(Box{16, 16, 16}),
                                        make_rhd3t(Box{16, 16, 16}), cfg,
                                        "D16-setup-scale rhd3t");
      expect_bitwise_equal_apply<float>(make_oil4c(Box{16, 16, 16}),
                                        make_oil4c(Box{16, 16, 16}), cfg,
                                        "D16-setup-scale oil4c");
    }
    if (std::string(tc.name) == "Full64") {
      expect_bitwise_equal_apply<double>(make_laplace27(Box{17, 17, 17}),
                                         make_laplace27(Box{17, 17, 17}), cfg,
                                         tc.name);
    } else {
      expect_bitwise_equal_apply<float>(make_laplace27(Box{17, 17, 17}),
                                        make_laplace27(Box{17, 17, 17}), cfg,
                                        tc.name);
    }
  }
}

TEST(DecompEngine, JacobiBitwiseIdenticalAcrossLayouts) {
  for (const Layout lay : {Layout::AOS, Layout::SOA, Layout::SOAL}) {
    MGConfig cfg = config_d16_setup_scale();
    cfg.smoother = SmootherType::Jacobi;
    cfg.layout = lay;
    expect_bitwise_equal_apply<float>(make_laplace27(Box{17, 17, 17}),
                                      make_laplace27(Box{17, 17, 17}), cfg,
                                      "layout");
  }
}

TEST(DecompEngine, JacobiBitwiseIdenticalAcrossStencilsAndBlockSizes) {
  MGConfig cfg = config_full64();
  cfg.smoother = SmootherType::Jacobi;
  // 3d19 stencil (weather), block sizes 3 (rhd3t) and 4 (oil4c).
  expect_bitwise_equal_apply<double>(make_weather(Box{14, 14, 14}),
                                     make_weather(Box{14, 14, 14}), cfg,
                                     "weather-3d19");
  expect_bitwise_equal_apply<double>(make_rhd3t(Box{12, 12, 12}),
                                     make_rhd3t(Box{12, 12, 12}), cfg,
                                     "rhd3t-bs3");
  expect_bitwise_equal_apply<double>(make_oil4c(Box{12, 12, 12}),
                                     make_oil4c(Box{12, 12, 12}), cfg,
                                     "oil4c-bs4");
}

TEST(DecompEngine, JacobiBitwiseIdenticalWithWCycleAndAsymmetricDecomp) {
  MGConfig cfg = config_d16_setup_scale();
  cfg.smoother = SmootherType::Jacobi;
  cfg.cycle = CycleShape::W;
  MGHierarchy ha(make_laplace27(Box{17, 17, 13}).A,
                 decomposed(cfg, {2, 2, 1}));
  MGHierarchy hb(make_laplace27(Box{17, 17, 13}).A,
                 decomposed(cfg, {1, 1, 1}));
  MGPrecond<float> Ma(&ha);
  MGPrecond<float> Mb(&hb);
  const std::size_t n = static_cast<std::size_t>(ha.level(0).A_full.nrows());
  avec<float> r(n), ea(n), eb(n);
  for (std::size_t i = 0; i < n; ++i) {
    r[i] = static_cast<float>(std::cos(0.2 * static_cast<double>(i)));
  }
  Ma.apply({r.data(), n}, {ea.data(), n});
  Mb.apply({r.data(), n}, {eb.data(), n});
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(ea[i], eb[i]) << "W-cycle i=" << i;
  }
}

TEST(DecompEngine, PcgHistoryIdenticalUnderDeterministicReductions) {
  auto pa = make_laplace27(Box{17, 17, 17});
  auto pb = make_laplace27(Box{17, 17, 17});
  const StructMat<double> A = pa.A;
  MGConfig cfg = config_d16_setup_scale();
  cfg.smoother = SmootherType::Jacobi;
  MGHierarchy ha(std::move(pa.A), decomposed(cfg, {2, 2, 2}));
  MGHierarchy hb(std::move(pb.A), decomposed(cfg, {1, 1, 1}));
  auto Ma = make_mg_precond<double>(ha);
  auto Mb = make_mg_precond<double>(hb);
  const std::size_t n = pa.b.size();
  const LinOp<double> op = [&A](std::span<const double> x,
                                std::span<double> y) {
    spmv<double, double>(A, x, y);
  };
  SolveOptions opts;
  opts.max_iters = 40;
  opts.deterministic_reductions = true;
  avec<double> xa(n, 0.0), xb(n, 0.0);
  const auto ra = pcg<double>(op, {pa.b.data(), n}, {xa.data(), n}, *Ma, opts);
  const auto rb = pcg<double>(op, {pb.b.data(), n}, {xb.data(), n}, *Mb, opts);
  EXPECT_TRUE(ra.converged);
  EXPECT_EQ(ra.iters, rb.iters);
  ASSERT_EQ(ra.history.size(), rb.history.size());
  for (std::size_t i = 0; i < ra.history.size(); ++i) {
    EXPECT_EQ(ra.history[i], rb.history[i]) << "iter " << i;
  }
}

TEST(DecompEngine, DecomposedSymGSStillContracts) {
  // Per-box sequential sweeps with block-Jacobi boundary coupling are a
  // legitimately different (weaker) smoother; the cycle must still work.
  auto p = make_laplace27(Box{17, 17, 17});
  const StructMat<double> A = p.A;
  MGHierarchy h(std::move(p.A), decomposed(config_full64(), {2, 2, 2}));
  auto M = make_mg_precond<double>(h);
  const std::size_t n = static_cast<std::size_t>(A.nrows());
  avec<double> x(n, 0.0), b(n, 1.0), r(n), e(n);
  residual<double, double>(A, {b.data(), n}, {x.data(), n}, {r.data(), n});
  const double r0 = nrm2<double>({r.data(), n});
  for (int it = 0; it < 6; ++it) {
    M->apply({r.data(), n}, {e.data(), n});
    axpy<double>(1.0, {e.data(), n}, {x.data(), n});
    residual<double, double>(A, {b.data(), n}, {x.data(), n}, {r.data(), n});
  }
  EXPECT_LT(nrm2<double>({r.data(), n}) / r0, 1e-2);
}

TEST(DecompEngine, DecomposedSymGSConvergesOnScaledFp16Levels) {
  // rhd's scaled FP16 levels under the default SymGS smoother: per-box
  // sweeps read ghost neighbours through the true q2.
  auto p = make_rhd(Box{24, 24, 24});
  const StructMat<double> A = p.A;
  MGHierarchy h(std::move(p.A),
                decomposed(config_d16_setup_scale(), {2, 2, 2}));
  ASSERT_TRUE(h.level(0).scaled);
  auto M = make_mg_precond<double>(h);
  const std::size_t n = p.b.size();
  const LinOp<double> op = [&A](std::span<const double> x,
                                std::span<double> y) {
    spmv<double, double>(A, x, y);
  };
  SolveOptions opts;
  opts.max_iters = 60;
  avec<double> x(n, 0.0);
  const auto res = pcg<double>(op, {p.b.data(), n}, {x.data(), n}, *M, opts);
  EXPECT_TRUE(res.converged) << res.iters << " iterations";
}

TEST(DecompEngine, Fp16HaloStaysCloseToRawHalo) {
  auto pa = make_laplace27(Box{17, 17, 17});
  auto pb = make_laplace27(Box{17, 17, 17});
  MGConfig raw = decomposed(config_full64(), {2, 2, 2});
  raw.smoother = SmootherType::Jacobi;
  MGConfig fp16 = raw;
  fp16.halo_fp16 = true;
  MGHierarchy ha(std::move(pa.A), raw);
  MGHierarchy hb(std::move(pb.A), fp16);
  MGPrecond<double> Ma(&ha);
  MGPrecond<double> Mb(&hb);
  const std::size_t n = static_cast<std::size_t>(ha.level(0).A_full.nrows());
  avec<double> r(n), ea(n), eb(n);
  for (std::size_t i = 0; i < n; ++i) {
    r[i] = std::sin(0.3 * static_cast<double>(i));
  }
  Ma.apply({r.data(), n}, {ea.data(), n});
  Mb.apply({r.data(), n}, {eb.data(), n});
  // A handful of 2^-11-relative ghost perturbations through one V-cycle:
  // outputs agree to far better than 1% in norm but are NOT bitwise equal.
  double dn = 0.0, an = 0.0;
  bool any_diff = false;
  for (std::size_t i = 0; i < n; ++i) {
    dn += (ea[i] - eb[i]) * (ea[i] - eb[i]);
    an += ea[i] * ea[i];
    any_diff = any_diff || ea[i] != eb[i];
  }
  EXPECT_TRUE(any_diff) << "FP16 wire was never exercised";
  EXPECT_LT(std::sqrt(dn / an), 1e-2);
}

TEST(DecompEngine, ApplyManyMatchesColumnwiseApplies) {
  auto p = make_laplace27(Box{17, 17, 17});
  MGConfig cfg = decomposed(config_full64(), {2, 2, 2});
  cfg.smoother = SmootherType::Jacobi;
  MGHierarchy h(std::move(p.A), cfg);
  MGPrecond<double> M(&h);
  const std::size_t n = static_cast<std::size_t>(h.level(0).A_full.nrows());
  const int ncols = 3;
  MultiVector<double> R(static_cast<std::int64_t>(n), ncols);
  MultiVector<double> E(static_cast<std::int64_t>(n), ncols);
  for (std::size_t i = 0; i < n; ++i) {
    for (int c = 0; c < ncols; ++c) {
      R.at(static_cast<std::int64_t>(i), c) =
          std::sin(0.1 * static_cast<double>(i) + c);
    }
  }
  M.apply_many(R, E);
  avec<double> rc(n), ec(n), eref(n);
  for (int c = 0; c < ncols; ++c) {
    R.extract_col(c, {rc.data(), n});
    M.apply({rc.data(), n}, {eref.data(), n});
    E.extract_col(c, {ec.data(), n});
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(ec[i], eref[i]) << "col " << c << " i=" << i;
    }
  }
}

TEST(DecompEngine, TinyGridAgglomeratesAndMatchesPlainPath) {
  // With the production 512-cell threshold an 8^3 grid collapses to one box
  // at every level, so requesting a decomposition must change nothing.
  auto pa = make_laplace27(Box{8, 8, 8});
  auto pb = make_laplace27(Box{8, 8, 8});
  MGConfig cfg = config_full64();
  cfg.min_coarse_cells = 64;
  MGConfig dec = cfg;
  dec.decomp = {2, 2, 2};  // decomp_min_box stays at the 512 default
  MGHierarchy ha(std::move(pa.A), dec);
  MGHierarchy hb(std::move(pb.A), cfg);
  MGPrecond<double> Ma(&ha);
  MGPrecond<double> Mb(&hb);
  const std::size_t n = static_cast<std::size_t>(ha.level(0).A_full.nrows());
  avec<double> r(n, 1.0), ea(n), eb(n);
  Ma.apply({r.data(), n}, {ea.data(), n});
  Mb.apply({r.data(), n}, {eb.data(), n});
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(ea[i], eb[i]);
  }
}

TEST(DecompEngine, RefreshLevelKeepsDecomposedPathConsistent) {
  // hierarchy_cache-style reuse: mutate nothing, just force refresh_level
  // and check the decomposed apply is unchanged.
  auto p = make_laplace27(Box{17, 17, 17});
  MGConfig cfg = decomposed(config_full64(), {2, 2, 2});
  cfg.smoother = SmootherType::Jacobi;
  MGHierarchy h(std::move(p.A), cfg);
  MGPrecond<double> M(&h);
  const std::size_t n = static_cast<std::size_t>(h.level(0).A_full.nrows());
  avec<double> r(n, 1.0), e1(n), e2(n);
  M.apply({r.data(), n}, {e1.data(), n});
  for (int l = 0; l < h.nlevels(); ++l) {
    M.refresh_level(l);
  }
  M.apply({r.data(), n}, {e2.data(), n});
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(e1[i], e2[i]);
  }
}

// --- SMG_HALO_FP16 environment override ---

class HaloFp16Env : public ::testing::Test {
 protected:
  void TearDown() override { unsetenv("SMG_HALO_FP16"); }
};

TEST_F(HaloFp16Env, AcceptsOnOffSpellingsCaseInsensitively) {
  MGConfig raw;
  MGConfig packed;
  packed.halo_fp16 = true;
  for (const char* on : {"1", "on", "ON", "On", "true", "True", "yes", "YES"}) {
    setenv("SMG_HALO_FP16", on, 1);
    EXPECT_TRUE(effective_halo_fp16(raw)) << on;
  }
  for (const char* off :
       {"0", "off", "OFF", "Off", "false", "FALSE", "no", "No"}) {
    setenv("SMG_HALO_FP16", off, 1);
    EXPECT_FALSE(effective_halo_fp16(packed)) << off;
  }
  setenv("SMG_HALO_FP16", "", 1);  // empty defers to the config
  EXPECT_TRUE(effective_halo_fp16(packed));
  unsetenv("SMG_HALO_FP16");
  EXPECT_FALSE(effective_halo_fp16(raw));
}

class HaloFp16EnvDeathTest : public ::testing::TestWithParam<const char*> {
 protected:
  void TearDown() override { unsetenv("SMG_HALO_FP16"); }
};

TEST_P(HaloFp16EnvDeathTest, RejectsMalformedValue) {
  setenv("SMG_HALO_FP16", GetParam(), 1);
  EXPECT_DEATH(effective_halo_fp16(MGConfig{}),
               "SMG_HALO_FP16 must be one of 1/on/true/yes or 0/off/false/no");
}

INSTANTIATE_TEST_SUITE_P(Malformed, HaloFp16EnvDeathTest,
                         ::testing::Values("garbage", "2", "enable", "on "));

// --- SMG_DECOMP environment override ---

class DecompEnv : public ::testing::Test {
 protected:
  void TearDown() override { unsetenv("SMG_DECOMP"); }
};

TEST_F(DecompEnv, AcceptsSeparatorVariants) {
  const std::array<int, 3> want{2, 2, 1};
  for (const char* spec : {"2x2x1", "2X2X1", "2,2,1", "2 2 1"}) {
    setenv("SMG_DECOMP", spec, 1);
    EXPECT_EQ(effective_decomp(MGConfig{}), want) << spec;
  }
  MGConfig cfg;
  cfg.decomp = {1, 2, 1};
  setenv("SMG_DECOMP", "", 1);  // empty defers to the config
  EXPECT_EQ(effective_decomp(cfg), cfg.decomp);
  unsetenv("SMG_DECOMP");
  EXPECT_EQ(effective_decomp(cfg), cfg.decomp);
}

class DecompEnvDeathTest : public ::testing::TestWithParam<const char*> {
 protected:
  void TearDown() override { unsetenv("SMG_DECOMP"); }
};

TEST_P(DecompEnvDeathTest, RejectsMalformedValue) {
  setenv("SMG_DECOMP", GetParam(), 1);
  EXPECT_DEATH(effective_decomp(MGConfig{}),
               "SMG_DECOMP must be three positive box counts");
}

INSTANTIATE_TEST_SUITE_P(Malformed, DecompEnvDeathTest,
                         ::testing::Values("2x2", "0x1x1", "2x2x2x2", "abc",
                                           "2x-1x1", "2x2x2junk", " 2x2x1",
                                           "2x2x1 "));

}  // namespace
}  // namespace smg
