// SpMV kernel correctness: optimized layouts vs scalar reference vs dense,
// mixed precision tolerance, and recover-and-rescale semantics.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#if defined(_OPENMP)
#include <omp.h>
#endif

#include "kernel_oracle.hpp"
#include "kernels/spmv.hpp"
#include "sgdia/struct_matrix.hpp"
#include "util/rng.hpp"

namespace smg {
namespace {

StructMat<double> random_matrix(const Box& box, Pattern p, int bs,
                                Layout layout, std::uint64_t seed = 7) {
  StructMat<double> A(box, Stencil::make(p), bs, layout);
  Rng rng(seed);
  for (auto& v : A.values()) {
    v = rng.uniform(-1.0, 1.0);
  }
  A.clear_out_of_box();
  return A;
}

template <class T>
avec<T> random_vector(std::int64_t n, std::uint64_t seed = 11) {
  Rng rng(seed);
  avec<T> v(static_cast<std::size_t>(n));
  for (auto& x : v) {
    x = static_cast<T>(rng.uniform(-1.0, 1.0));
  }
  return v;
}

/// Dense reference y = A x from the accessor-level definition.
avec<double> dense_spmv(const StructMat<double>& A,
                        std::span<const double> x) {
  const Box& box = A.box();
  const Stencil& st = A.stencil();
  const int bs = A.block_size();
  avec<double> y(static_cast<std::size_t>(A.nrows()), 0.0);
  for (int k = 0; k < box.nz; ++k) {
    for (int j = 0; j < box.ny; ++j) {
      for (int i = 0; i < box.nx; ++i) {
        const std::int64_t cell = box.idx(i, j, k);
        for (int d = 0; d < st.ndiag(); ++d) {
          const Offset& o = st.offset(d);
          if (!box.contains(i + o.dx, j + o.dy, k + o.dz)) {
            continue;
          }
          const std::int64_t nbr = box.idx(i + o.dx, j + o.dy, k + o.dz);
          for (int br = 0; br < bs; ++br) {
            for (int bc = 0; bc < bs; ++bc) {
              y[static_cast<std::size_t>(cell * bs + br)] +=
                  A.at(cell, d, br, bc) * x[nbr * bs + bc];
            }
          }
        }
      }
    }
  }
  return y;
}

struct SpmvCase {
  Pattern pattern;
  int bs;
  Layout layout;
};

class SpmvParam : public ::testing::TestWithParam<SpmvCase> {};

TEST_P(SpmvParam, MatchesDenseReference) {
  const auto& c = GetParam();
  const Box box{9, 7, 5};
  auto A = random_matrix(box, c.pattern, c.bs, c.layout);
  auto x = random_vector<double>(A.nrows());
  avec<double> y(static_cast<std::size_t>(A.nrows()));
  spmv<double, double>(A, {x.data(), x.size()}, {y.data(), y.size()});
  const auto ref = dense_spmv(A, {x.data(), x.size()});
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_NEAR(y[i], ref[i], 1e-12) << "i=" << i;
  }
}

TEST_P(SpmvParam, RefKernelMatchesDense) {
  const auto& c = GetParam();
  const Box box{6, 5, 4};
  auto A = random_matrix(box, c.pattern, c.bs, c.layout);
  auto x = random_vector<double>(A.nrows());
  avec<double> y(static_cast<std::size_t>(A.nrows()));
  oracle::spmv_ref<double, double>(A, {x.data(), x.size()}, {y.data(), y.size()});
  const auto ref = dense_spmv(A, {x.data(), x.size()});
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_NEAR(y[i], ref[i], 1e-12);
  }
}

TEST_P(SpmvParam, ResidualIsBMinusAx) {
  const auto& c = GetParam();
  const Box box{8, 6, 5};
  auto A = random_matrix(box, c.pattern, c.bs, c.layout);
  auto x = random_vector<double>(A.nrows(), 3);
  auto b = random_vector<double>(A.nrows(), 5);
  avec<double> r(static_cast<std::size_t>(A.nrows()));
  residual<double, double>(A, {b.data(), b.size()}, {x.data(), x.size()},
                           {r.data(), r.size()});
  const auto ax = dense_spmv(A, {x.data(), x.size()});
  for (std::size_t i = 0; i < r.size(); ++i) {
    EXPECT_NEAR(r[i], b[i] - ax[i], 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PatternsBlocksLayouts, SpmvParam,
    ::testing::Values(SpmvCase{Pattern::P3d7, 1, Layout::SOA},
                      SpmvCase{Pattern::P3d7, 1, Layout::AOS},
                      SpmvCase{Pattern::P3d7, 1, Layout::SOAL},
                      SpmvCase{Pattern::P3d19, 1, Layout::SOA},
                      SpmvCase{Pattern::P3d19, 1, Layout::AOS},
                      SpmvCase{Pattern::P3d19, 1, Layout::SOAL},
                      SpmvCase{Pattern::P3d27, 1, Layout::SOA},
                      SpmvCase{Pattern::P3d27, 1, Layout::AOS},
                      SpmvCase{Pattern::P3d27, 1, Layout::SOAL},
                      SpmvCase{Pattern::P3d15, 3, Layout::SOA},
                      SpmvCase{Pattern::P3d15, 3, Layout::AOS},
                      SpmvCase{Pattern::P3d15, 3, Layout::SOAL},
                      SpmvCase{Pattern::P3d7, 4, Layout::SOA},
                      SpmvCase{Pattern::P3d7, 4, Layout::AOS},
                      SpmvCase{Pattern::P3d7, 4, Layout::SOAL}));

TEST(SpmvMixed, SoalHalfMatchesSoaHalf) {
  // The line-blocked SOAL path and the plain SOA path must agree exactly up
  // to summation order on every cell, including all boundary blocks.
  for (const Box box : {Box{17, 9, 8}, Box{5, 4, 3}, Box{8, 8, 8}}) {
    auto A = random_matrix(box, Pattern::P3d27, 1, Layout::SOA);
    auto Ah_soa = convert<half>(A, Layout::SOA);
    auto Ah_soal = convert<half>(A, Layout::SOAL);
    auto x = random_vector<float>(A.nrows());
    avec<float> y1(x.size()), y2(x.size());
    spmv<half, float>(Ah_soa, {x.data(), x.size()}, {y1.data(), y1.size()});
    spmv<half, float>(Ah_soal, {x.data(), x.size()}, {y2.data(), y2.size()});
    for (std::size_t i = 0; i < y1.size(); ++i) {
      EXPECT_NEAR(y1[i], y2[i], 1e-5f) << "i=" << i;
    }
  }
}

TEST(SpmvMixed, HalfStorageCloseToFloat) {
  const Box box{16, 12, 10};
  auto A = random_matrix(box, Pattern::P3d27, 1, Layout::SOA);
  auto Ah = convert<half>(A, Layout::SOA);
  auto Af = convert<float>(A, Layout::SOA);
  auto x = random_vector<float>(A.nrows());
  avec<float> yh(x.size()), yf(x.size());
  spmv<half, float>(Ah, {x.data(), x.size()}, {yh.data(), yh.size()});
  spmv<float, float>(Af, {x.data(), x.size()}, {yf.data(), yf.size()});
  // 27 accumulated products, each with relative error <= 2^-11.
  for (std::size_t i = 0; i < yh.size(); ++i) {
    EXPECT_NEAR(yh[i], yf[i], 27.0 * 0.5e-3 * 2.0 + 1e-6);
  }
}

TEST(SpmvMixed, HalfAosNaiveMatchesSoaOpt) {
  // The AOS "naive" and SOA SIMD paths must be numerically identical: both
  // widen exactly the same FP16 values into FP32 before multiplying.
  const Box box{17, 9, 8};  // odd nx exercises SIMD remainder lanes
  auto A = random_matrix(box, Pattern::P3d19, 1, Layout::SOA);
  auto Ah_soa = convert<half>(A, Layout::SOA);
  auto Ah_aos = convert<half>(A, Layout::AOS);
  auto x = random_vector<float>(A.nrows());
  avec<float> ys(x.size()), ya(x.size());
  spmv<half, float>(Ah_soa, {x.data(), x.size()}, {ys.data(), ys.size()});
  spmv<half, float>(Ah_aos, {x.data(), x.size()}, {ya.data(), ya.size()});
  for (std::size_t i = 0; i < ys.size(); ++i) {
    // Same values, same compute precision; only summation order differs
    // between per-diagonal and per-cell accumulation.
    EXPECT_NEAR(ys[i], ya[i], 1e-4f) << "i=" << i;
  }
}

TEST(SpmvMixed, Bf16StorageWorks) {
  const Box box{8, 8, 8};
  auto A = random_matrix(box, Pattern::P3d7, 1, Layout::SOA);
  auto Ab = convert<bfloat16>(A, Layout::SOA);
  auto x = random_vector<float>(A.nrows());
  avec<float> y(x.size());
  spmv<bfloat16, float>(Ab, {x.data(), x.size()}, {y.data(), y.size()});
  const auto xd = random_vector<double>(A.nrows());  // same seed = same values
  avec<double> yd = dense_spmv(A, {xd.data(), xd.size()});
  for (std::size_t i = 0; i < y.size(); ++i) {
    // bf16 has ~2-3 decimal digits.
    EXPECT_NEAR(y[i], yd[i], 0.1 + 0.05 * std::abs(yd[i]));
  }
}

TEST(SpmvScaled, RecoverAndRescaleReproducesOriginalOperator) {
  // Scaled storage Â = Q^{-1/2} A Q^{-1/2} with on-the-fly q2 rescale must
  // reproduce A x.  Build an SPD-ish matrix with positive diagonal.
  const Box box{7, 6, 5};
  StructMat<double> A(box, Stencil::make(Pattern::P3d7), 1, Layout::SOA);
  Rng rng(99);
  const int center = A.stencil().center();
  for (std::int64_t cell = 0; cell < A.ncells(); ++cell) {
    for (int d = 0; d < A.ndiag(); ++d) {
      A.at(cell, d) = d == center ? rng.uniform(6.0, 12.0)
                                  : rng.uniform(-1.0, 0.0);
    }
  }
  A.clear_out_of_box();

  // Manual scaling with G = 1: q2[i] = sqrt(a_ii).
  StructMat<double> Ahat = A;
  avec<float> q2(static_cast<std::size_t>(A.nrows()));
  avec<double> q2d(q2.size());
  for (std::int64_t cell = 0; cell < A.ncells(); ++cell) {
    q2d[static_cast<std::size_t>(cell)] = std::sqrt(A.at(cell, center));
    q2[static_cast<std::size_t>(cell)] =
        static_cast<float>(q2d[static_cast<std::size_t>(cell)]);
  }
  const Box& b = A.box();
  const Stencil& st = A.stencil();
  for (int k = 0; k < b.nz; ++k) {
    for (int j = 0; j < b.ny; ++j) {
      for (int i = 0; i < b.nx; ++i) {
        const std::int64_t cell = b.idx(i, j, k);
        for (int d = 0; d < st.ndiag(); ++d) {
          const Offset& o = st.offset(d);
          if (!b.contains(i + o.dx, j + o.dy, k + o.dz)) {
            continue;
          }
          const std::int64_t nbr = b.idx(i + o.dx, j + o.dy, k + o.dz);
          Ahat.at(cell, d) /= q2d[static_cast<std::size_t>(cell)] *
                              q2d[static_cast<std::size_t>(nbr)];
        }
      }
    }
  }

  auto Ah = convert<half>(Ahat, Layout::SOA);
  auto x = random_vector<float>(A.nrows(), 21);
  avec<float> y_scaled(x.size());
  spmv<half, float>(Ah, {x.data(), x.size()}, {y_scaled.data(), y_scaled.size()},
                    q2.data());

  auto xd = random_vector<double>(A.nrows(), 21);
  const auto y_ref = dense_spmv(A, {xd.data(), xd.size()});
  for (std::size_t i = 0; i < y_scaled.size(); ++i) {
    EXPECT_NEAR(y_scaled[i], y_ref[i],
                3e-3 * (std::abs(y_ref[i]) + 10.0));
  }
}

TEST(SpmvScaled, ScaledResidualMatchesUnscaledOperator) {
  const Box box{6, 6, 6};
  StructMat<double> A(box, Stencil::make(Pattern::P3d7), 1, Layout::SOA);
  const int center = A.stencil().center();
  Rng rng(3);
  for (std::int64_t cell = 0; cell < A.ncells(); ++cell) {
    for (int d = 0; d < A.ndiag(); ++d) {
      A.at(cell, d) = d == center ? 8.0 : -1.0;
    }
  }
  A.clear_out_of_box();
  // Trivial scaling q2 = 1 must leave results identical to the plain path.
  auto Af = convert<float>(A, Layout::SOA);
  avec<float> q2(static_cast<std::size_t>(A.nrows()), 1.0f);
  auto x = random_vector<float>(A.nrows(), 8);
  auto bb = random_vector<float>(A.nrows(), 9);
  avec<float> r1(x.size()), r2(x.size());
  residual<float, float>(Af, {bb.data(), bb.size()}, {x.data(), x.size()},
                         {r1.data(), r1.size()}, q2.data());
  residual<float, float>(Af, {bb.data(), bb.size()}, {x.data(), x.size()},
                         {r2.data(), r2.size()});
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_NEAR(r1[i], r2[i], 1e-5f);
  }
}

TEST(SpmvScaled, BlockScaledPathIsThreadCountInvariant) {
  // Regression: the scaled block kernel's q2.*x pre-pass once indexed a
  // thread_local buffer from inside its omp-parallel region, so worker
  // threads wrote through their own (empty) copy — a crash only visible at
  // >= 2 threads with bs > 1 and q2 != nullptr (the fig9 solid3d config).
  const Box box{10, 7, 6};
  auto A = random_matrix(box, Pattern::P3d15, 3, Layout::SOAL, 31);
  auto Ah = convert<half>(A, Layout::SOAL);
  const std::size_t n = static_cast<std::size_t>(A.nrows());
  avec<float> q2(n);
  Rng rng(17);
  for (auto& q : q2) {
    q = static_cast<float>(rng.uniform(0.5, 2.0));
  }
  auto x = random_vector<float>(A.nrows(), 23);

  const auto run = [&]() {
    avec<float> y(n);
    spmv<half, float>(Ah, {x.data(), x.size()}, {y.data(), y.size()},
                      q2.data());
    return y;
  };

#if defined(_OPENMP)
  const int saved = omp_get_max_threads();
#endif
  const avec<float> ref = run();
  for (int nt : {2, 4, 8}) {
#if defined(_OPENMP)
    omp_set_num_threads(nt);
#else
    (void)nt;
#endif
    const avec<float> y = run();
    ASSERT_EQ(0, std::memcmp(y.data(), ref.data(), n * sizeof(float)))
        << "threads=" << nt;
  }
#if defined(_OPENMP)
  omp_set_num_threads(saved);
#endif
}

TEST(Spmv, EmptyAndTinyBoxes) {
  for (const Box box : {Box{1, 1, 1}, Box{2, 1, 1}, Box{1, 2, 3}}) {
    auto A = random_matrix(box, Pattern::P3d27, 1, Layout::SOA);
    auto x = random_vector<double>(A.nrows());
    avec<double> y(x.size());
    spmv<double, double>(A, {x.data(), x.size()}, {y.data(), y.size()});
    const auto ref = dense_spmv(A, {x.data(), x.size()});
    for (std::size_t i = 0; i < y.size(); ++i) {
      EXPECT_NEAR(y[i], ref[i], 1e-13);
    }
  }
}

}  // namespace
}  // namespace smg
