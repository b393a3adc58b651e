// Fused downstroke kernels: residual_restrict and jacobi_sweep_fused must be
// bitwise identical to their two-step references (a residual into a scratch
// vector, then restrict / diagonal-update) for every layout × storage ×
// block-size × q2 combination, at every thread count.  Bitwise — not
// "near" — because the fused kernels perform the same operations on the same
// operands in the same order; any drift here is a dispatch mismatch, not
// rounding.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#if defined(_OPENMP)
#include <omp.h>
#endif

#include "core/transfer.hpp"
#include "kernel_oracle.hpp"
#include "kernels/fused.hpp"
#include "kernels/spmv.hpp"
#include "sgdia/struct_matrix.hpp"
#include "util/rng.hpp"

namespace smg {
namespace {

StructMat<double> random_matrix(const Box& box, Pattern p, int bs,
                                std::uint64_t seed = 7) {
  StructMat<double> A(box, Stencil::make(p), bs, Layout::SOA);
  Rng rng(seed);
  for (auto& v : A.values()) {
    v = rng.uniform(-1.0, 1.0);
  }
  A.clear_out_of_box();
  return A;
}

template <class T>
avec<T> random_vector(std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  avec<T> v(static_cast<std::size_t>(n));
  for (auto& x : v) {
    x = static_cast<T>(rng.uniform(-1.0, 1.0));
  }
  return v;
}

template <class T>
avec<T> random_q2(std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  avec<T> v(static_cast<std::size_t>(n));
  for (auto& x : v) {
    x = static_cast<T>(0.5 + std::abs(rng.uniform(-1.0, 1.0)));
  }
  return v;
}

/// Fused vs (reference residual; restrict_to_coarse) for one (storage,
/// compute, layout, q2) combination on the given matrix.
template <class ST, class CT>
void expect_fused_matches(const StructMat<double>& Ad, Layout layout,
                          bool with_q2, int min_dim) {
  const auto A = convert<ST>(Ad, layout);
  const Coarsening c = Coarsening::make(Ad.box(), min_dim);
  const int bs = A.block_size();
  const std::int64_t n = A.nrows();
  const std::size_t nc = static_cast<std::size_t>(c.coarse.size() * bs);
  const auto f = random_vector<CT>(n, 5);
  const auto u = random_vector<CT>(n, 3);
  avec<CT> q2v;
  const CT* q2 = nullptr;
  if (with_q2) {
    q2v = random_q2<CT>(n, 9);
    q2 = q2v.data();
  }

  avec<CT> r(static_cast<std::size_t>(n));
  oracle::residual(A, std::span<const CT>{f.data(), f.size()},
                   std::span<const CT>{u.data(), u.size()},
                   std::span<CT>{r.data(), r.size()}, q2);
  avec<CT> ref(nc);
  restrict_to_coarse<CT>(c, bs, {r.data(), r.size()}, {ref.data(), nc});

  avec<CT> out(nc, static_cast<CT>(42));  // poison: every dof must be written
  residual_restrict(A, std::span<const CT>{f.data(), f.size()},
                    std::span<const CT>{u.data(), u.size()}, q2, c,
                    std::span<CT>{out.data(), nc});

  ASSERT_EQ(0, std::memcmp(out.data(), ref.data(), nc * sizeof(CT)))
      << "layout=" << static_cast<int>(layout) << " bs=" << bs
      << " q2=" << with_q2 << " min_dim=" << min_dim;
}

struct FusedCase {
  Pattern pattern;
  int bs;
  Layout layout;
};

class FusedParam : public ::testing::TestWithParam<FusedCase> {};

TEST_P(FusedParam, MatchesTwoStepReferenceBitwise) {
  const auto& pc = GetParam();
  const Box box{9, 7, 6};
  const auto Ad = random_matrix(box, pc.pattern, pc.bs);
  // min_dim = 3 coarsens every dimension; min_dim = 7 exercises the
  // semicoarsened (identity-dimension) children path.
  for (int min_dim : {3, 7}) {
    for (bool q2 : {false, true}) {
      expect_fused_matches<double, double>(Ad, pc.layout, q2, min_dim);
      expect_fused_matches<float, float>(Ad, pc.layout, q2, min_dim);
      expect_fused_matches<half, float>(Ad, pc.layout, q2, min_dim);
      expect_fused_matches<bfloat16, float>(Ad, pc.layout, q2, min_dim);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, FusedParam,
    ::testing::Values(FusedCase{Pattern::P3d7, 1, Layout::SOA},
                      FusedCase{Pattern::P3d7, 1, Layout::SOAL},
                      FusedCase{Pattern::P3d7, 1, Layout::AOS},
                      FusedCase{Pattern::P3d27, 1, Layout::SOA},
                      FusedCase{Pattern::P3d27, 1, Layout::SOAL},
                      FusedCase{Pattern::P3d27, 1, Layout::AOS},
                      FusedCase{Pattern::P3d19, 1, Layout::SOAL},
                      FusedCase{Pattern::P3d7, 3, Layout::SOA},
                      FusedCase{Pattern::P3d7, 3, Layout::SOAL},
                      FusedCase{Pattern::P3d7, 3, Layout::AOS},
                      FusedCase{Pattern::P3d27, 3, Layout::SOAL}));

#if defined(_OPENMP)
TEST(FusedThreads, ResidualRestrictIsThreadCountInvariant) {
  const Box box{17, 13, 11};
  const auto Ad = random_matrix(box, Pattern::P3d27, 1);
  const auto A = convert<half>(Ad, Layout::SOAL);
  const Coarsening c = Coarsening::make(box, 3);
  const std::int64_t n = A.nrows();
  const std::size_t nc = static_cast<std::size_t>(c.coarse.size());
  const auto f = random_vector<float>(n, 5);
  const auto u = random_vector<float>(n, 3);
  const auto q2 = random_q2<float>(n, 9);

  const int saved = omp_get_max_threads();
  omp_set_num_threads(1);
  avec<float> ref(nc);
  residual_restrict(A, std::span<const float>{f.data(), f.size()},
                    std::span<const float>{u.data(), u.size()}, q2.data(), c,
                    std::span<float>{ref.data(), nc});
  for (int nt : {2, 3, 5, 8}) {
    omp_set_num_threads(nt);
    avec<float> out(nc, -1.0f);
    residual_restrict(A, std::span<const float>{f.data(), f.size()},
                      std::span<const float>{u.data(), u.size()}, q2.data(),
                      c, std::span<float>{out.data(), nc});
    EXPECT_EQ(0, std::memcmp(out.data(), ref.data(), nc * sizeof(float)))
        << "threads=" << nt;
  }
  omp_set_num_threads(saved);
}
#endif

template <class ST, class CT>
void expect_jacobi_matches(const StructMat<double>& Ad, Layout layout,
                           bool with_q2) {
  const auto A = convert<ST>(Ad, layout);
  const int bs = A.block_size();
  const std::int64_t n = A.nrows();
  const std::int64_t nblk = A.ncells() * bs * bs;
  const auto f = random_vector<CT>(n, 5);
  const auto u = random_vector<CT>(n, 3);
  const auto invdiag = random_vector<CT>(nblk, 17);
  avec<CT> q2v;
  const CT* q2 = nullptr;
  if (with_q2) {
    q2v = random_q2<CT>(n, 9);
    q2 = q2v.data();
  }
  const CT w = static_cast<CT>(0.67);

  // Two-pass reference: residual, then the diagonal update.
  avec<CT> r(static_cast<std::size_t>(n));
  residual(A, std::span<const CT>{f.data(), f.size()},
           std::span<const CT>{u.data(), u.size()},
           std::span<CT>{r.data(), r.size()}, q2);
  avec<CT> ref(static_cast<std::size_t>(n));
  const std::int64_t block2 = static_cast<std::int64_t>(bs) * bs;
  for (std::int64_t cell = 0; cell < A.ncells(); ++cell) {
    const CT* blk = invdiag.data() + cell * block2;
    for (int br = 0; br < bs; ++br) {
      CT acc{0};
      for (int bc = 0; bc < bs; ++bc) {
        acc += blk[br * bs + bc] * r[static_cast<std::size_t>(cell * bs + bc)];
      }
      ref[static_cast<std::size_t>(cell * bs + br)] =
          u[static_cast<std::size_t>(cell * bs + br)] + w * acc;
    }
  }

  avec<CT> unew(static_cast<std::size_t>(n));
  jacobi_sweep_fused(A, std::span<const CT>{f.data(), f.size()},
                     std::span<const CT>{u.data(), u.size()},
                     std::span<const CT>{invdiag.data(), invdiag.size()}, q2,
                     w, std::span<CT>{unew.data(), unew.size()});
  ASSERT_EQ(0, std::memcmp(unew.data(), ref.data(),
                           static_cast<std::size_t>(n) * sizeof(CT)))
      << "layout=" << static_cast<int>(layout) << " bs=" << bs
      << " q2=" << with_q2;
}

TEST(FusedJacobi, MatchesTwoPassReferenceBitwise) {
  const Box box{8, 7, 5};
  for (int bs : {1, 3}) {
    const auto Ad = random_matrix(box, Pattern::P3d27, bs);
    for (Layout layout : {Layout::SOA, Layout::SOAL, Layout::AOS}) {
      for (bool q2 : {false, true}) {
        expect_jacobi_matches<double, double>(Ad, layout, q2);
        expect_jacobi_matches<float, float>(Ad, layout, q2);
        expect_jacobi_matches<half, float>(Ad, layout, q2);
        expect_jacobi_matches<bfloat16, float>(Ad, layout, q2);
      }
    }
  }
}

}  // namespace
}  // namespace smg
