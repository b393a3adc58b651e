// Smoother setup tests: diagonal-block inversion.
#include <gtest/gtest.h>

#include <cmath>

#include "core/smoother.hpp"
#include "util/rng.hpp"

namespace smg {
namespace {

TEST(Smoother, ScalarInvdiagIsReciprocal) {
  const Box box{3, 3, 3};
  StructMat<double> A(box, Stencil::make(Pattern::P3d7), 1, Layout::SOA);
  const int center = A.stencil().center();
  for (std::int64_t cell = 0; cell < A.ncells(); ++cell) {
    A.at(cell, center) = 2.0 + static_cast<double>(cell);
  }
  const auto inv = compute_invdiag(A);
  ASSERT_EQ(inv.size(), static_cast<std::size_t>(A.ncells()));
  for (std::int64_t cell = 0; cell < A.ncells(); ++cell) {
    EXPECT_NEAR(inv[static_cast<std::size_t>(cell)],
                1.0 / (2.0 + static_cast<double>(cell)), 1e-14);
  }
}

TEST(Smoother, BlockInvdiagIsTrueInverse) {
  const Box box{2, 2, 2};
  const int bs = 3;
  StructMat<double> A(box, Stencil::make(Pattern::P3d7), bs, Layout::SOA);
  Rng rng(5);
  const int center = A.stencil().center();
  for (std::int64_t cell = 0; cell < A.ncells(); ++cell) {
    for (int r = 0; r < bs; ++r) {
      for (int c = 0; c < bs; ++c) {
        A.at(cell, center, r, c) =
            (r == c ? 5.0 : 0.0) + rng.uniform(-1.0, 1.0);
      }
    }
  }
  const auto inv = compute_invdiag(A);
  // Check B * B^{-1} == I per cell.
  for (std::int64_t cell = 0; cell < A.ncells(); ++cell) {
    for (int r = 0; r < bs; ++r) {
      for (int c = 0; c < bs; ++c) {
        double acc = 0.0;
        for (int q = 0; q < bs; ++q) {
          acc += A.at(cell, center, r, q) *
                 inv[static_cast<std::size_t>(cell * bs * bs + q * bs + c)];
        }
        EXPECT_NEAR(acc, r == c ? 1.0 : 0.0, 1e-12)
            << "cell=" << cell << " (" << r << "," << c << ")";
      }
    }
  }
}

TEST(Smoother, PivotingSurvivesZeroLeadingDiagonalEntry) {
  const Box box{1, 1, 1};
  StructMat<double> A(box, Stencil::make(Pattern::P3d7), 2, Layout::SOA);
  const int center = A.stencil().center();
  // Block [[0, 1], [1, 0]]: invertible but needs a row swap.
  A.at(0, center, 0, 0) = 0.0;
  A.at(0, center, 0, 1) = 1.0;
  A.at(0, center, 1, 0) = 1.0;
  A.at(0, center, 1, 1) = 0.0;
  const auto inv = compute_invdiag(A);
  EXPECT_NEAR(inv[0], 0.0, 1e-14);
  EXPECT_NEAR(inv[1], 1.0, 1e-14);
  EXPECT_NEAR(inv[2], 1.0, 1e-14);
  EXPECT_NEAR(inv[3], 0.0, 1e-14);
}

TEST(SmootherTruncate, RoundTripsThroughFp16) {
  avec<double> data = {1.0, 0.333333333333, -2.5, 1e-3};
  const auto guarded = truncate_smoother_data(data, Prec::FP16);
  EXPECT_EQ(guarded, 0u);
  EXPECT_EQ(data[0], 1.0);
  EXPECT_EQ(data[2], -2.5);
  // 1/3 carries only ~11 significand bits now.
  EXPECT_NEAR(data[1], 1.0 / 3.0, 3e-4);
  EXPECT_NE(data[1], 0.333333333333);
}

TEST(SmootherTruncate, GuardsOutOfRangeValues) {
  // 1/a_ii for a steel-stiffness diagonal (~1e-11) underflows FP16 and a
  // huge inverse overflows: both must keep full precision.
  avec<double> data = {1e-11, 1e7, 2.0};
  const auto guarded = truncate_smoother_data(data, Prec::FP16);
  EXPECT_EQ(guarded, 2u);
  EXPECT_EQ(data[0], 1e-11);
  EXPECT_EQ(data[1], 1e7);
  EXPECT_EQ(data[2], 2.0);
}

TEST(SmootherTruncate, Bf16AndFp32Paths) {
  avec<double> d1 = {1e-11, 0.1};
  EXPECT_EQ(truncate_smoother_data(d1, Prec::BF16), 0u);  // bf16 range is fp32's
  EXPECT_NEAR(d1[1], 0.1, 1e-3);
  avec<double> d2 = {0.1};
  EXPECT_EQ(truncate_smoother_data(d2, Prec::FP32), 0u);
  EXPECT_EQ(d2[0], static_cast<double>(0.1f));
  avec<double> d3 = {0.1};
  EXPECT_EQ(truncate_smoother_data(d3, Prec::FP64), 0u);
  EXPECT_EQ(d3[0], 0.1);
}

TEST(SmootherTruncate, Bf16RoundsOnceFromDouble) {
  // Through float this value would tie to even at 0x3F82; rounded once
  // from double it is 0x3F81.
  avec<double> d = {std::nextafter(0x1.03p0, 0.0)};
  EXPECT_EQ(truncate_smoother_data(d, Prec::BF16), 0u);
  EXPECT_EQ(d[0], static_cast<double>(
                      static_cast<float>(bfloat16::from_bits(0x3F81))));
}

TEST(SmootherDeath, SingularBlockAborts) {
  const Box box{1, 1, 1};
  StructMat<double> A(box, Stencil::make(Pattern::P3d7), 2, Layout::SOA);
  // Center block stays all-zero: singular.
  EXPECT_DEATH(compute_invdiag(A), "singular");
}

}  // namespace
}  // namespace smg
