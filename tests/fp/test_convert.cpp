// Tests for batch conversion, truncation reporting, and SIMD widen.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "fp/convert.hpp"

namespace smg {
namespace {

TEST(Truncate, ReportsOverflow) {
  std::vector<double> src = {1.0, 1e6, -1e6, 65504.0, 3.0};
  std::vector<half> dst(src.size());
  const auto rep = truncate<half, double>({src.data(), src.size()},
                                          {dst.data(), dst.size()});
  EXPECT_EQ(rep.overflowed, 2u);
  EXPECT_FALSE(rep.safe());
  EXPECT_TRUE(dst[1].is_inf());
  EXPECT_TRUE(dst[2].is_inf());
  EXPECT_TRUE(dst[2].signbit());
  EXPECT_FLOAT_EQ(static_cast<float>(dst[3]), 65504.0f);
}

TEST(Truncate, ReportsUnderflowAndSubnormals) {
  std::vector<double> src = {1e-10, 6.0e-8, 1e-5, 1.0};
  std::vector<half> dst(src.size());
  const auto rep = truncate<half, double>({src.data(), src.size()},
                                          {dst.data(), dst.size()});
  EXPECT_EQ(rep.underflowed, 1u);  // 1e-10 flushes
  EXPECT_GE(rep.subnormal, 2u);    // 6e-8 and 1e-5 are subnormal halves
  EXPECT_TRUE(rep.safe());         // underflow is not overflow
}

TEST(Truncate, Bf16NeverOverflowsFromDoubleInFloatRange) {
  std::vector<double> src = {1e30, -1e30, 1e-30, 42.0};
  std::vector<bfloat16> dst(src.size());
  const auto rep = truncate<bfloat16, double>({src.data(), src.size()},
                                              {dst.data(), dst.size()});
  EXPECT_EQ(rep.overflowed, 0u);
  EXPECT_EQ(rep.underflowed, 0u);
}

TEST(Truncate, Bf16RoundsOnceFromDouble) {
  // Just below a bf16 midpoint: through float it lands on the midpoint and
  // ties to even (0x3F82); rounded once it goes down to 0x3F81.
  const std::vector<double> src = {std::nextafter(0x1.03p0, 0.0)};
  std::vector<bfloat16> dst(1);
  truncate<bfloat16, double>({src.data(), 1}, {dst.data(), 1});
  EXPECT_EQ(dst[0].bits(), 0x3F81u);
  EXPECT_EQ(dst[0].bits(), bfloat16(src[0]).bits());
}

TEST(Truncate, Fp8RoundsOnceFromDouble) {
  const std::vector<double> src = {0x1.10000090f4847p+3};
  std::vector<fp8> dst(1);
  truncate<fp8, double>({src.data(), 1}, {dst.data(), 1});
  EXPECT_EQ(dst[0].bits(), 0x51u);
  EXPECT_EQ(dst[0].bits(), fp8(src[0]).bits());
}

TEST(TruncateDeath, SizeMismatchAborts) {
  const std::vector<double> src(3, 1.0);
  std::vector<half> dst(2);
  const auto run = [&] {
    truncate<half, double>({src.data(), src.size()}, {dst.data(), dst.size()});
  };
  EXPECT_DEATH(run(), "sizes differ");
}

TEST(Truncate, ReportAccumulation) {
  TruncateReport a{1, 2, 3};
  const TruncateReport b{10, 20, 30};
  a += b;
  EXPECT_EQ(a.overflowed, 11u);
  EXPECT_EQ(a.underflowed, 22u);
  EXPECT_EQ(a.subnormal, 33u);
}

TEST(Widen, HalfBatchMatchesScalar) {
  // Sizes straddling the 8-wide SIMD boundary, including remainders.
  for (std::size_t n : {0u, 1u, 7u, 8u, 9u, 16u, 33u, 255u}) {
    std::vector<half> src(n);
    for (std::size_t i = 0; i < n; ++i) {
      src[i] = half(0.25f * static_cast<float>(i) - 3.0f);
    }
    std::vector<float> dst(n, -1.0f);
    widen(src.data(), dst.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(dst[i], static_cast<float>(src[i])) << "i=" << i;
    }
  }
}

TEST(Widen, Bf16BatchMatchesScalar) {
  for (std::size_t n : {1u, 8u, 13u, 64u}) {
    std::vector<bfloat16> src(n);
    for (std::size_t i = 0; i < n; ++i) {
      src[i] = bfloat16(1.5f * static_cast<float>(i) - 10.0f);
    }
    std::vector<float> dst(n);
    widen(src.data(), dst.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(dst[i], static_cast<float>(src[i])) << "i=" << i;
    }
  }
}

TEST(Widen, PreservesSpecials) {
  std::vector<half> src = {half::from_bits(0x7C00),   // +inf
                           half::from_bits(0xFC00),   // -inf
                           half::from_bits(0x7E00),   // nan
                           half::from_bits(0x0001),   // min subnormal
                           half(0.0f)};
  std::vector<float> dst(src.size());
  widen(src.data(), dst.data(), src.size());
  EXPECT_TRUE(std::isinf(dst[0]) && dst[0] > 0);
  EXPECT_TRUE(std::isinf(dst[1]) && dst[1] < 0);
  EXPECT_TRUE(std::isnan(dst[2]));
  EXPECT_FLOAT_EQ(dst[3], 5.9604644775390625e-08f);
  EXPECT_EQ(dst[4], 0.0f);
}

}  // namespace
}  // namespace smg
