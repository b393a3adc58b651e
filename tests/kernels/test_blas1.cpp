// Tests for vector kernels.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "kernels/blas1.hpp"

namespace smg {
namespace {

TEST(Blas1, Axpy) {
  std::vector<double> x = {1, 2, 3}, y = {10, 20, 30};
  axpy<double>(2.0, {x.data(), x.size()}, {y.data(), y.size()});
  EXPECT_EQ(y, (std::vector<double>{12, 24, 36}));
}

TEST(Blas1, Xpay) {
  std::vector<double> x = {1, 2, 3}, y = {10, 20, 30};
  xpay<double>({x.data(), x.size()}, 0.5, {y.data(), y.size()});
  EXPECT_EQ(y, (std::vector<double>{6, 12, 18}));
}

TEST(Blas1, ScalAndZero) {
  std::vector<float> x = {2, -4, 8};
  scal<float>(0.5f, {x.data(), x.size()});
  EXPECT_EQ(x, (std::vector<float>{1, -2, 4}));
  set_zero(std::span<float>{x.data(), x.size()});
  EXPECT_EQ(x, (std::vector<float>{0, 0, 0}));
}

TEST(Blas1, DotAccumulatesInDouble) {
  // 1e8 + 1 + ... + 1 - 1e8: float accumulation would lose the ones.
  std::vector<float> x(1026, 1.0f), y(1026, 1.0f);
  x[0] = 1e8f;
  x[1025] = -1e8f;
  const double d =
      dot_deterministic<float>({x.data(), x.size()}, {y.data(), y.size()});
  EXPECT_DOUBLE_EQ(d, 1024.0);
}

TEST(Blas1, Norms) {
  std::vector<double> x = {3, -4};
  EXPECT_DOUBLE_EQ(nrm2_deterministic<double>({x.data(), x.size()}), 5.0);
}

TEST(Blas1, CopyConvertTruncates) {
  std::vector<double> x = {1.0000000001, -2.5};
  std::vector<float> y(2);
  copy_convert<float, double>({x.data(), x.size()}, {y.data(), y.size()});
  EXPECT_FLOAT_EQ(y[0], 1.0f);
  EXPECT_FLOAT_EQ(y[1], -2.5f);
}

TEST(Blas1, LargeVectorsConsistent) {
  const std::size_t n = 100003;  // odd size exercises SIMD remainders
  std::vector<double> x(n), y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::sin(static_cast<double>(i));
    y[i] = std::cos(static_cast<double>(i));
  }
  double ref = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    ref += x[i] * y[i];
  }
  EXPECT_NEAR(dot_deterministic<double>({x.data(), n}, {y.data(), n}), ref,
              1e-9 * std::abs(ref) + 1e-12);
}

}  // namespace
}  // namespace smg
