// Every single-vector kernel entry point (spmv, residual, residual_restrict,
// jacobi_sweep_fused, gs_forward, gs_backward) against the reference
// single-vector drivers in kernel_oracle.hpp, byte for byte: every layout,
// storage type and block size 1/3/4, with and without q2, SymGS with and
// without a wavefront schedule, boxes with a unit extent, at 1 and 4 OpenMP
// threads.  The span calls run the one-column panel driver; the oracle is
// the independently written per-layout code they replaced.
#include <gtest/gtest.h>

#include <cstring>
#include <initializer_list>
#include <span>
#include <vector>

#if defined(_OPENMP)
#include <omp.h>
#endif

#include "core/smoother.hpp"
#include "core/transfer.hpp"
#include "grid/wavefront.hpp"
#include "kernel_oracle.hpp"
#include "kernels/fused.hpp"
#include "kernels/spmv.hpp"
#include "kernels/symgs.hpp"
#include "sgdia/struct_matrix.hpp"
#include "util/aligned.hpp"
#include "util/rng.hpp"

namespace smg {
namespace {

/// Diagonally dominant random matrix (GS- and Jacobi-stable).
StructMat<double> dd_matrix(const Box& box, Pattern p, int bs,
                            std::uint64_t seed) {
  StructMat<double> A(box, Stencil::make(p), bs, Layout::SOA);
  Rng rng(seed);
  const int center = A.stencil().center();
  const double dom = 2.0 * A.ndiag() * bs;
  for (std::int64_t cell = 0; cell < A.ncells(); ++cell) {
    for (int d = 0; d < A.ndiag(); ++d) {
      for (int br = 0; br < bs; ++br) {
        for (int bc = 0; bc < bs; ++bc) {
          double v = rng.uniform(-1.0, 1.0);
          if (d == center && br == bc) {
            v = dom + rng.uniform(0.0, 1.0);
          }
          A.at(cell, d, br, bc) = v;
        }
      }
    }
  }
  A.clear_out_of_box();
  return A;
}

template <class T>
avec<T> rand_vec(std::int64_t n, std::uint64_t seed, double lo, double hi) {
  Rng rng(seed);
  avec<T> v(static_cast<std::size_t>(n));
  for (auto& x : v) {
    x = static_cast<T>(rng.uniform(lo, hi));
  }
  return v;
}

/// memcmp with the first mismatching entry in the failure message.
template <class CT>
::testing::AssertionResult same_bytes(const avec<CT>& got,
                                      const avec<CT>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure() << "size mismatch";
  }
  if (std::memcmp(got.data(), want.data(), got.size() * sizeof(CT)) == 0) {
    return ::testing::AssertionSuccess();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(CT)) != 0) {
      return ::testing::AssertionFailure()
             << "first mismatch at " << i << ": kernel="
             << static_cast<double>(got[i])
             << " oracle=" << static_cast<double>(want[i]);
    }
  }
  return ::testing::AssertionFailure() << "memcmp mismatch";
}

template <class T>
std::span<const T> cs(const avec<T>& v) {
  return {v.data(), v.size()};
}
template <class T>
std::span<T> ms(avec<T>& v) {
  return {v.data(), v.size()};
}

/// All six span entry points against the oracle on one configuration.
template <class ST, class CT>
void oracle_case(const Box& box, Pattern pat, int bs, Layout layout,
                 bool scaled) {
  SCOPED_TRACE(::testing::Message()
               << "box " << box.nx << "x" << box.ny << "x" << box.nz << " "
               << to_string(pat) << " bs=" << bs
               << " layout=" << static_cast<int>(layout)
               << " q2=" << scaled);
  const auto Ad = dd_matrix(box, pat, bs, 17);
  const auto A = convert<ST>(Ad, layout);
  const auto invd = compute_invdiag(Ad);
  avec<CT> invdc(invd.size());
  for (std::size_t i = 0; i < invd.size(); ++i) {
    invdc[i] = static_cast<CT>(invd[i]);
  }
  const std::int64_t n = A.nrows();
  const auto x = rand_vec<CT>(n, 101, -1.0, 1.0);
  const auto f = rand_vec<CT>(n, 211, -1.0, 1.0);
  avec<CT> q2v;
  const CT* q2 = nullptr;
  if (scaled) {
    q2v = rand_vec<CT>(n, 29, 0.5, 1.5);
    q2 = q2v.data();
  }
  const std::size_t nz = static_cast<std::size_t>(n);

  avec<CT> got(nz, CT{7}), want(nz, CT{7});
  spmv<ST, CT>(A, cs(x), ms(got), q2);
  oracle::spmv<ST, CT>(A, cs(x), ms(want), q2);
  EXPECT_TRUE(same_bytes(got, want)) << "spmv";

  residual<ST, CT>(A, cs(f), cs(x), ms(got), q2);
  oracle::residual<ST, CT>(A, cs(f), cs(x), ms(want), q2);
  EXPECT_TRUE(same_bytes(got, want)) << "residual";

  jacobi_sweep_fused<ST, CT>(A, cs(f), cs(x), cs(invdc), q2, CT{0.8},
                             ms(got));
  oracle::jacobi_sweep_fused<ST, CT>(A, cs(f), cs(x), cs(invdc), q2, CT{0.8},
                                     ms(want));
  EXPECT_TRUE(same_bytes(got, want)) << "jacobi_sweep_fused";

  const Coarsening c = Coarsening::make(box, 3);
  const std::size_t ncz = static_cast<std::size_t>(c.coarse.size() * bs);
  avec<CT> fcg(ncz, CT{7}), fcw(ncz, CT{7});
  residual_restrict<ST, CT>(A, cs(f), cs(x), q2, c, ms(fcg));
  oracle::residual_restrict<ST, CT>(A, cs(f), cs(x), q2, c, ms(fcw));
  EXPECT_TRUE(same_bytes(fcg, fcw)) << "residual_restrict";

  const WavefrontSchedule wf =
      layout == Layout::AOS ? WavefrontSchedule::cells(box, A.stencil())
                            : WavefrontSchedule::lines(box, A.stencil());
  for (const WavefrontSchedule* sched : {static_cast<const WavefrontSchedule*>(
                                             nullptr),
                                         &wf}) {
    avec<CT> ug(nz, CT{0.25}), uw(nz, CT{0.25});
    gs_forward<ST, CT>(A, cs(f), ms(ug), cs(invdc), q2, sched);
    oracle::gs_forward<ST, CT>(A, cs(f), ms(uw), cs(invdc), q2, sched);
    EXPECT_TRUE(same_bytes(ug, uw))
        << "gs_forward wavefront=" << (sched != nullptr);
    gs_backward<ST, CT>(A, cs(f), ms(ug), cs(invdc), q2, sched);
    oracle::gs_backward<ST, CT>(A, cs(f), ms(uw), cs(invdc), q2, sched);
    EXPECT_TRUE(same_bytes(ug, uw))
        << "gs_backward wavefront=" << (sched != nullptr);
  }
}

/// layout x block size x q2 x box (unit extents included) x pattern, at 1
/// and 4 OpenMP threads.
template <class ST, class CT>
void oracle_matrix() {
  const Box boxes[] = {{11, 7, 6}, {1, 5, 4}, {6, 1, 5}, {7, 5, 1}, {1, 1, 9}};
#if defined(_OPENMP)
  const int saved = omp_get_max_threads();
  for (int nt : {1, 4}) {
    omp_set_num_threads(nt);
    SCOPED_TRACE(::testing::Message() << "threads=" << nt);
#endif
    for (Layout layout : {Layout::SOA, Layout::SOAL, Layout::AOS}) {
      for (int bs : {1, 3, 4}) {
        for (bool scaled : {false, true}) {
          for (const Box& box : boxes) {
            oracle_case<ST, CT>(box, Pattern::P3d27, bs, layout, scaled);
          }
          oracle_case<ST, CT>(boxes[0], Pattern::P3d7, bs, layout, scaled);
          oracle_case<ST, CT>(boxes[0], Pattern::P3d19, bs, layout, scaled);
        }
      }
    }
#if defined(_OPENMP)
  }
  omp_set_num_threads(saved);
#endif
}

TEST(KernelOracle, SpanKernelsMatchDouble) { oracle_matrix<double, double>(); }
TEST(KernelOracle, SpanKernelsMatchFloat) { oracle_matrix<float, float>(); }
TEST(KernelOracle, SpanKernelsMatchHalf) { oracle_matrix<half, float>(); }
TEST(KernelOracle, SpanKernelsMatchBfloat16) {
  oracle_matrix<bfloat16, float>();
}
TEST(KernelOracle, SpanKernelsMatchFp8) { oracle_matrix<fp8, float>(); }
TEST(KernelOracle, SpanKernelsMatchHalfDoubleCompute) {
  oracle_matrix<half, double>();
}

}  // namespace
}  // namespace smg
