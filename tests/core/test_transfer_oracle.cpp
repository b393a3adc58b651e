// The line-form transfer kernels (core/transfer.hpp) against the per-point
// oracle (transfer_oracle.hpp), byte for byte: every coarsening mask, odd
// and even extents down to coarse extent 1, block sizes 1-4, float and
// double, panels and the fused downstroke gather, at 1 and 4 OpenMP
// threads (the exhaustive small-extent sweep at 1).  A subnormal-scaled
// input makes a mismatch in FMA contraction visible, since there a w * v
// product is no longer exact.
#include <gtest/gtest.h>

#include <cstring>
#include <initializer_list>
#include <limits>
#include <vector>

#if defined(_OPENMP)
#include <omp.h>
#endif

#include "core/transfer.hpp"
#include "kernels/fused.hpp"
#include "kernels/spmv.hpp"
#include "sgdia/struct_matrix.hpp"
#include "transfer_oracle.hpp"
#include "util/aligned.hpp"
#include "util/multivector.hpp"
#include "util/rng.hpp"

namespace smg {
namespace {

/// Coarsening of `fine` along the dims set in bits 0-2 of `mask`, with the
/// Coarsening::make extents.
Coarsening with_mask(const Box& fine, int mask) {
  Coarsening c;
  c.fine = fine;
  c.mask = {(mask & 1) != 0, (mask & 2) != 0, (mask & 4) != 0};
  c.coarse = Box{c.mask[0] ? (fine.nx + 1) / 2 : fine.nx,
                 c.mask[1] ? (fine.ny + 1) / 2 : fine.ny,
                 c.mask[2] ? (fine.nz + 1) / 2 : fine.nz};
  return c;
}

/// Tiny scale that puts the values in CT's subnormal range.
template <class CT>
CT subnormal_scale() {
  return std::is_same_v<CT, float> ? static_cast<CT>(1e-40)
                                   : static_cast<CT>(1e-310);
}

template <class CT>
avec<CT> random_vector(std::int64_t n, std::uint64_t seed, CT scale) {
  Rng rng(seed);
  avec<CT> v(static_cast<std::size_t>(n));
  for (auto& x : v) {
    x = static_cast<CT>(rng.uniform(-1.0, 1.0)) * scale;
  }
  return v;
}

template <class T>
bool same_bytes(const avec<T>& a, const avec<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

/// Runs `body` at each OpenMP thread count (once without OpenMP).
template <class F>
void at_threads(std::initializer_list<int> counts, F&& body) {
#if defined(_OPENMP)
  const int saved = omp_get_max_threads();
  for (int nt : counts) {
    omp_set_num_threads(nt);
    body(nt);
  }
  omp_set_num_threads(saved);
#else
  (void)counts;
  body(1);
#endif
}

/// Single-vector restriction and prolongation vs the oracle for one
/// (geometry, bs, input scale).
template <class CT>
void expect_single_matches(const Coarsening& c, int bs, CT scale, int nt) {
  const std::int64_t nf = c.fine.size() * bs;
  const std::int64_t nc = c.coarse.size() * bs;
  const auto r = random_vector<CT>(nf, 11, scale);
  const auto e = random_vector<CT>(nc, 13, scale);
  const auto u0 = random_vector<CT>(nf, 17, CT{1});
  const auto nfs = static_cast<std::size_t>(nf);
  const auto ncs = static_cast<std::size_t>(nc);

  avec<CT> ref(ncs), got(ncs, static_cast<CT>(42));
  oracle::restrict_to_coarse<CT>(c, bs, {r.data(), nfs}, {ref.data(), ncs});
  restrict_to_coarse<CT>(c, bs, {r.data(), nfs}, {got.data(), ncs});
  EXPECT_TRUE(same_bytes(got, ref)) << "restrict threads=" << nt;

  avec<CT> uref = u0, ugot = u0;
  oracle::prolong_add<CT>(c, bs, {e.data(), ncs}, {uref.data(), nfs});
  prolong_add<CT>(c, bs, {e.data(), ncs}, {ugot.data(), nfs});
  EXPECT_TRUE(same_bytes(ugot, uref)) << "prolong threads=" << nt;
}

template <class CT>
void sweep_single() {
  // The exhaustive small-extent sweep runs on one thread: its thousands of
  // tiny parallel regions would crawl on an oversubscribed test host.  The
  // larger boxes, several lines per thread, run at 1 and 4 threads.
  const int ext[] = {1, 2, 3, 4, 5, 6};
  at_threads({1}, [&](int nt) {
    for (int mask = 1; mask < 8; ++mask) {
      for (int nx : ext) {
        for (int ny : ext) {
          for (int nz : {1, 4, 5}) {
            const Coarsening c = with_mask(Box{nx, ny, nz}, mask);
            for (int bs = 1; bs <= 4; ++bs) {
              SCOPED_TRACE(::testing::Message()
                           << "mask=" << mask << " box=" << nx << "x" << ny
                           << "x" << nz << " bs=" << bs);
              expect_single_matches<CT>(c, bs, CT{1}, nt);
            }
          }
        }
      }
    }
  });
  at_threads({1, 4}, [&](int nt) {
    for (int mask = 1; mask < 8; ++mask) {
      for (const Box fine : {Box{19, 14, 11}, Box{33, 8, 7}}) {
        const Coarsening c = with_mask(fine, mask);
        for (int bs = 1; bs <= 4; ++bs) {
          SCOPED_TRACE(::testing::Message() << "mask=" << mask << " box="
                                            << fine.nx << " bs=" << bs);
          expect_single_matches<CT>(c, bs, CT{1}, nt);
          expect_single_matches<CT>(c, bs, subnormal_scale<CT>(), nt);
        }
      }
    }
  });
}

TEST(TransferOracle, SingleVectorMatchesBitwiseFloat) { sweep_single<float>(); }

TEST(TransferOracle, SingleVectorMatchesBitwiseDouble) {
  sweep_single<double>();
}

TEST(TransferOracle, SubnormalProductsAreInexact) {
  // The subnormal sweep above only discriminates FMA contraction if some
  // w * v product actually rounds there.
  const float v = std::numeric_limits<float>::denorm_min() * 7.0f;
  const volatile float w = 0.125f;
  const double exact = static_cast<double>(w) * static_cast<double>(v);
  EXPECT_NE(static_cast<double>(w * v), exact);
}

/// Panel kernels vs the oracle column by column, for k columns.
template <class CT>
void expect_panel_matches(const Coarsening& c, int bs, int k, int nt) {
  const std::int64_t nf = c.fine.size() * bs;
  const std::int64_t nc = c.coarse.size() * bs;
  const auto nfs = static_cast<std::size_t>(nf);
  const auto ncs = static_cast<std::size_t>(nc);
  MultiVector<CT> R(nf, k), E(nc, k), U(nf, k), FC(nc, k);
  std::vector<avec<CT>> rc, ec, uc;
  for (int col = 0; col < k; ++col) {
    const auto seed = static_cast<std::uint64_t>(col);
    rc.push_back(random_vector<CT>(nf, 100 + seed, CT{1}));
    ec.push_back(random_vector<CT>(nc, 200 + seed, CT{1}));
    uc.push_back(random_vector<CT>(nf, 300 + seed, CT{1}));
    R.insert_col(col, {rc.back().data(), nfs});
    E.insert_col(col, {ec.back().data(), ncs});
    U.insert_col(col, {uc.back().data(), nfs});
  }
  restrict_to_coarse_many<CT>(c, bs, R, FC);
  prolong_add_many<CT>(c, bs, E, U);
  for (int col = 0; col < k; ++col) {
    const auto ci = static_cast<std::size_t>(col);
    avec<CT> ref(ncs), got(ncs);
    oracle::restrict_to_coarse<CT>(c, bs, {rc[ci].data(), nfs},
                                   {ref.data(), ncs});
    FC.extract_col(col, {got.data(), ncs});
    EXPECT_TRUE(same_bytes(got, ref))
        << "restrict col=" << col << " threads=" << nt;
    avec<CT> uref = uc[ci], ugot(nfs);
    oracle::prolong_add<CT>(c, bs, {ec[ci].data(), ncs}, {uref.data(), nfs});
    U.extract_col(col, {ugot.data(), nfs});
    EXPECT_TRUE(same_bytes(ugot, uref))
        << "prolong col=" << col << " threads=" << nt;
  }
}

template <class CT>
void sweep_panels() {
  at_threads({1, 4}, [&](int nt) {
    for (int mask = 1; mask < 8; ++mask) {
      for (const Box fine : {Box{5, 4, 3}, Box{10, 7, 6}}) {
        const Coarsening c = with_mask(fine, mask);
        for (int bs : {1, 3}) {
          for (int k : {1, 3, 8}) {
            SCOPED_TRACE(::testing::Message() << "mask=" << mask << " nx="
                                              << fine.nx << " bs=" << bs
                                              << " k=" << k);
            expect_panel_matches<CT>(c, bs, k, nt);
          }
        }
      }
    }
  });
}

TEST(TransferOracle, PanelsMatchBitwiseFloat) { sweep_panels<float>(); }

TEST(TransferOracle, PanelsMatchBitwiseDouble) { sweep_panels<double>(); }

StructMat<double> random_matrix(const Box& box, Pattern p, int bs) {
  StructMat<double> A(box, Stencil::make(p), bs, Layout::SOA);
  Rng rng(7);
  for (auto& v : A.values()) {
    v = rng.uniform(-1.0, 1.0);
  }
  A.clear_out_of_box();
  return A;
}

/// Fused downstroke vs residual() followed by the oracle restriction.
template <class ST, class CT>
void expect_fused_matches(const StructMat<double>& Ad, const Coarsening& c,
                          CT scale, int nt) {
  const auto A = convert<ST>(Ad, Layout::SOA);
  const int bs = A.block_size();
  const std::int64_t n = A.nrows();
  const auto ns = static_cast<std::size_t>(n);
  const auto ncs = static_cast<std::size_t>(c.coarse.size() * bs);
  const auto f = random_vector<CT>(n, 5, scale);
  const auto u = random_vector<CT>(n, 3, scale);
  avec<CT> r(ns), ref(ncs), got(ncs, static_cast<CT>(42));
  residual(A, std::span<const CT>{f.data(), ns},
           std::span<const CT>{u.data(), ns}, std::span<CT>{r.data(), ns},
           static_cast<const CT*>(nullptr));
  oracle::restrict_to_coarse<CT>(c, bs, {r.data(), ns}, {ref.data(), ncs});
  residual_restrict(A, std::span<const CT>{f.data(), ns},
                    std::span<const CT>{u.data(), ns},
                    static_cast<const CT*>(nullptr), c,
                    std::span<CT>{got.data(), ncs});
  EXPECT_TRUE(same_bytes(got, ref)) << "threads=" << nt;
}

TEST(TransferOracle, FusedGatherMatchesResidualThenOracle) {
  at_threads({1, 4}, [&](int nt) {
    for (int mask = 1; mask < 8; ++mask) {
      for (int bs : {1, 2}) {
        const Box fine{9, 6, 7};
        const auto Ad = random_matrix(fine, Pattern::P3d27, bs);
        const Coarsening c = with_mask(fine, mask);
        SCOPED_TRACE(::testing::Message() << "mask=" << mask << " bs=" << bs);
        expect_fused_matches<double, double>(Ad, c, 1.0, nt);
        expect_fused_matches<float, float>(Ad, c, 1.0f, nt);
        expect_fused_matches<half, float>(Ad, c, 1.0f, nt);
        expect_fused_matches<float, float>(Ad, c, subnormal_scale<float>(),
                                           nt);
      }
    }
  });
}

}  // namespace
}  // namespace smg
