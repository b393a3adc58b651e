// The level store against its serial references, byte for byte:
//  * the F16C truncate<half, double> against the software conversion
//    detail::f32_bits_to_f16_bits(float(s)) with a scalar recount of its
//    counters, over run lengths 0-17, every half rounding boundary,
//    subnormal edges, the overflow threshold, infinities and NaN payloads;
//  * compute_gmax's exact maximum against the serial running-max rule
//    (store_oracle.hpp);
//  * scale_matrix, store_scaled and the hierarchy's Fixed-policy levels
//    against copy -> serial scale -> range -> value-by-value truncation,
//    on every level of every registry problem, in SOA and SOAL (and AOS
//    for the direct store), at 1 and 4 OpenMP threads.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#if defined(_OPENMP)
#include <omp.h>
#endif

#include "core/mg_hierarchy.hpp"
#include "core/scaling.hpp"
#include "fp/convert.hpp"
#include "problems/problem.hpp"
#include "store_oracle.hpp"

namespace smg {
namespace {

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

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

template <class T>
bool same_bytes(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

/// Stored values and the kSimdSlack tail after them.
template <class T>
bool same_storage(const StructMat<T>& a, const StructMat<T>& b) {
  const std::size_t n = a.values().size() + StructMat<T>::kSimdSlack;
  return a.values().size() == b.values().size() &&
         a.layout() == b.layout() &&
         std::memcmp(a.data(), b.data(), n * sizeof(T)) == 0;
}

bool same_report(const TruncateReport& a, const TruncateReport& b) {
  return a.overflowed == b.overflowed && a.underflowed == b.underflowed &&
         a.subnormal == b.subnormal;
}

bool same_range(const AbsRange& a, const AbsRange& b) {
  return same_bits(a.max_abs, b.max_abs) &&
         same_bits(a.min_nonzero, b.min_nonzero);
}

// ---- F16C truncation --------------------------------------------------

/// The software reference: double -> float, then the bit-exact RNE
/// float -> half conversion.
std::uint16_t soft_half_bits(double s) {
  return detail::f32_bits_to_f16_bits(
      std::bit_cast<std::uint32_t>(static_cast<float>(s)));
}

TruncateReport soft_recount(const double* s, std::size_t n) {
  TruncateReport rep;
  for (std::size_t i = 0; i < n; ++i) {
    const half d = half::from_bits(soft_half_bits(s[i]));
    rep.overflowed += std::isfinite(s[i]) && d.is_inf() ? 1 : 0;
    rep.underflowed += s[i] != 0.0 && d.is_zero() ? 1 : 0;
    rep.subnormal += d.is_subnormal() ? 1 : 0;
  }
  return rep;
}

double nan_with_bits(std::uint64_t bits) { return std::bit_cast<double>(bits); }

/// Every half rounding boundary (the midpoint between each pair of
/// adjacent finite halves, and the doubles either side of it), the
/// subnormal and overflow edges, infinities and NaN payloads, both signs.
std::vector<double> edge_values() {
  std::vector<double> v;
  const double inf = std::numeric_limits<double>::infinity();
  for (std::uint32_t b = 0; b < 0x7BFFu; ++b) {
    const double lo = half::from_bits(static_cast<std::uint16_t>(b));
    const double hi = half::from_bits(static_cast<std::uint16_t>(b + 1));
    const double mid = 0.5 * (lo + hi);  // exact: halves have 11 bits
    for (const double x : {lo, mid, std::nextafter(mid, 0.0),
                           std::nextafter(mid, inf),
                           // rounds to the midpoint in float: a double
                           // rounding hazard both paths must share
                           mid + (hi - lo) * 0x1p-30,
                           mid - (hi - lo) * 0x1p-30}) {
      v.push_back(x);
      v.push_back(-x);
    }
  }
  for (const double x :
       {65504.0, 65519.99, std::nextafter(65520.0, 0.0), 65520.0, 65536.0,
        1e300, std::numeric_limits<double>::max(), 0x1p-24, 0x1p-25,
        std::nextafter(0x1p-25, 0.0), std::nextafter(0x1p-25, 1.0),
        0x1.8p-25, 0x1p-14, std::nextafter(0x1p-14, 0.0),
        0x1p-14 - 0x1p-25, 1e-50, 1e-310,
        std::numeric_limits<double>::denorm_min(), 0.0, inf}) {
    v.push_back(x);
    v.push_back(-x);
  }
  for (const std::uint64_t bits :
       {0x7FF8000000000000ull, 0x7FF0000000000001ull, 0x7FF8000000000123ull,
        0x7FF4000020000000ull, 0x7FFFFFFFFFFFFFFFull, 0xFFF8000000000000ull,
        0xFFF0000000000001ull, 0xFFFC0000DEADBEEFull}) {
    v.push_back(nan_with_bits(bits));
  }
  return v;
}

void expect_truncate_matches(const std::vector<double>& src, std::size_t off,
                             std::size_t n) {
  std::vector<half> dst(n);
  const TruncateReport rep = truncate<half, double>(
      {src.data() + off, n}, {dst.data(), n});
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(dst[i].bits(), soft_half_bits(src[off + i]))
        << "value " << src[off + i] << " at offset " << off << " run " << n;
  }
  EXPECT_TRUE(same_report(rep, soft_recount(src.data() + off, n)))
      << "offset " << off << " run " << n;
}

TEST(StoreOracle, F16cTruncateMatchesSoftwareBitwise) {
  const std::vector<double> src = edge_values();
  // Short runs at every start position of a window at the front and of one
  // across the specials at the end: every tail length and lane alignment.
  for (std::size_t n = 0; n <= 17; ++n) {
    for (std::size_t off = 0; off < 64; ++off) {
      expect_truncate_matches(src, off, n);
    }
    for (std::size_t off = src.size() - 80; off + n <= src.size(); ++off) {
      expect_truncate_matches(src, off, n);
    }
  }
  // Every boundary value, eight lanes at a time.
  expect_truncate_matches(src, 0, src.size());
}

TEST(StoreOracle, F16cTruncateCountsEveryEvent) {
  // One run holding each counted event, so no count is vacuously equal.
  const std::vector<double> src = {1e6,  -1e300, 65520.0, 1e-10, -0x1p-26,
                                   6e-8, 1e-5,   1.0,     std::nan(""),
                                   std::numeric_limits<double>::infinity(),
                                   0.0,  -0.0,   3.0,     0x1p-24, 5.0,
                                   7.0,  1e-310};
  std::vector<half> dst(src.size());
  const TruncateReport rep = truncate<half, double>(
      {src.data(), src.size()}, {dst.data(), dst.size()});
  EXPECT_EQ(rep.overflowed, 3u);   // 1e6, -1e300, 65520
  EXPECT_EQ(rep.underflowed, 3u);  // 1e-10, -2^-26, 1e-310
  EXPECT_EQ(rep.subnormal, 3u);    // 6e-8, 1e-5, 2^-24
  EXPECT_TRUE(same_report(rep, soft_recount(src.data(), src.size())));
}

// ---- G_max, scaling and the scaled store on real levels ----------------

/// Every level of every registry problem, built under the Fixed policy at
/// FP16 in `layout`.
std::vector<MGHierarchy> registry_hierarchies(Layout layout) {
  std::vector<MGHierarchy> hs;
  for (const std::string& name : problem_names()) {
    MGConfig cfg = config_d16_setup_scale();
    cfg.layout = layout;
    hs.emplace_back(make_problem(name, Box{21, 18, 16}).A, cfg);
  }
  return hs;
}

TEST(StoreOracle, GmaxMatchesSerialRule) {
  const std::vector<MGHierarchy> hs = registry_hierarchies(Layout::SOA);
  at_threads({1, 4}, [&](int nt) {
    for (std::size_t p = 0; p < hs.size(); ++p) {
      for (int l = 0; l < hs[p].nlevels(); ++l) {
        const StructMat<double>& A = hs[p].level(l).A_full;
        for (const Prec f : {Prec::FP16, Prec::FP8}) {
          const double S = format_max(f);
          const double want = oracle::compute_gmax(A, S);
          const double got = compute_gmax(A, S);
          EXPECT_TRUE(same_bits(got, want) ||
                      (std::isnan(got) && std::isnan(want)))
              << problem_names()[p] << " level " << l << " " << to_string(f)
              << " threads " << nt << ": " << got << " vs " << want;
        }
      }
    }
  });
}

template <class T>
void expect_store_matches(const StructMat<double>& A, Prec p, Layout layout,
                          const std::string& where) {
  const double safety = MGConfig{}.scale_safety;
  const double S = format_max(p);
  const oracle::ScaledLevel<T> want =
      oracle::store_scaled<T>(A, safety, S, layout);

  StructMat<double> scaled = A;
  const ScaleResult sr = scale_matrix(scaled, safety, S);
  ASSERT_EQ(sr.applied, want.scale.applied) << where;
  EXPECT_EQ(sr.diag_ok, want.scale.diag_ok) << where;
  EXPECT_TRUE(same_bits(sr.G, want.scale.G)) << where;
  EXPECT_TRUE(same_bits(sr.gmax, want.scale.gmax) ||
              (std::isnan(sr.gmax) && std::isnan(want.scale.gmax)))
      << where;
  if (!sr.applied) {
    return;
  }
  EXPECT_TRUE(same_bytes<double>(sr.q2, want.scale.q2)) << where;
  StructMat<double> want_scaled = A;
  oracle::scale_matrix(want_scaled, safety, S);
  EXPECT_TRUE(same_storage(scaled, want_scaled)) << where;

  const ScaleResult f = scale_factors(A, safety, S);
  EXPECT_TRUE(same_bytes<double>(f.q2, want.scale.q2)) << where;
  const ScaledStore got = store_scaled(A, f.q2, p, layout);
  const StructMat<T>* stored = got.A.get_if<T>();
  ASSERT_NE(stored, nullptr) << where;
  EXPECT_TRUE(same_storage(*stored, want.stored)) << where;
  EXPECT_TRUE(same_report(got.trunc, want.trunc)) << where;
  EXPECT_TRUE(same_range(got.range, want.range)) << where;
}

TEST(StoreOracle, ScaledStoreMatchesCopyScaleTruncate) {
  const std::vector<MGHierarchy> hs = registry_hierarchies(Layout::SOA);
  at_threads({1, 4}, [&](int nt) {
    for (std::size_t p = 0; p < hs.size(); ++p) {
      for (int l = 0; l < hs[p].nlevels(); ++l) {
        const StructMat<double>& A = hs[p].level(l).A_full;
        for (const Layout layout : {Layout::SOA, Layout::SOAL, Layout::AOS}) {
          const std::string where = problem_names()[p] + " level " +
                                    std::to_string(l) + " " +
                                    std::string(to_string(layout)) +
                                    " threads " + std::to_string(nt);
          expect_store_matches<half>(A, Prec::FP16, layout, where + " fp16");
          expect_store_matches<fp8>(A, Prec::FP8, layout, where + " fp8");
        }
      }
    }
  });
}

TEST(StoreOracle, HierarchyLevelsMatchSerialStore) {
  // What a Fixed-policy hierarchy keeps per level equals the serial store
  // of that level's FP64 operator: scaled levels through copy -> scale ->
  // range -> truncate, unscaled ones through range -> truncate.
  for (const Layout layout : {Layout::SOA, Layout::SOAL}) {
    at_threads({1, 4}, [&](int nt) {
      const std::vector<MGHierarchy> hs = registry_hierarchies(layout);
      for (std::size_t p = 0; p < hs.size(); ++p) {
        const MGConfig& cfg = hs[p].config();
        for (int l = 0; l < hs[p].nlevels(); ++l) {
          const Level& lev = hs[p].level(l);
          const std::string where = problem_names()[p] + " level " +
                                    std::to_string(l) + " " +
                                    std::string(to_string(layout)) +
                                    " threads " + std::to_string(nt);
          ASSERT_EQ(lev.storage, Prec::FP16) << where;
          ASSERT_FALSE(lev.degenerate_diag) << where;
          oracle::ScaledLevel<half> want;
          if (lev.scaled) {
            want = oracle::store_scaled<half>(lev.A_full, cfg.scale_safety,
                                              format_max(Prec::FP16), layout);
            EXPECT_TRUE(same_bytes<double>(lev.q2, want.scale.q2)) << where;
            EXPECT_TRUE(same_bits(lev.g, want.scale.G)) << where;
            EXPECT_TRUE(same_bits(lev.gmax, want.scale.gmax)) << where;
          } else {
            want.range = oracle::abs_range(lev.A_full);
            want.stored = oracle::convert<half>(lev.A_full, layout, want.trunc);
          }
          const StructMat<half>* stored = lev.A_stored.get_if<half>();
          ASSERT_NE(stored, nullptr) << where;
          EXPECT_TRUE(same_storage(*stored, want.stored)) << where;
          EXPECT_TRUE(same_report(lev.trunc, want.trunc)) << where;
          EXPECT_TRUE(same_bits(lev.stored_max_abs, want.range.max_abs))
              << where;
          const double min_abs = std::isfinite(want.range.min_nonzero)
                                     ? want.range.min_nonzero
                                     : 0.0;
          EXPECT_TRUE(same_bits(lev.stored_min_abs, min_abs)) << where;
        }
      }
    });
  }
}

TEST(StoreOracle, ConvertMatchesSerialConversion) {
  // AnyMat::from (parallel run-wise convert into first-touched storage) on
  // raw levels, every format and layout pair.
  const std::vector<MGHierarchy> hs = registry_hierarchies(Layout::SOA);
  at_threads({1, 4}, [&](int nt) {
    for (std::size_t p = 0; p < hs.size(); ++p) {
      for (int l = 0; l < hs[p].nlevels(); ++l) {
        const StructMat<double>& A = hs[p].level(l).A_full;
        for (const Layout layout : {Layout::SOA, Layout::SOAL, Layout::AOS}) {
          const std::string where = problem_names()[p] + " level " +
                                    std::to_string(l) + " " +
                                    std::string(to_string(layout)) +
                                    " threads " + std::to_string(nt);
          const auto check = [&]<class T>(std::type_identity<T>) {
            TruncateReport want_rep, got_rep;
            const StructMat<T> want = oracle::convert<T>(A, layout, want_rep);
            const AnyMat got = AnyMat::from(A, prec_of_v<T>, layout, &got_rep);
            ASSERT_NE(got.get_if<T>(), nullptr) << where;
            EXPECT_TRUE(same_storage(*got.get_if<T>(), want))
                << where << " " << to_string(prec_of_v<T>);
            EXPECT_TRUE(same_report(got_rep, want_rep))
                << where << " " << to_string(prec_of_v<T>);
          };
          check(std::type_identity<double>{});
          check(std::type_identity<float>{});
          check(std::type_identity<half>{});
          check(std::type_identity<bfloat16>{});
          check(std::type_identity<fp8>{});
        }
      }
    }
  });
}

}  // namespace
}  // namespace smg
