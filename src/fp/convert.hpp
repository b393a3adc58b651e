// Batch precision conversion with overflow accounting.
//
// Truncating a matrix to FP16 is only safe after the setup-then-scale pass
// (Alg. 1); these helpers both perform the conversion and *report* how many
// entries would have overflowed/underflowed, which the hierarchy uses to
// decide whether scaling is needed and tests use to validate Theorem 4.1.
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <type_traits>

#include "fp/bfloat16.hpp"
#include "fp/fp8.hpp"
#include "fp/half.hpp"
#include "fp/precision.hpp"
#include "util/common.hpp"

#if defined(SMG_SIMD_AVX2)
#include <immintrin.h>
#endif

namespace smg {

/// Outcome of truncating a buffer to a narrower format.
struct TruncateReport {
  std::size_t overflowed = 0;   ///< finite values that became +/-inf
  std::size_t underflowed = 0;  ///< nonzero values that became zero
  std::size_t subnormal = 0;    ///< nonzero values landing in subnormal range

  bool safe() const noexcept { return overflowed == 0; }

  TruncateReport& operator+=(const TruncateReport& o) noexcept {
    overflowed += o.overflowed;
    underflowed += o.underflowed;
    subnormal += o.subnormal;
    return *this;
  }
};

#if defined(SMG_SIMD_AVX2)
namespace detail {

/// Counts of eight just-truncated values, from their half bits `h` and the
/// 8-bit lane masks of the source values that were zero and infinite.
inline TruncateReport count_half_lanes(__m128i h, unsigned src_zero,
                                       unsigned src_inf) noexcept {
  const auto lanes = [](__m128i m) {
    return static_cast<unsigned>(
        _mm_movemask_epi8(_mm_packs_epi16(m, _mm_setzero_si128())));
  };
  const __m128i mag = _mm_and_si128(h, _mm_set1_epi16(0x7FFF));
  const unsigned inf = lanes(_mm_cmpeq_epi16(mag, _mm_set1_epi16(0x7C00)));
  const unsigned zero = lanes(_mm_cmpeq_epi16(mag, _mm_setzero_si128()));
  const unsigned below_normal =
      lanes(_mm_cmplt_epi16(mag, _mm_set1_epi16(0x0400)));
  TruncateReport rep;
  // A value that lands on inf overflowed unless it was inf already (a NaN
  // stays NaN); one that lands on zero underflowed unless it was zero.
  rep.overflowed = static_cast<std::size_t>(std::popcount(inf & ~src_inf));
  rep.underflowed = static_cast<std::size_t>(std::popcount(zero & ~src_zero));
  rep.subnormal = static_cast<std::size_t>(std::popcount(below_normal & ~zero));
  return rep;
}

}  // namespace detail
#endif

/// Truncate `src` into `dst` (equal sizes), counting the overflow,
/// underflow and subnormal landings of the narrow storage formats.
///
/// Each value is rounded once from the source: bfloat16 and fp8 go through
/// their single-rounding double constructors.  Half keeps double -> float ->
/// half, which is what F16C computes (it has no double -> half instruction):
/// with AVX2 eight doubles per step go through two vcvtpd2ps and one
/// vcvtps2ph, the same bytes and counts as the scalar loop.
template <class Dst, class Src>
inline TruncateReport truncate(std::span<const Src> src, std::span<Dst> dst) {
  SMG_CHECK(src.size() == dst.size(),
            "truncate: source and destination sizes differ");
  TruncateReport rep;
  const std::size_t n = src.size();
  std::size_t i = 0;
#if defined(SMG_SIMD_AVX2)
  if constexpr (std::is_same_v<Dst, half> && std::is_same_v<Src, double>) {
    const __m256d abs_mask =
        _mm256_castsi256_pd(_mm256_set1_epi64x(0x7FFFFFFFFFFFFFFF));
    const __m256d inf = _mm256_set1_pd(std::numeric_limits<double>::infinity());
    const __m256d zero = _mm256_setzero_pd();
    for (; i + 8 <= n; i += 8) {
      const __m256d lo = _mm256_loadu_pd(src.data() + i);
      const __m256d hi = _mm256_loadu_pd(src.data() + i + 4);
      const __m256 f = _mm256_insertf128_ps(
          _mm256_castps128_ps256(_mm256_cvtpd_ps(lo)), _mm256_cvtpd_ps(hi), 1);
      const __m128i h =
          _mm256_cvtps_ph(f, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst.data() + i), h);
      const auto mask8 = [](__m256d l, __m256d u) {
        return static_cast<unsigned>(_mm256_movemask_pd(l) |
                                     (_mm256_movemask_pd(u) << 4));
      };
      const unsigned src_zero = mask8(_mm256_cmp_pd(lo, zero, _CMP_EQ_OQ),
                                      _mm256_cmp_pd(hi, zero, _CMP_EQ_OQ));
      const unsigned src_inf =
          mask8(_mm256_cmp_pd(_mm256_and_pd(lo, abs_mask), inf, _CMP_EQ_OQ),
                _mm256_cmp_pd(_mm256_and_pd(hi, abs_mask), inf, _CMP_EQ_OQ));
      rep += detail::count_half_lanes(h, src_zero, src_inf);
    }
  }
#endif
  for (; i < n; ++i) {
    const auto s = src[i];
    const Dst d = static_cast<Dst>(s);
    if constexpr (is_storage_only_v<Dst>) {
      const bool src_finite = std::isfinite(static_cast<double>(s));
      if (src_finite && d.is_inf()) {
        ++rep.overflowed;
      }
      if (s != Src{0} && d.is_zero()) {
        ++rep.underflowed;
      }
      // bfloat16 deliberately reports no subnormal landings (its subnormal
      // range starts at 2^-126, same as FP32's — a value there is equally
      // degraded at compute precision, so it is not a *storage* hazard).
      if constexpr (!std::is_same_v<Dst, bfloat16>) {
        if (d.is_subnormal()) {
          ++rep.subnormal;
        }
      }
    } else {
      if (std::isfinite(static_cast<double>(s)) &&
          !std::isfinite(static_cast<double>(d))) {
        ++rep.overflowed;
      }
      if (s != Src{0} && d == Dst{0}) {
        ++rep.underflowed;
      }
    }
    dst[i] = d;
  }
  return rep;
}

/// Convert a contiguous run of halves to floats; vectorized with F16C.
inline void widen(const half* src, float* dst, std::size_t n) noexcept {
  std::size_t i = 0;
#if defined(SMG_SIMD_AVX2)
  for (; i + 8 <= n; i += 8) {
    const __m128i h =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm256_storeu_ps(dst + i, _mm256_cvtph_ps(h));
  }
#endif
  for (; i < n; ++i) {
    dst[i] = static_cast<float>(src[i]);
  }
}

/// Convert a contiguous run of bfloat16 to floats (shift-based widen).
inline void widen(const bfloat16* src, float* dst, std::size_t n) noexcept {
  std::size_t i = 0;
#if defined(SMG_SIMD_AVX2)
  for (; i + 8 <= n; i += 8) {
    const __m128i b =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m256i w = _mm256_slli_epi32(_mm256_cvtepu16_epi32(b), 16);
    _mm256_storeu_ps(dst + i, _mm256_castsi256_ps(w));
  }
#endif
  for (; i < n; ++i) {
    dst[i] = static_cast<float>(src[i]);
  }
}

/// Convert a contiguous run of fp8 to floats via a 256-entry table (the
/// bit-exact software conversion folded into one load per value; fp8 levels
/// are coarse, so this path is never the traffic bottleneck).
inline void widen(const fp8* src, float* dst, std::size_t n) noexcept {
  static const auto table = [] {
    std::array<float, 256> t{};
    for (int i = 0; i < 256; ++i) {
      t[static_cast<std::size_t>(i)] =
          fp8::bits_to_float(static_cast<std::uint8_t>(i));
    }
    return t;
  }();
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = table[src[i].bits()];
  }
}

inline void widen(const float* src, float* dst, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = src[i];
  }
}

inline void widen(const double* src, double* dst, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = src[i];
  }
}

}  // namespace smg
