// Shared small utilities: assertions, restrict qualifier, pinned fma.
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>

#if defined(__GNUC__) || defined(__clang__)
#define SMG_RESTRICT __restrict__
#else
#define SMG_RESTRICT
#endif

namespace smg {

[[noreturn]] inline void fail(const char* msg, const char* file, int line) {
  std::fprintf(stderr, "smg fatal: %s (%s:%d)\n", msg, file, line);
  std::abort();
}

namespace detail {

/// Deterministic a*b + c for the block-kernel and grid-transfer folds.  The
/// optimizer's FP contraction choice for a plain `acc += a * b` depends on
/// the surrounding vectorization context, so the "same source shape at both
/// sites" contract (single-RHS kernel vs its panel mirror) is not enough
/// once the fold sits inside differently-shaped loops.  Pinning the operation removes the
/// ambiguity: one hardware fma where the ISA has it, and on targets without
/// an fma instruction the compiler cannot contract either site, so the
/// explicit mul+add matches the kernels' plain expressions bitwise.
template <class CT>
inline CT mul_add(CT a, CT b, CT c) noexcept {
#if defined(SMG_SIMD_AVX2) || defined(FP_FAST_FMA)
  return std::fma(a, b, c);
#else
  return a * b + c;
#endif
}

}  // namespace detail

}  // namespace smg

/// Always-on invariant check (solver correctness beats branch cost here).
#define SMG_CHECK(cond, msg)                  \
  do {                                        \
    if (!(cond)) {                            \
      ::smg::fail(msg, __FILE__, __LINE__);   \
    }                                         \
  } while (0)
