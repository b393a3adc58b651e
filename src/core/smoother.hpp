// Smoother setup (Alg. 1 line 13).
//
// Smoother data is computed from the *high-precision* level operator before
// any truncation, then cast to the preconditioner compute precision.  For
// Jacobi and SymGS the data is the inverse of the per-cell diagonal block
// (a scalar reciprocal when block_size == 1).
#pragma once

#include "core/config.hpp"
#include "grid/wavefront.hpp"
#include "sgdia/struct_matrix.hpp"
#include "util/aligned.hpp"

namespace smg {

/// Largest block size the smoother setup inverts (fixed-size block buffers).
inline constexpr int kMaxBlockSize = 8;

/// Row-major bs x bs inverse of the center block of every cell.
/// Fails hard on a singular diagonal block (the operator would not admit a
/// point smoother at all) and on block_size > kMaxBlockSize.
avec<double> compute_invdiag(const StructMat<double>& A);

/// Alg. 1 line 13's second half: smoother data is "calculated in iterative
/// precision followed by truncation to storage precision".  Round-trips each
/// value through `storage`, except where truncation would produce inf or
/// flush a nonzero to zero — those entries keep their high-precision value
/// (the guard an un-scalable quantity like 1/a_ii needs on far-out-of-range
/// problems).  Returns how many entries were guarded.
std::size_t truncate_smoother_data(avec<double>& data, Prec storage);

/// One value of truncate_smoother_data: rounds `v` through `storage` and
/// returns true, or leaves it and returns false where the guard holds it.
/// FP8 levels round their smoother data at FP16: the data lives in double
/// arrays either way (a rounding emulation, not a byte saving), and a 3-bit
/// mantissa would perturb the smoother far beyond the matrix quantization
/// it rides along with.
inline bool truncate_smoother_value(double& v, Prec storage) noexcept {
  switch (storage) {
    case Prec::FP64:
      return true;
    case Prec::FP32:
      v = static_cast<double>(static_cast<float>(v));
      return true;
    case Prec::FP16:
    case Prec::FP8: {
      const half h(v);
      if (!h.is_finite() || (v != 0.0 && h.is_zero())) {
        return false;
      }
      v = static_cast<double>(static_cast<float>(h));
      return true;
    }
    case Prec::BF16: {
      const bfloat16 b(v);
      if (!b.is_finite() || (v != 0.0 && b.is_zero())) {
        return false;
      }
      v = static_cast<double>(static_cast<float>(b));
      return true;
    }
  }
  return true;
}

/// Decide and build the wavefront schedule driving one level's SymGS sweeps
/// (line granularity for the SOA-family layouts, cell granularity for AOS).
/// Returns an *invalid* schedule — meaning "use the sequential sweep" — when
/// `mode` is Sequential, when the stencil violates the wavefront bound, or
/// when the Auto heuristic judges the level too small to amortize the
/// per-level barriers (see DESIGN.md "Wavefront-parallel SymGS").
WavefrontSchedule plan_smoother_wavefront(const Box& box, const Stencil& st,
                                          Layout layout,
                                          SmootherParallel mode);

}  // namespace smg
