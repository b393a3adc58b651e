// Reference single-vector kernels for the kernel tests: SpMV, residual,
// and the forward/backward Gauss-Seidel sweeps exactly as they ran before
// every single-vector entry point became the one-column panel driver, plus
// the layout-agnostic scalar spmv_ref.  Each kernel family keeps its own
// source shape (per-layout drivers, whole-vector q2 .* x pre-pass, spmv-
// then-subtract scaled residual), so the span entry points in src/kernels/
// are checked against an independently written implementation of the same
// arithmetic, bit for bit.  The fused downstroke (residual_restrict) and the
// fused Jacobi sweep are defined by their two-step contract: residual() into
// a scratch vector, then restrict_to_coarse() or the diagonal update.
//
// Differences from the original source: no telemetry spans, and scratch
// that was thread_local is a per-call or per-line local, so the reference
// leaves nothing behind in OpenMP worker threads.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

#include "core/transfer.hpp"
#include "grid/wavefront.hpp"
#include "kernels/spmv.hpp"
#include "kernels/symgs.hpp"
#include "sgdia/struct_matrix.hpp"
#include "util/aligned.hpp"
#include "util/common.hpp"

namespace smg::oracle {

using namespace ::smg::detail;

#if defined(SMG_SIMD_AVX2)

/// Register-blocked fp16 SOA kernel (scalar unknowns): the line accumulator
/// lives in a ymm register across ALL diagonals, so each 8-entry block costs
/// one load + one vcvtph2ps + one x-load + one fma per diagonal and a single
/// y store — the uop diet that lets the halved matrix traffic actually show
/// up as kernel speedup (Fig. 7's "MG-fp16/fp32(opt)" series).
template <bool kResidual, bool kScaled>
void apply_soa_f16_blocked(const StructMat<half>& A,
                           const float* SMG_RESTRICT x,
                           const float* SMG_RESTRICT b, float* SMG_RESTRICT y,
                           const float* SMG_RESTRICT q2) {
  const Box& box = A.box();
  const Stencil& st = A.stencil();
  const half* SMG_RESTRICT vals = A.data();
  const F16LineProto proto(A);

#pragma omp parallel for collapse(2) schedule(static)
  for (int k = 0; k < box.nz; ++k) {
    for (int j = 0; j < box.ny; ++j) {
      const std::int64_t base = box.idx(0, j, k);
      const std::int64_t line = j + static_cast<std::int64_t>(box.ny) * k;
      std::int64_t c_aoff[32];
      std::int64_t c_shift[32];
      int c_ilo[32];
      int c_ihi[32];
      const F16LineDesc d =
          f16_line_desc(proto, st, box, j, k, c_aoff, c_shift, c_ilo, c_ihi);
      f16_run_line<kResidual, kScaled>(
          vals + proto.abase(base, line), x + base,
          b != nullptr ? b + base : nullptr,
          q2 != nullptr ? q2 + base : nullptr, y + base, box.nx, d);
    }
  }
}

#endif  // SMG_SIMD_AVX2

/// Expose a (line, diagonal) coefficient run in compute precision: identity
/// when storage == compute, otherwise a SIMD widen into `buf`.
template <class CT, class ST>
inline const CT* widen_run(const ST* src, std::size_t n, avec<CT>& buf) {
  if constexpr (std::is_same_v<ST, CT>) {
    return src;
  } else {
    if (buf.size() < n) {
      buf.resize(n);
    }
    if constexpr (is_storage_only_v<ST> && std::is_same_v<CT, float>) {
      widen(src, buf.data(), n);
    } else {
      for (std::size_t q = 0; q < n; ++q) {
        buf[q] = widen1<CT>(src[q]);
      }
    }
    return buf.data();
  }
}

/// Block (bs > 1) SOA-family kernel: per (line, diagonal) the r x r block
/// coefficients are widened once into an L1 buffer (amortized conversion),
/// then dense block math runs in compute precision.  Accumulates the raw
/// matrix-vector sum into y and applies b/q2 in a post pass, which lets the
/// scaled residual fuse correctly.
template <bool kResidual, class ST, class CT>
void apply_soa_block_lines(const StructMat<ST>& A, const CT* SMG_RESTRICT x,
                           const CT* SMG_RESTRICT b, CT* SMG_RESTRICT y,
                           const CT* SMG_RESTRICT q2) {
  const Box& box = A.box();
  const Stencil& st = A.stencil();
  const int bs = A.block_size();
  const int nd = st.ndiag();
  const int nx = box.nx;
  const std::int64_t ncells = A.ncells();
  const std::int64_t block2 = static_cast<std::int64_t>(bs) * bs;
  const ST* SMG_RESTRICT vals = A.data();
  const Layout layout = A.layout();
  const std::size_t runlen = static_cast<std::size_t>(nx) *
                             static_cast<std::size_t>(block2);

  // Scaled recovery reads q2 .* x everywhere; x is static here, so pay one
  // fused pass up front instead of a load + multiply per matrix entry.
  avec<CT> xqbuf;
  if (q2 != nullptr) {
    const std::size_t n = static_cast<std::size_t>(A.nrows());
    xqbuf.resize(n);
    CT* SMG_RESTRICT xq = xqbuf.data();
#pragma omp parallel for simd
    for (std::size_t q = 0; q < n; ++q) {
      xq[q] = q2[q] * x[q];
    }
    x = xqbuf.data();
  }
  const bool scaled = q2 != nullptr;

#pragma omp parallel for collapse(2) schedule(static)
  for (int k = 0; k < box.nz; ++k) {
    for (int j = 0; j < box.ny; ++j) {
      const std::int64_t base = box.idx(0, j, k);
      const std::int64_t line = j + static_cast<std::int64_t>(box.ny) * k;
      avec<CT> coefbuf;
      for (std::int64_t q = 0; q < static_cast<std::int64_t>(nx) * bs; ++q) {
        y[base * bs + q] = CT{0};
      }
      for (int d = 0; d < nd; ++d) {
        const DiagRange r = diag_range(box, st.offset(d), j, k);
        if (!r.line_valid || r.ihi <= r.ilo) {
          continue;
        }
        const ST* araw =
            vals + (layout == Layout::SOA
                        ? (static_cast<std::int64_t>(d) * ncells + base) *
                              block2
                        : (line * nd + d) * static_cast<std::int64_t>(nx) *
                              block2);
        const CT* SMG_RESTRICT coef = widen_run<CT>(araw, runlen, coefbuf);
        const std::int64_t xoff = (base + r.shift) * bs;
        for (int i = r.ilo; i < r.ihi; ++i) {
          const CT* blk = coef + static_cast<std::int64_t>(i) * block2;
          const CT* xv = x + xoff + static_cast<std::int64_t>(i) * bs;
          CT* yv = y + (base + i) * bs;
          for (int br = 0; br < bs; ++br) {
            CT acc{0};
            for (int bc = 0; bc < bs; ++bc) {
              acc = mul_add(blk[br * bs + bc], xv[bc], acc);
            }
            yv[br] += acc;
          }
        }
      }
      // Post pass: apply the row q2 recovery and/or the residual form.
      CT* SMG_RESTRICT yl = y + base * bs;
      const std::int64_t ndof = static_cast<std::int64_t>(nx) * bs;
      if (scaled) {
        const CT* SMG_RESTRICT ql = q2 + base * bs;
        if constexpr (kResidual) {
          const CT* SMG_RESTRICT bl = b + base * bs;
          for (std::int64_t q = 0; q < ndof; ++q) {
            yl[q] = mul_add(-ql[q], yl[q], bl[q]);
          }
        } else {
          for (std::int64_t q = 0; q < ndof; ++q) {
            yl[q] *= ql[q];
          }
        }
      } else if constexpr (kResidual) {
        const CT* SMG_RESTRICT bl = b + base * bs;
        for (std::int64_t q = 0; q < ndof; ++q) {
          yl[q] = bl[q] - yl[q];
        }
      }
    }
  }
}

/// SOA kernel: y = b - A x (kResidual) or y = A x (otherwise), with optional
/// on-the-fly rescaling by q2 (length nrows).  b may be null iff !kResidual.
template <bool kResidual, class ST, class CT>
void apply_soa(const StructMat<ST>& A, const CT* SMG_RESTRICT x,
               const CT* SMG_RESTRICT b, CT* SMG_RESTRICT y,
               const CT* SMG_RESTRICT q2) {
#if defined(SMG_SIMD_AVX2)
  if constexpr (std::is_same_v<ST, half> && std::is_same_v<CT, float>) {
    if (A.block_size() == 1) {
      if (q2 != nullptr) {
        apply_soa_f16_blocked<kResidual, true>(A, x, b, y, q2);
      } else {
        apply_soa_f16_blocked<kResidual, false>(A, x, b, y, q2);
      }
      return;
    }
  }
#endif
  if (A.block_size() > 1) {
    apply_soa_block_lines<kResidual>(A, x, b, y, q2);
    return;
  }
  // Scaled residual must go through spmv-then-subtract (see residual()):
  // q2_i cannot be folded into per-diagonal passes without scaling b too.
  SMG_CHECK(!(kResidual && q2 != nullptr), "scaled residual not fused");
  const Box& box = A.box();
  const Stencil& st = A.stencil();
  const int bs = A.block_size();
  const int nd = st.ndiag();
  const std::int64_t ncells = A.ncells();
  const ST* SMG_RESTRICT vals = A.data();

  if (bs == 1) {
    const Layout layout = A.layout();
#pragma omp parallel for collapse(2) schedule(static)
    for (int k = 0; k < box.nz; ++k) {
      for (int j = 0; j < box.ny; ++j) {
        const std::int64_t base = box.idx(0, j, k);
        const std::int64_t line = j + static_cast<std::int64_t>(box.ny) * k;
        // Initialize the line: 0 for SpMV, b for residual.
        for (int i = 0; i < box.nx; ++i) {
          y[base + i] = kResidual ? b[base + i] : CT{0};
        }
        for (int d = 0; d < nd; ++d) {
          const DiagRange r = diag_range(box, st.offset(d), j, k);
          if (!r.line_valid || r.ihi <= r.ilo) {
            continue;
          }
          const ST* a = detail::line_diag_ptr(vals, layout, base, line, d,
                                              nd, ncells, box.nx);
          const std::int64_t xoff = base + r.shift;
          // For residual we subtract the A x contribution.
          if (q2 != nullptr) {
            detail::soa_diag_fma<kResidual, true>(
                a + r.ilo, x + xoff + r.ilo, q2 + xoff + r.ilo,
                y + base + r.ilo, r.ihi - r.ilo);
          } else {
            detail::soa_diag_fma<kResidual, false>(
                a + r.ilo, x + xoff + r.ilo, static_cast<const CT*>(nullptr),
                y + base + r.ilo, r.ihi - r.ilo);
          }
        }
        if (q2 != nullptr && !kResidual) {
          for (int i = 0; i < box.nx; ++i) {
            y[base + i] *= q2[base + i];
          }
        }
      }
    }
    return;
  }
}

/// AOS kernel: same contract as apply_soa.  For 2-byte ST this is the
/// "naive" mixed-precision variant paying one convert per entry.  The line
/// is split into boundary regions (per-entry range checks) and an interior
/// fast path over the line's valid diagonals only, so the AOS baseline is a
/// fair full-FP32 reference and the 2-byte slowdown isolates the fcvt cost.
template <bool kResidual, class ST, class CT>
void apply_aos(const StructMat<ST>& A, const CT* SMG_RESTRICT x,
               const CT* SMG_RESTRICT b, CT* SMG_RESTRICT y,
               const CT* SMG_RESTRICT q2) {
  const Box& box = A.box();
  const Stencil& st = A.stencil();
  const int bs = A.block_size();
  const int nd = st.ndiag();
  const std::int64_t block2 = static_cast<std::int64_t>(bs) * bs;
  const ST* SMG_RESTRICT vals = A.data();
  SMG_CHECK(nd <= 32, "stencil wider than 3x3x3 is unsupported");

#pragma omp parallel for collapse(2) schedule(static)
  for (int k = 0; k < box.nz; ++k) {
    for (int j = 0; j < box.ny; ++j) {
      const std::int64_t base = box.idx(0, j, k);
      // Valid diagonals of this line, and the interior region where all of
      // them apply unconditionally.
      struct Valid {
        int d;
        int ilo, ihi;
        std::int64_t shift;
      };
      Valid vd[32];
      int nvalid = 0;
      int lo = 0;
      int hi = box.nx;
      for (int d = 0; d < nd; ++d) {
        const DiagRange r = diag_range(box, st.offset(d), j, k);
        if (!r.line_valid || r.ihi <= r.ilo) {
          continue;
        }
        vd[nvalid++] = {d, r.ilo, r.ihi, r.shift};
        lo = std::max(lo, r.ilo);
        hi = std::min(hi, r.ihi);
      }
      hi = std::max(hi, lo);

      const auto cell_body = [&](int i, bool checked) {
        const std::int64_t cell = base + i;
        const ST* cell_vals = vals + cell * nd * block2;
        for (int br = 0; br < bs; ++br) {
          CT acc{0};
          for (int v = 0; v < nvalid; ++v) {
            if (checked && (i < vd[v].ilo || i >= vd[v].ihi)) {
              continue;
            }
            const std::int64_t nbr = cell + vd[v].shift;
            const ST* blk = cell_vals + vd[v].d * block2;
            for (int bc = 0; bc < bs; ++bc) {
              CT xv = x[nbr * bs + bc];
              if (q2 != nullptr) {
                xv *= q2[nbr * bs + bc];
              }
              acc = detail::mul_add(detail::widen1<CT>(blk[br * bs + bc]),
                                    xv, acc);
            }
          }
          if (q2 != nullptr) {
            acc *= q2[cell * bs + br];
          }
          const std::int64_t row = cell * bs + br;
          y[row] = kResidual ? b[row] - acc : acc;
        }
      };

      for (int i = 0; i < lo; ++i) {
        cell_body(i, true);
      }
      for (int i = lo; i < hi; ++i) {
        cell_body(i, false);
      }
      for (int i = hi; i < box.nx; ++i) {
        cell_body(i, true);
      }
    }
  }
}

/// y = A x (optionally rescaled); dispatches on the stored layout.
template <class ST, class CT>
void spmv(const StructMat<ST>& A, std::span<const CT> x, std::span<CT> y,
          const CT* q2 = nullptr) {
  SMG_CHECK(static_cast<std::int64_t>(x.size()) == A.nrows() &&
                static_cast<std::int64_t>(y.size()) == A.nrows(),
            "spmv size mismatch");
  if (A.layout() != Layout::AOS) {
    apply_soa<false>(A, x.data(), static_cast<const CT*>(nullptr), y.data(),
                     q2);
  } else {
    apply_aos<false>(A, x.data(), static_cast<const CT*>(nullptr), y.data(),
                     q2);
  }
}

/// r = b - A x (optionally rescaled); dispatches on the stored layout.
template <class ST, class CT>
void residual(const StructMat<ST>& A, std::span<const CT> b,
              std::span<const CT> x, std::span<CT> r,
              const CT* q2 = nullptr) {
  SMG_CHECK(static_cast<std::int64_t>(x.size()) == A.nrows() &&
                static_cast<std::int64_t>(b.size()) == A.nrows() &&
                static_cast<std::int64_t>(r.size()) == A.nrows(),
            "residual size mismatch");
  // The SOA-family block path and the register-blocked fp16 path fuse the
  // scaled residual correctly (the accumulator is separate from b until the
  // final combination).
  if (A.layout() != Layout::AOS && A.block_size() > 1) {
    apply_soa<true>(A, x.data(), b.data(), r.data(), q2);
    return;
  }
#if defined(SMG_SIMD_AVX2)
  if constexpr (std::is_same_v<ST, half> && std::is_same_v<CT, float>) {
    if (A.layout() != Layout::AOS && A.block_size() == 1) {
      apply_soa<true>(A, x.data(), b.data(), r.data(), q2);
      return;
    }
  }
#endif
  if (q2 != nullptr) {
    // The scaled-matrix residual cannot fold q2_i into per-diagonal passes
    // (the b term must stay unscaled), so compute y = A x then r = b - y.
    avec<CT> tmp;
    tmp.resize(static_cast<std::size_t>(A.nrows()));
    oracle::spmv(A, x, std::span<CT>{tmp.data(), tmp.size()}, q2);
    for (std::size_t i = 0; i < tmp.size(); ++i) {
      r[i] = b[i] - tmp[i];
    }
    return;
  }
  if (A.layout() != Layout::AOS) {
    apply_soa<true>(A, x.data(), b.data(), r.data(), q2);
  } else {
    apply_aos<true>(A, x.data(), b.data(), r.data(), q2);
  }
}

/// Scalar reference SpMV used to validate the optimized kernels.
template <class ST, class CT>
void spmv_ref(const StructMat<ST>& A, std::span<const CT> x, std::span<CT> y,
              const CT* q2 = nullptr) {
  const Box& box = A.box();
  const Stencil& st = A.stencil();
  const int bs = A.block_size();
  for (int k = 0; k < box.nz; ++k) {
    for (int j = 0; j < box.ny; ++j) {
      for (int i = 0; i < box.nx; ++i) {
        const std::int64_t cell = box.idx(i, j, k);
        for (int br = 0; br < bs; ++br) {
          CT acc{0};
          for (int d = 0; d < st.ndiag(); ++d) {
            const Offset& o = st.offset(d);
            if (!box.contains(i + o.dx, j + o.dy, k + o.dz)) {
              continue;
            }
            const std::int64_t nbr = box.idx(i + o.dx, j + o.dy, k + o.dz);
            for (int bc = 0; bc < bs; ++bc) {
              CT xv = x[nbr * bs + bc];
              if (q2 != nullptr) {
                xv *= q2[nbr * bs + bc];
              }
              acc += detail::widen1<CT>(A.at(cell, d, br, bc)) * xv;
            }
          }
          if (q2 != nullptr) {
            acc *= q2[cell * bs + br];
          }
          y[cell * bs + br] = acc;
        }
      }
    }
  }
}

/// Scalar Gauss-Seidel sweep over all cells in the given direction.
/// Works for any layout; the AOS ("naive") path for 2-byte storage.
/// Parallelized at cell granularity by a Cell wavefront schedule.
template <bool kForward, class ST, class CT>
void gs_sweep_scalar(const StructMat<ST>& A, std::span<const CT> f,
                     std::span<CT> u, std::span<const CT> invdiag,
                     const CT* SMG_RESTRICT q2, const WavefrontSchedule* wf) {
  const Box& box = A.box();
  const Stencil& st = A.stencil();
  const int bs = A.block_size();
  const int nd = st.ndiag();
  const int center = st.center();
  SMG_CHECK(center >= 0, "GS sweep needs a diagonal entry");
  SMG_CHECK(bs <= 8, "block size > 8 unsupported");
  const std::int64_t block2 = static_cast<std::int64_t>(bs) * bs;

  const auto cell_body = [&](int i, int j, int k) {
    CT acc[8];
    CT upd[8];
    const std::int64_t cell = box.idx(i, j, k);
    for (int br = 0; br < bs; ++br) {
      acc[br] = f[cell * bs + br];
    }
    for (int d = 0; d < nd; ++d) {
      if (d == center) {
        continue;
      }
      const Offset& o = st.offset(d);
      if (!box.contains(i + o.dx, j + o.dy, k + o.dz)) {
        continue;
      }
      const std::int64_t nbr = box.idx(i + o.dx, j + o.dy, k + o.dz);
      const ST* blk = A.data() + A.block_index(cell, d);
      for (int br = 0; br < bs; ++br) {
        CT s{0};
        for (int bc = 0; bc < bs; ++bc) {
          CT xv = u[nbr * bs + bc];
          if (q2 != nullptr) {
            xv *= q2[nbr * bs + bc];
          }
          s = mul_add(widen1<CT>(blk[br * bs + bc]), xv, s);
        }
        if (q2 != nullptr) {
          s *= q2[cell * bs + br];
        }
        acc[br] -= s;
      }
    }
    block_apply(invdiag.data() + cell * block2, acc, upd, bs);
    for (int br = 0; br < bs; ++br) {
      u[cell * bs + br] = upd[br];
    }
  };

  if (wf_usable(wf, WfGranularity::Cell)) {
    const std::int64_t nxy = static_cast<std::int64_t>(box.nx) * box.ny;
    run_wavefront<kForward>(*wf, [&](std::int32_t cell) {
      const int k = static_cast<int>(cell / nxy);
      const int rem = static_cast<int>(cell % nxy);
      cell_body(rem % box.nx, rem / box.nx, k);
    });
    return;
  }

  const int k0 = kForward ? 0 : box.nz - 1;
  const int kstep = kForward ? 1 : -1;
  for (int k = k0; k >= 0 && k < box.nz; k += kstep) {
    const int j0 = kForward ? 0 : box.ny - 1;
    for (int j = j0; j >= 0 && j < box.ny; j += kstep) {
      const int i0 = kForward ? 0 : box.nx - 1;
      for (int i = i0; i >= 0 && i < box.nx; i += kstep) {
        cell_body(i, j, k);
      }
    }
  }
}

/// Line-buffered sweep for SOA scalar (bs == 1) matrices.
template <bool kForward, class ST, class CT>
void gs_sweep_soa_lines(const StructMat<ST>& A, std::span<const CT> f,
                        std::span<CT> u, std::span<const CT> invdiag,
                        const CT* SMG_RESTRICT q2,
                        const WavefrontSchedule* wf) {
  const Box& box = A.box();
  const Stencil& st = A.stencil();
  const int nd = st.ndiag();
  const int center = st.center();
  const std::int64_t ncells = A.ncells();
  const ST* SMG_RESTRICT vals = A.data();
  const Layout layout = A.layout();

  // The single same-line offset participating in the recurrence.
  const int recur_d = kForward ? st.find(-1, 0, 0) : st.find(+1, 0, 0);
  const int recur_dx = kForward ? -1 : +1;

  // Scaled recovery: maintain uq = q2 .* u incrementally so the vectorized
  // pre-pass reads a single vector (one load + fma per entry, same as the
  // unscaled sweep).  The buffer is owned by the calling thread; worker
  // threads of a wavefront sweep share it through the captured pointer
  // (each line only writes its own entries).
  avec<CT> uqbuf;
  const CT* SMG_RESTRICT uread = u.data();
  CT* SMG_RESTRICT uq = nullptr;
  if (q2 != nullptr) {
    const std::size_t n = u.size();
    uqbuf.resize(n);
    CT* SMG_RESTRICT uqp = uqbuf.data();
    const CT* SMG_RESTRICT up = u.data();
#pragma omp parallel for simd
    for (std::size_t q = 0; q < n; ++q) {
      uqp[q] = q2[q] * up[q];
    }
    uq = uqbuf.data();
    uread = uq;
  }

  const auto line_body = [&](int j, int k) {
    avec<CT> accbuf;
    accbuf.resize(static_cast<std::size_t>(box.nx));
    CT* SMG_RESTRICT acc = accbuf.data();

    const std::int64_t base = box.idx(0, j, k);
    const std::int64_t line = j + static_cast<std::int64_t>(box.ny) * k;
    for (int i = 0; i < box.nx; ++i) {
      acc[i] = CT{0};
    }
    // Vectorized pre-pass: every off-line (and the old-value same-line
    // opposite) contribution, accumulating a[i] * (q2*) u[nbr].
    for (int d = 0; d < nd; ++d) {
      if (d == center || d == recur_d) {
        continue;
      }
      const DiagRange r = diag_range(box, st.offset(d), j, k);
      if (!r.line_valid || r.ihi <= r.ilo) {
        continue;
      }
      const ST* a =
          line_diag_ptr(vals, layout, base, line, d, nd, ncells, box.nx);
      const std::int64_t xoff = base + r.shift;
      soa_diag_fma<false, false>(a + r.ilo, uread + xoff + r.ilo,
                                 static_cast<const CT*>(nullptr),
                                 acc + r.ilo, r.ihi - r.ilo);
    }
    // Scalar recurrence along the line.
    const ST* arec = recur_d >= 0
                         ? line_diag_ptr(vals, layout, base, line, recur_d,
                                         nd, ncells, box.nx)
                         : nullptr;
    const int i0 = kForward ? 0 : box.nx - 1;
    const int istep = kForward ? 1 : -1;
    for (int i = i0; i >= 0 && i < box.nx; i += istep) {
      CT s = acc[i];
      const int inbr = i + recur_dx;
      if (arec != nullptr && inbr >= 0 && inbr < box.nx) {
        s = mul_add(widen1<CT>(arec[i]), uread[base + inbr], s);
      }
      CT rhs = f[base + i];
      if (q2 != nullptr) {
        rhs = mul_add(-q2[base + i], s, rhs);
      } else {
        rhs -= s;
      }
      const CT unew = invdiag[base + i] * rhs;
      u[base + i] = unew;
      if (uq != nullptr) {
        uq[base + i] = q2[base + i] * unew;
      }
    }
  };

  run_lines<kForward>(box, wf, line_body);
}

/// Line-buffered sweep for SOA-family block (bs > 1) matrices: per (line,
/// diagonal) the half blocks are widened once (SIMD) into an L1 buffer, the
/// off-line contributions accumulate into a per-line buffer, and only the
/// one same-line offset stays in the per-cell recurrence — the block
/// analogue of gs_sweep_soa_lines.
template <bool kForward, class ST, class CT>
void gs_sweep_block_lines(const StructMat<ST>& A, std::span<const CT> f,
                          std::span<CT> u, std::span<const CT> invdiag,
                          const CT* SMG_RESTRICT q2,
                          const WavefrontSchedule* wf) {
  const Box& box = A.box();
  const Stencil& st = A.stencil();
  const int bs = A.block_size();
  const int nd = st.ndiag();
  const int nx = box.nx;
  const int center = st.center();
  const std::int64_t ncells = A.ncells();
  const std::int64_t block2 = static_cast<std::int64_t>(bs) * bs;
  const ST* SMG_RESTRICT vals = A.data();
  const Layout layout = A.layout();
  const std::size_t runlen =
      static_cast<std::size_t>(nx) * static_cast<std::size_t>(block2);
  SMG_CHECK(bs <= 8, "block size > 8 unsupported");

  const int recur_d = kForward ? st.find(-1, 0, 0) : st.find(+1, 0, 0);
  const int recur_dx = kForward ? -1 : +1;

  // Scaled recovery: maintain uq = q2 .* u incrementally (updated together
  // with u in the recurrence) so the hot off-line pass reads one vector
  // instead of paying a load + multiply per matrix entry.  Shared across
  // wavefront workers exactly like the scalar path's buffer.
  avec<CT> uqbuf;
  const CT* SMG_RESTRICT uread = u.data();
  CT* SMG_RESTRICT uq = nullptr;
  if (q2 != nullptr) {
    const std::size_t n = u.size();
    uqbuf.resize(n);
    CT* SMG_RESTRICT uqp = uqbuf.data();
    const CT* SMG_RESTRICT up = u.data();
#pragma omp parallel for simd
    for (std::size_t q = 0; q < n; ++q) {
      uqp[q] = q2[q] * up[q];
    }
    uq = uqbuf.data();
    uread = uq;
  }

  const auto run_ptr = [&](std::int64_t base, std::int64_t line, int d) {
    return vals + (layout == Layout::SOA
                       ? (static_cast<std::int64_t>(d) * ncells + base) *
                             block2
                       : (line * nd + d) * static_cast<std::int64_t>(nx) *
                             block2);
  };

  const auto line_body = [&](int j, int k) {
    avec<CT> accbuf;
    avec<CT> coefbuf;
    avec<CT> recurbuf;
    accbuf.resize(static_cast<std::size_t>(nx) * bs);
    CT* SMG_RESTRICT acc = accbuf.data();
    CT s[8];
    CT upd[8];

    const std::int64_t base = box.idx(0, j, k);
    const std::int64_t line = j + static_cast<std::int64_t>(box.ny) * k;
    for (std::size_t q = 0; q < static_cast<std::size_t>(nx) * bs; ++q) {
      acc[q] = CT{0};
    }
    // Off-line (and same-line old-value) contributions.
    for (int d = 0; d < nd; ++d) {
      if (d == center || d == recur_d) {
        continue;
      }
      const DiagRange r = diag_range(box, st.offset(d), j, k);
      if (!r.line_valid || r.ihi <= r.ilo) {
        continue;
      }
      const CT* coef = widen_run<CT>(run_ptr(base, line, d), runlen,
                                     coefbuf);
      const std::int64_t xoff = (base + r.shift) * bs;
      for (int i = r.ilo; i < r.ihi; ++i) {
        const CT* blk = coef + static_cast<std::int64_t>(i) * block2;
        const CT* xv = uread + xoff + static_cast<std::int64_t>(i) * bs;
        CT* av = acc + static_cast<std::int64_t>(i) * bs;
        for (int br = 0; br < bs; ++br) {
          CT a2{0};
          for (int bc = 0; bc < bs; ++bc) {
            a2 = mul_add(blk[br * bs + bc], xv[bc], a2);
          }
          av[br] += a2;
        }
      }
    }
    // Per-cell recurrence with the same-line coupling block.
    const CT* rec = recur_d >= 0
                        ? widen_run<CT>(run_ptr(base, line, recur_d),
                                        runlen, recurbuf)
                        : nullptr;
    const int i0 = kForward ? 0 : nx - 1;
    const int istep = kForward ? 1 : -1;
    for (int i = i0; i >= 0 && i < nx; i += istep) {
      const std::int64_t cell = base + i;
      for (int br = 0; br < bs; ++br) {
        s[br] = acc[static_cast<std::int64_t>(i) * bs + br];
      }
      const int inbr = i + recur_dx;
      if (rec != nullptr && inbr >= 0 && inbr < nx) {
        const CT* blk = rec + static_cast<std::int64_t>(i) * block2;
        const CT* xv = uread + (base + inbr) * bs;
        for (int br = 0; br < bs; ++br) {
          CT a2{0};
          for (int bc = 0; bc < bs; ++bc) {
            a2 = mul_add(blk[br * bs + bc], xv[bc], a2);
          }
          s[br] += a2;
        }
      }
      for (int br = 0; br < bs; ++br) {
        CT rhs = f[cell * bs + br];
        if (q2 != nullptr) {
          rhs = mul_add(-q2[cell * bs + br], s[br], rhs);
        } else {
          rhs -= s[br];
        }
        s[br] = rhs;
      }
      block_apply(invdiag.data() + cell * block2, s, upd, bs);
      for (int br = 0; br < bs; ++br) {
        u[cell * bs + br] = upd[br];
        if (uq != nullptr) {
          uq[cell * bs + br] = q2[cell * bs + br] * upd[br];
        }
      }
    }
  };

  run_lines<kForward>(box, wf, line_body);
}

/// One forward Gauss-Seidel sweep: u <- (D + L)^{-1} (f - U u).
/// For lower-triangular-pattern matrices this *is* SpTRSV.
/// A usable wavefront schedule (line granularity for SOA/SOAL, cell for AOS)
/// runs the sweep level-parallel with bitwise-identical results; otherwise
/// the sweep is sequential.
template <class ST, class CT>
void gs_forward(const StructMat<ST>& A, std::span<const CT> f, std::span<CT> u,
                std::span<const CT> invdiag, const CT* q2 = nullptr,
                const WavefrontSchedule* wf = nullptr) {
  if (A.layout() != Layout::AOS) {
    if (A.block_size() == 1) {
      gs_sweep_soa_lines<true>(A, f, u, invdiag, q2, wf);
    } else {
      gs_sweep_block_lines<true>(A, f, u, invdiag, q2, wf);
    }
  } else {
    gs_sweep_scalar<true>(A, f, u, invdiag, q2, wf);
  }
}

/// One backward Gauss-Seidel sweep: u <- (D + U)^{-1} (f - L u).
template <class ST, class CT>
void gs_backward(const StructMat<ST>& A, std::span<const CT> f,
                 std::span<CT> u, std::span<const CT> invdiag,
                 const CT* q2 = nullptr,
                 const WavefrontSchedule* wf = nullptr) {
  if (A.layout() != Layout::AOS) {
    if (A.block_size() == 1) {
      gs_sweep_soa_lines<false>(A, f, u, invdiag, q2, wf);
    } else {
      gs_sweep_block_lines<false>(A, f, u, invdiag, q2, wf);
    }
  } else {
    gs_sweep_scalar<false>(A, f, u, invdiag, q2, wf);
  }
}

/// fc = R (f - A u): the fused downstroke's two-step definition, residual()
/// into a scratch vector followed by restrict_to_coarse().
template <class ST, class CT>
void residual_restrict(const StructMat<ST>& A, std::span<const CT> f,
                       std::span<const CT> u, const CT* q2,
                       const Coarsening& c, std::span<CT> fc) {
  avec<CT> r(static_cast<std::size_t>(A.nrows()));
  oracle::residual(A, f, u, std::span<CT>{r.data(), r.size()}, q2);
  restrict_to_coarse<CT>(c, A.block_size(),
                         std::span<const CT>{r.data(), r.size()}, fc);
}

/// unew = u + w * D^{-1} (f - A u): the fused Jacobi sweep's two-step
/// definition, residual() into a scratch vector followed by the per-cell
/// inverse-diagonal update.
template <class ST, class CT>
void jacobi_sweep_fused(const StructMat<ST>& A, std::span<const CT> f,
                        std::span<const CT> u, std::span<const CT> invdiag,
                        const CT* q2, CT w, std::span<CT> unew) {
  const int bs = A.block_size();
  const std::int64_t block2 = static_cast<std::int64_t>(bs) * bs;
  avec<CT> r(static_cast<std::size_t>(A.nrows()));
  oracle::residual(A, f, u, std::span<CT>{r.data(), r.size()}, q2);
  for (std::int64_t cell = 0; cell < A.ncells(); ++cell) {
    const CT* blk = invdiag.data() + cell * block2;
    for (int br = 0; br < bs; ++br) {
      CT acc{0};
      for (int bc = 0; bc < bs; ++bc) {
        acc += blk[br * bs + bc] * r[static_cast<std::size_t>(cell * bs + bc)];
      }
      unew[static_cast<std::size_t>(cell * bs + br)] =
          u[static_cast<std::size_t>(cell * bs + br)] + w * acc;
    }
  }
}

}  // namespace smg::oracle
