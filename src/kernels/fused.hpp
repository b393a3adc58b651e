// Fused V-cycle downstroke kernels: residual→restrict without the residual
// vector, and the residual-fused Jacobi sweep.
//
// A two-step downstroke (residual() then restrict_to_coarse()) writes the
// full fine residual r = f - A u to memory only for the restriction to
// immediately re-read it: one full-vector store plus one full-vector load
// per level per cycle, in a kernel family that is memory-bandwidth-bound
// (PAPER.md §5, Fig. 7 — matrix+vector traffic, not FLOPs, limits every
// mixed-precision kernel).  residual_restrict() removes both passes: each
// fine line's residual is produced into a cache-resident plane buffer with
// *exactly* the same arithmetic — and therefore bitwise the same values — as
// the residual() dispatch in kernels/spmv.hpp, then gathered one coarse line
// at a time into the coarse rhs by the same line primitive as
// restrict_to_coarse() (detail::restrict_line, core/transfer.hpp), so the
// fused downstroke is bitwise identical to the two-step one
// (tests/kernels/test_fused.cpp).
//
// Parallelization is race-free by construction: threads own disjoint,
// contiguous chunks of *coarse* z-planes, and each coarse dof is written by
// exactly its owner.  Chunks sharing an odd fine plane recompute that one
// plane's residual (≤ 1 fine plane per thread boundary); a scatter-form
// fusion would instead contend on coarse accumulators.
#pragma once

#include <span>

#include "core/transfer.hpp"
#include "kernels/spmv.hpp"

#if defined(_OPENMP)
#include <omp.h>
#endif

namespace smg {

namespace detail {

/// Per-matrix state reused across residual_lines calls.  The generic case
/// carries nothing; the AVX2 (half, float) scalar case hoists the
/// F16LineProto descriptor out of the line loop, exactly as
/// apply_soa_f16_blocked does.
template <class ST, class CT>
struct ResidualLineCtx {
  explicit ResidualLineCtx(const StructMat<ST>&) {}
};

#if defined(SMG_SIMD_AVX2)
template <>
struct ResidualLineCtx<half, float> {
  F16LineProto proto;
  explicit ResidualLineCtx(const StructMat<half>& A) : proto(A) {}
};
#endif

/// r(lines) = f - A u for lines j in [jlo, jhi) of plane k, written
/// contiguously to out[(j - jlo) * nx * bs ...).  For every (layout, storage,
/// block size, q2) combination each line performs the same operations in the
/// same order as residual() in spmv.hpp restricted to that line, so the
/// values are bitwise identical to the full-vector kernel's.  The layout /
/// block-size dispatch and the matrix-accessor loads run once per call, not
/// once per line — per-line dispatch costs ~10% on a 27-point residual.
template <class ST, class CT>
void residual_lines(const ResidualLineCtx<ST, CT>& ctx, const StructMat<ST>& A,
                    const CT* SMG_RESTRICT f, const CT* SMG_RESTRICT u,
                    const CT* SMG_RESTRICT q2, int k, int jlo, int jhi,
                    CT* SMG_RESTRICT out) {
  const Box& box = A.box();
  const Stencil& st = A.stencil();
  const int bs = A.block_size();
  const int nd = st.ndiag();
  const int nx = box.nx;
  const ST* SMG_RESTRICT vals = A.data();
  const std::int64_t lstride = static_cast<std::int64_t>(nx) * bs;

  if (A.layout() == Layout::AOS) {
    // Mirror of apply_aos' line body: per-cell accumulation over the line's
    // valid diagonals with q2 folded in.  Without q2 the f - Ax combination
    // happens in the cell body exactly as apply_aos<true>; with q2 the
    // scaled product is stored first and subtracted in a separate pass,
    // matching residual()'s spmv-then-subtract reference — the intermediate
    // store is a rounding barrier, so folding the subtraction into the cell
    // body would let the compiler contract f - acc*q2 into one FMA and
    // break bitwise equality.
    const std::int64_t block2 = static_cast<std::int64_t>(bs) * bs;
    SMG_CHECK(nd <= 32, "stencil wider than 3x3x3 is unsupported");
    for (int j = jlo; j < jhi; ++j) {
      CT* SMG_RESTRICT rl = out + (j - jlo) * lstride;
      const std::int64_t base = box.idx(0, j, k);
      struct Valid {
        int d;
        int ilo, ihi;
        std::int64_t shift;
      };
      Valid vd[32];
      int nvalid = 0;
      int lo = 0;
      int hi = nx;
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
              CT xv = u[nbr * bs + bc];
              if (q2 != nullptr) {
                xv *= q2[nbr * bs + bc];
              }
              acc = mul_add(widen1<CT>(blk[br * bs + bc]), xv, acc);
            }
          }
          if (q2 != nullptr) {
            acc *= q2[cell * bs + br];
            rl[static_cast<std::int64_t>(i) * bs + br] = acc;
          } else {
            rl[static_cast<std::int64_t>(i) * bs + br] =
                f[cell * bs + br] - acc;
          }
        }
      };
      for (int i = 0; i < lo; ++i) {
        cell_body(i, true);
      }
      for (int i = lo; i < hi; ++i) {
        cell_body(i, false);
      }
      for (int i = hi; i < nx; ++i) {
        cell_body(i, true);
      }
      if (q2 != nullptr) {
        const CT* SMG_RESTRICT fl = f + base * bs;
        for (std::int64_t q = 0; q < lstride; ++q) {
          rl[q] = fl[q] - rl[q];
        }
      }
    }
    return;
  }

  const std::int64_t ncells = A.ncells();
  const Layout layout = A.layout();

  if (bs > 1) {
    // Mirror of apply_soa_block_lines: per (line, diagonal) the block
    // coefficients are widened once, dense block math accumulates the raw
    // matrix-vector sum, and b/q2 apply in a post pass.  The q2 .* u operand
    // is formed element-wise here instead of via the kernel's global
    // pre-pass — the same single multiply of the same operands.
    const std::int64_t block2 = static_cast<std::int64_t>(bs) * bs;
    const std::size_t runlen =
        static_cast<std::size_t>(nx) * static_cast<std::size_t>(block2);
    constexpr int kMaxBs = 8;
    SMG_CHECK(bs <= kMaxBs, "block size > 8 is unsupported");
    thread_local avec<CT> coefbuf;
    for (int j = jlo; j < jhi; ++j) {
      CT* SMG_RESTRICT rl = out + (j - jlo) * lstride;
      const std::int64_t base = box.idx(0, j, k);
      const std::int64_t line = j + static_cast<std::int64_t>(box.ny) * k;
      for (std::int64_t q = 0; q < lstride; ++q) {
        rl[q] = CT{0};
      }
      for (int d = 0; d < nd; ++d) {
        const DiagRange r = diag_range(box, st.offset(d), j, k);
        if (!r.line_valid || r.ihi <= r.ilo) {
          continue;
        }
        const ST* araw =
            vals +
            (layout == Layout::SOA
                 ? (static_cast<std::int64_t>(d) * ncells + base) * block2
                 : (line * nd + d) * static_cast<std::int64_t>(nx) * block2);
        const CT* SMG_RESTRICT coef = widen_run<CT>(araw, runlen, coefbuf);
        const std::int64_t xoff = (base + r.shift) * bs;
        for (int i = r.ilo; i < r.ihi; ++i) {
          const CT* blk = coef + static_cast<std::int64_t>(i) * block2;
          const CT* xv = u + xoff + static_cast<std::int64_t>(i) * bs;
          CT xq[kMaxBs];
          if (q2 != nullptr) {
            const CT* qv = q2 + xoff + static_cast<std::int64_t>(i) * bs;
            for (int bc = 0; bc < bs; ++bc) {
              xq[bc] = qv[bc] * xv[bc];
            }
            xv = xq;
          }
          CT* yv = rl + static_cast<std::int64_t>(i) * bs;
          for (int br = 0; br < bs; ++br) {
            CT acc{0};
            for (int bc = 0; bc < bs; ++bc) {
              acc = mul_add(blk[br * bs + bc], xv[bc], acc);
            }
            yv[br] += acc;
          }
        }
      }
      const CT* SMG_RESTRICT fl = f + base * bs;
      if (q2 != nullptr) {
        const CT* SMG_RESTRICT ql = q2 + base * bs;
        for (std::int64_t q = 0; q < lstride; ++q) {
          rl[q] = mul_add(-ql[q], rl[q], fl[q]);
        }
      } else {
        for (std::int64_t q = 0; q < lstride; ++q) {
          rl[q] = fl[q] - rl[q];
        }
      }
    }
    return;
  }

#if defined(SMG_SIMD_AVX2)
  if constexpr (std::is_same_v<ST, half> && std::is_same_v<CT, float>) {
    // Mirror of apply_soa_f16_blocked: same descriptors, same line runner,
    // output redirected into the private plane buffer.
    for (int j = jlo; j < jhi; ++j) {
      CT* SMG_RESTRICT rl = out + (j - jlo) * lstride;
      const std::int64_t base = box.idx(0, j, k);
      const std::int64_t line = j + static_cast<std::int64_t>(box.ny) * k;
      std::int64_t c_aoff[32];
      std::int64_t c_shift[32];
      int c_ilo[32];
      int c_ihi[32];
      const F16LineDesc d = f16_line_desc(ctx.proto, st, box, j, k, c_aoff,
                                          c_shift, c_ilo, c_ihi);
      const half* am = vals + ctx.proto.abase(base, line);
      if (q2 != nullptr) {
        f16_run_line<true, true>(am, u + base, f + base, q2 + base, rl, nx, d);
      } else {
        f16_run_line<true, false>(am, u + base, f + base, nullptr, rl, nx, d);
      }
    }
    return;
  }
#endif
  (void)ctx;

  if (q2 != nullptr) {
    // Mirror of residual()'s spmv-then-subtract path: y = A (q2 .* u), row
    // rescale, then r = f - y (the b term must stay unscaled, so q2 cannot
    // fold into the per-diagonal passes).
    for (int j = jlo; j < jhi; ++j) {
      CT* SMG_RESTRICT rl = out + (j - jlo) * lstride;
      const std::int64_t base = box.idx(0, j, k);
      const std::int64_t line = j + static_cast<std::int64_t>(box.ny) * k;
      for (int i = 0; i < nx; ++i) {
        rl[i] = CT{0};
      }
      for (int d = 0; d < nd; ++d) {
        const DiagRange r = diag_range(box, st.offset(d), j, k);
        if (!r.line_valid || r.ihi <= r.ilo) {
          continue;
        }
        const ST* a =
            line_diag_ptr(vals, layout, base, line, d, nd, ncells, nx);
        const std::int64_t xoff = base + r.shift;
        soa_diag_fma<false, true>(a + r.ilo, u + xoff + r.ilo,
                                  q2 + xoff + r.ilo, rl + r.ilo,
                                  r.ihi - r.ilo);
      }
      for (int i = 0; i < nx; ++i) {
        rl[i] *= q2[base + i];
      }
      for (int i = 0; i < nx; ++i) {
        rl[i] = f[base + i] - rl[i];
      }
    }
    return;
  }

  // Mirror of apply_soa<true> (scalar, unscaled): init with f, subtract the
  // per-diagonal A u contributions.
  for (int j = jlo; j < jhi; ++j) {
    CT* SMG_RESTRICT rl = out + (j - jlo) * lstride;
    const std::int64_t base = box.idx(0, j, k);
    const std::int64_t line = j + static_cast<std::int64_t>(box.ny) * k;
    for (int i = 0; i < nx; ++i) {
      rl[i] = f[base + i];
    }
    for (int d = 0; d < nd; ++d) {
      const DiagRange r = diag_range(box, st.offset(d), j, k);
      if (!r.line_valid || r.ihi <= r.ilo) {
        continue;
      }
      const ST* a = line_diag_ptr(vals, layout, base, line, d, nd, ncells, nx);
      const std::int64_t xoff = base + r.shift;
      soa_diag_fma<true, false>(a + r.ilo, u + xoff + r.ilo,
                                static_cast<const CT*>(nullptr), rl + r.ilo,
                                r.ihi - r.ilo);
    }
  }
}

}  // namespace detail

/// fc = R (f - A u): the fused downstroke.  Bitwise identical to residual()
/// into a scratch vector followed by restrict_to_coarse(), at any thread
/// count, but never materializes the fine residual — saving one full-vector
/// store and one full-vector load per level per cycle.
template <class ST, class CT>
void residual_restrict(const StructMat<ST>& A, std::span<const CT> f,
                       std::span<const CT> u, const CT* q2,
                       const Coarsening& c, std::span<CT> fc) {
  const Box& fine = c.fine;
  const Box& coarse = c.coarse;
  const int bs = A.block_size();
  SMG_CHECK(A.box() == fine, "residual_restrict: matrix box != fine box");
  SMG_CHECK(static_cast<std::int64_t>(f.size()) == A.nrows() &&
                static_cast<std::int64_t>(u.size()) == A.nrows() &&
                static_cast<std::int64_t>(fc.size()) == coarse.size() * bs,
            "residual_restrict size mismatch");
  const obs::KernelSpan span(obs::Kind::ResidualRestrict);
  const detail::ResidualLineCtx<ST, CT> ctx(A);
  const CT* fp = f.data();
  const CT* up = u.data();
  CT* out = fc.data();
  const std::int64_t lstride = static_cast<std::int64_t>(fine.nx) * bs;
  const std::size_t plane_dofs =
      static_cast<std::size_t>(lstride) * static_cast<std::size_t>(fine.ny);

#pragma omp parallel
  {
#if defined(_OPENMP)
    const int nth = omp_get_num_threads();
    const int tid = omp_get_thread_num();
#else
    const int nth = 1;
    const int tid = 0;
#endif
    const int ncz = coarse.nz;
    const int k0 = static_cast<int>(
        static_cast<std::int64_t>(ncz) * tid / nth);
    const int k1 = static_cast<int>(
        static_cast<std::int64_t>(ncz) * (tid + 1) / nth);
    if (k0 < k1) {
      // Rolling window of fine-plane residuals, each computed on its first
      // request: a coarse plane's children are at most three consecutive
      // fine planes, so slot kf % 3 never collides inside the window and
      // plane 2K+1 survives as 2(K+1)-1.
      avec<CT> planes[3];
      int held[3] = {-1, -1, -1};
      const auto line = [&](int j, int kf) -> const CT* {
        const int slot = kf % 3;
        if (held[slot] != kf) {
          planes[slot].resize(plane_dofs);
          detail::residual_lines(ctx, A, fp, up, q2, kf, 0, fine.ny,
                                 planes[slot].data());
          held[slot] = kf;
        }
        return planes[slot].data() + j * lstride;
      };
      for (int K = k0; K < k1; ++K) {
        for (int J = 0; J < coarse.ny; ++J) {
          detail::restrict_line(c, J, K, bs, 0, coarse.nx, 0, line,
                                out + coarse.idx(0, J, K) * bs);
        }
      }
    }
  }
}

/// unew = u + w * D^{-1} (f - A u): one weighted (block-)Jacobi sweep with
/// the residual fused into the update — the residual vector is never stored
/// and the old iterate is never re-read in a second pass.  unew must not
/// alias u (Jacobi reads the old iterate everywhere); callers ping-pong two
/// buffers.  Bitwise identical to residual() followed by the two-pass
/// diagonal update, at any thread count.
template <class ST, class CT>
void jacobi_sweep_fused(const StructMat<ST>& A, std::span<const CT> f,
                        std::span<const CT> u, std::span<const CT> invdiag,
                        const CT* q2, CT w, std::span<CT> unew) {
  const Box& box = A.box();
  const int bs = A.block_size();
  const std::int64_t block2 = static_cast<std::int64_t>(bs) * bs;
  SMG_CHECK(static_cast<std::int64_t>(f.size()) == A.nrows() &&
                static_cast<std::int64_t>(u.size()) == A.nrows() &&
                static_cast<std::int64_t>(unew.size()) == A.nrows() &&
                static_cast<std::int64_t>(invdiag.size()) ==
                    A.ncells() * block2,
            "jacobi_sweep_fused size mismatch");
  SMG_CHECK(unew.data() != u.data(), "jacobi_sweep_fused: unew aliases u");
  const obs::KernelSpan span(obs::Kind::Jacobi);
  const detail::ResidualLineCtx<ST, CT> ctx(A);
  const int nx = box.nx;
  const std::int64_t ndof_line = static_cast<std::int64_t>(nx) * bs;
  const std::size_t plane_dofs =
      static_cast<std::size_t>(ndof_line) * static_cast<std::size_t>(box.ny);

  // Plane-granular parallel loop: residual_lines dispatches once per plane,
  // and a plane of residuals stays cache-resident for the diagonal update.
#pragma omp parallel for schedule(static)
  for (int k = 0; k < box.nz; ++k) {
    thread_local avec<CT> rbuf;
    if (rbuf.size() < plane_dofs) {
      rbuf.resize(plane_dofs);
    }
    CT* rp = rbuf.data();
    detail::residual_lines(ctx, A, f.data(), u.data(), q2, k, 0, box.ny, rp);
    for (int j = 0; j < box.ny; ++j) {
      const CT* rl = rp + static_cast<std::int64_t>(j) * ndof_line;
      const std::int64_t base = box.idx(0, j, k);
      for (int i = 0; i < nx; ++i) {
        const std::int64_t cell = base + i;
        const CT* blk = invdiag.data() + cell * block2;
        for (int br = 0; br < bs; ++br) {
          CT acc{0};
          for (int bc = 0; bc < bs; ++bc) {
            acc += blk[br * bs + bc] * rl[static_cast<std::int64_t>(i) * bs + bc];
          }
          unew[static_cast<std::size_t>(cell * bs + br)] =
              u[static_cast<std::size_t>(cell * bs + br)] + w * acc;
        }
      }
    }
  }
}

/// Panel fused downstroke: Fc = R (F - A U) for all columns in one matrix
/// sweep.  Column c is bitwise identical to residual_restrict on that column
/// (and therefore to residual_many + restrict_to_coarse_many): the fine
/// residual planes come from panel_lines — the panel mirror of
/// residual_lines — and the coarse gather is the same line primitive on
/// panel cells of bs * kp values.  Same race-free parallelization: threads own
/// disjoint chunks of coarse z-planes with a rolling 3-plane window.
template <class ST, class CT>
void residual_restrict_many(const StructMat<ST>& A, const MultiVector<CT>& f,
                            const MultiVector<CT>& u, const CT* q2,
                            const Coarsening& c, MultiVector<CT>& fc) {
  const Box& fine = c.fine;
  const Box& coarse = c.coarse;
  const int bs = A.block_size();
  SMG_CHECK(A.box() == fine, "residual_restrict_many: matrix box != fine box");
  SMG_CHECK(f.rows() == A.nrows() && u.rows() == A.nrows() &&
                fc.rows() == coarse.size() * bs &&
                f.padded_cols() == fc.padded_cols() &&
                u.padded_cols() == fc.padded_cols(),
            "residual_restrict_many size mismatch");
  const obs::KernelSpan span(obs::Kind::ResidualRestrict);
  const detail::PanelLineCtx<ST, CT> ctx(A);
  const int kp = f.padded_cols();
  const CT* fp = f.data();
  const CT* up = u.data();
  CT* out = fc.data();
  const std::int64_t lstride = static_cast<std::int64_t>(fine.nx) * bs;
  const std::size_t plane_dofs = static_cast<std::size_t>(lstride) *
                                 static_cast<std::size_t>(fine.ny) *
                                 static_cast<std::size_t>(kp);
#pragma omp parallel
  {
#if defined(_OPENMP)
    const int nth = omp_get_num_threads();
    const int tid = omp_get_thread_num();
#else
    const int nth = 1;
    const int tid = 0;
#endif
    const int ncz = coarse.nz;
    const int k0 =
        static_cast<int>(static_cast<std::int64_t>(ncz) * tid / nth);
    const int k1 =
        static_cast<int>(static_cast<std::int64_t>(ncz) * (tid + 1) / nth);
    if (k0 < k1) {
      avec<CT> planes[3];
      int held[3] = {-1, -1, -1};
      const auto line = [&](int j, int kf) -> const CT* {
        const int slot = kf % 3;
        if (held[slot] != kf) {
          planes[slot].resize(plane_dofs);
          detail::panel_lines<true>(ctx, A, fp, up, q2, kf, 0, fine.ny,
                                    planes[slot].data(), kp);
          held[slot] = kf;
        }
        return planes[slot].data() + j * lstride * kp;
      };
      for (int K = k0; K < k1; ++K) {
        for (int J = 0; J < coarse.ny; ++J) {
          detail::restrict_line(c, J, K, bs * kp, 0, coarse.nx, 0, line,
                                out + coarse.idx(0, J, K) * bs * kp);
        }
      }
    }
  }
}

/// Panel fused Jacobi sweep: Unew = U + w D^{-1} (F - A U) for all columns
/// in one matrix sweep; column c is bitwise identical to jacobi_sweep_fused.
/// Unew must not alias U.
template <class ST, class CT>
void jacobi_sweep_fused_many(const StructMat<ST>& A, const MultiVector<CT>& f,
                             const MultiVector<CT>& u,
                             std::span<const CT> invdiag, const CT* q2, CT w,
                             MultiVector<CT>& unew) {
  const Box& box = A.box();
  const int bs = A.block_size();
  const std::int64_t block2 = static_cast<std::int64_t>(bs) * bs;
  SMG_CHECK(f.rows() == A.nrows() && u.rows() == A.nrows() &&
                unew.rows() == A.nrows() &&
                static_cast<std::int64_t>(invdiag.size()) ==
                    A.ncells() * block2 &&
                f.padded_cols() == unew.padded_cols() &&
                u.padded_cols() == unew.padded_cols(),
            "jacobi_sweep_fused_many size mismatch");
  SMG_CHECK(unew.data() != u.data(), "jacobi_sweep_fused_many: unew aliases u");
  const obs::KernelSpan span(obs::Kind::Jacobi);
  const detail::PanelLineCtx<ST, CT> ctx(A);
  const int nx = box.nx;
  const int kp = f.padded_cols();
  const std::int64_t ndof_line = static_cast<std::int64_t>(nx) * bs;
  const std::size_t plane_dofs = static_cast<std::size_t>(ndof_line) *
                                 static_cast<std::size_t>(box.ny) *
                                 static_cast<std::size_t>(kp);
  const CT* fp = f.data();
  const CT* up = u.data();
  CT* np = unew.data();

#pragma omp parallel for schedule(static)
  for (int k = 0; k < box.nz; ++k) {
    thread_local avec<CT> rbuf;
    if (rbuf.size() < plane_dofs) {
      rbuf.resize(plane_dofs);
    }
    CT* rp = rbuf.data();
    detail::panel_lines<true>(ctx, A, fp, up, q2, k, 0, box.ny, rp, kp);
    for (int j = 0; j < box.ny; ++j) {
      const CT* rl = rp + static_cast<std::int64_t>(j) * ndof_line * kp;
      const std::int64_t base = box.idx(0, j, k);
      for (int i = 0; i < nx; ++i) {
        const std::int64_t cell = base + i;
        const CT* blk = invdiag.data() + cell * block2;
        for (int br = 0; br < bs; ++br) {
          const CT* SMG_RESTRICT urow = up + (cell * bs + br) * kp;
          CT* SMG_RESTRICT nrow = np + (cell * bs + br) * kp;
#pragma omp simd
          for (int cc = 0; cc < kp; ++cc) {
            CT acc{0};
            for (int bc = 0; bc < bs; ++bc) {
              acc += blk[br * bs + bc] *
                     rl[(static_cast<std::int64_t>(i) * bs + bc) * kp + cc];
            }
            nrow[cc] = urow[cc] + w * acc;
          }
        }
      }
    }
  }
}

}  // namespace smg
