// Fused V-cycle downstroke kernels: residual→restrict without the residual
// vector, and the residual-fused Jacobi sweep.
//
// A two-step downstroke (residual() then restrict_to_coarse()) writes the
// full fine residual r = f - A u to memory only for the restriction to
// immediately re-read it: one full-vector store plus one full-vector load
// per level per cycle, in a kernel family that is memory-bandwidth-bound
// (PAPER.md §5, Fig. 7 — matrix+vector traffic, not FLOPs, limits every
// mixed-precision kernel).  residual_restrict() removes both passes: each
// fine plane's residual is produced into a cache-resident plane buffer by
// the same line body as residual() (detail::panel_lines, kernels/spmv.hpp),
// and therefore with bitwise the same values, then gathered one coarse line
// at a time into the coarse rhs by the same line primitive as
// restrict_to_coarse() (detail::restrict_line, core/transfer.hpp), so the
// fused downstroke is bitwise identical to the two-step one
// (tests/kernels/test_fused.cpp).
//
// One driver per operation: the span calls are the one-column case of the
// *_many panel calls (kp = 1, run by a copy compiled for one column).
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

/// fc = R (f - A u) over panels of kp interleaved columns: the one driver
/// of residual_restrict and residual_restrict_many.
template <class ST, class CT>
void residual_restrict_run(const StructMat<ST>& A, const CT* fp,
                           const CT* up, const CT* q2, const Coarsening& c,
                           CT* out, int kp) {
  const Box& fine = c.fine;
  const Box& coarse = c.coarse;
  const int bs = A.block_size();
  const PanelLineCtx<ST, CT> ctx(A);
  const std::int64_t lstride = static_cast<std::int64_t>(fine.nx) * bs * kp;
  const std::size_t plane_dofs =
      static_cast<std::size_t>(lstride) * static_cast<std::size_t>(fine.ny);
  with_cols(kp, [&](auto w) {
    constexpr int kW = decltype(w)::value;
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
            panel_lines<kW, true>(ctx, A, fp, up, q2, kf, 0, fine.ny,
                                  planes[slot].data(), kp);
            held[slot] = kf;
          }
          return planes[slot].data() + j * lstride;
        };
        for (int K = k0; K < k1; ++K) {
          for (int J = 0; J < coarse.ny; ++J) {
            restrict_line(c, J, K, bs * kp, line,
                          out + coarse.idx(0, J, K) * bs * kp);
          }
        }
      }
    }
  });
}

/// unew = u + w * D^{-1} (f - A u) over panels of kp interleaved columns:
/// the one driver of jacobi_sweep_fused and jacobi_sweep_fused_many.
template <class ST, class CT>
void jacobi_run(const StructMat<ST>& A, const CT* fp, const CT* up,
                std::span<const CT> invdiag, const CT* q2, CT w, CT* np,
                int kp) {
  const Box& box = A.box();
  const int bs = A.block_size();
  const std::int64_t block2 = static_cast<std::int64_t>(bs) * bs;
  const PanelLineCtx<ST, CT> ctx(A);
  const int nx = box.nx;
  const std::int64_t ndof_line = static_cast<std::int64_t>(nx) * bs;
  const std::size_t plane_dofs = static_cast<std::size_t>(ndof_line) *
                                 static_cast<std::size_t>(box.ny) *
                                 static_cast<std::size_t>(kp);
  with_cols(kp, [&](auto wc) {
    constexpr int kW = decltype(wc)::value;
    const int ncol = kW > 0 ? kW : kp;
    // Plane-granular parallel loop: panel_lines dispatches once per plane,
    // and a plane of residuals stays cache-resident for the diagonal update.
#pragma omp parallel for schedule(static)
    for (int k = 0; k < box.nz; ++k) {
      thread_local avec<CT> rbuf;
      if (rbuf.size() < plane_dofs) {
        rbuf.resize(plane_dofs);
      }
      CT* rp = rbuf.data();
      panel_lines<kW, true>(ctx, A, fp, up, q2, k, 0, box.ny, rp, ncol);
      for (int j = 0; j < box.ny; ++j) {
        const CT* rl = rp + static_cast<std::int64_t>(j) * ndof_line * ncol;
        const std::int64_t base = box.idx(0, j, k);
        for (int i = 0; i < nx; ++i) {
          const std::int64_t cell = base + i;
          const CT* blk = invdiag.data() + cell * block2;
          for (int br = 0; br < bs; ++br) {
            const CT* SMG_RESTRICT urow = up + (cell * bs + br) * ncol;
            CT* SMG_RESTRICT nrow = np + (cell * bs + br) * ncol;
#pragma omp simd
            for (int cc = 0; cc < ncol; ++cc) {
              CT acc{0};
              for (int bc = 0; bc < bs; ++bc) {
                acc += blk[br * bs + bc] *
                       rl[(static_cast<std::int64_t>(i) * bs + bc) * ncol + cc];
              }
              nrow[cc] = urow[cc] + w * acc;
            }
          }
        }
      }
    }
  });
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
  const int bs = A.block_size();
  SMG_CHECK(A.box() == c.fine, "residual_restrict: matrix box != fine box");
  SMG_CHECK(static_cast<std::int64_t>(f.size()) == A.nrows() &&
                static_cast<std::int64_t>(u.size()) == A.nrows() &&
                static_cast<std::int64_t>(fc.size()) == c.coarse.size() * bs,
            "residual_restrict size mismatch");
  const obs::KernelSpan span(obs::Kind::ResidualRestrict);
  detail::residual_restrict_run(A, f.data(), u.data(), q2, c, fc.data(), 1);
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
  const std::int64_t block2 =
      static_cast<std::int64_t>(A.block_size()) * A.block_size();
  SMG_CHECK(static_cast<std::int64_t>(f.size()) == A.nrows() &&
                static_cast<std::int64_t>(u.size()) == A.nrows() &&
                static_cast<std::int64_t>(unew.size()) == A.nrows() &&
                static_cast<std::int64_t>(invdiag.size()) ==
                    A.ncells() * block2,
            "jacobi_sweep_fused size mismatch");
  SMG_CHECK(unew.data() != u.data(), "jacobi_sweep_fused: unew aliases u");
  const obs::KernelSpan span(obs::Kind::Jacobi);
  detail::jacobi_run(A, f.data(), u.data(), invdiag, q2, w, unew.data(), 1);
}

/// Panel fused downstroke: Fc = R (F - A U) for all columns in one matrix
/// sweep; column c is bitwise residual_restrict on that column (and
/// therefore residual_many + restrict_to_coarse_many).
template <class ST, class CT>
void residual_restrict_many(const StructMat<ST>& A, const MultiVector<CT>& f,
                            const MultiVector<CT>& u, const CT* q2,
                            const Coarsening& c, MultiVector<CT>& fc) {
  const int bs = A.block_size();
  SMG_CHECK(A.box() == c.fine,
            "residual_restrict_many: matrix box != fine box");
  SMG_CHECK(f.rows() == A.nrows() && u.rows() == A.nrows() &&
                fc.rows() == c.coarse.size() * bs &&
                f.padded_cols() == fc.padded_cols() &&
                u.padded_cols() == fc.padded_cols(),
            "residual_restrict_many size mismatch");
  const obs::KernelSpan span(obs::Kind::ResidualRestrict);
  detail::residual_restrict_run(A, f.data(), u.data(), q2, c, fc.data(),
                                f.padded_cols());
}

/// Panel fused Jacobi sweep: Unew = U + w D^{-1} (F - A U) for all columns
/// in one matrix sweep; column c is bitwise jacobi_sweep_fused.  Unew must
/// not alias U.
template <class ST, class CT>
void jacobi_sweep_fused_many(const StructMat<ST>& A, const MultiVector<CT>& f,
                             const MultiVector<CT>& u,
                             std::span<const CT> invdiag, const CT* q2, CT w,
                             MultiVector<CT>& unew) {
  const std::int64_t block2 =
      static_cast<std::int64_t>(A.block_size()) * A.block_size();
  SMG_CHECK(f.rows() == A.nrows() && u.rows() == A.nrows() &&
                unew.rows() == A.nrows() &&
                static_cast<std::int64_t>(invdiag.size()) ==
                    A.ncells() * block2 &&
                f.padded_cols() == unew.padded_cols() &&
                u.padded_cols() == unew.padded_cols(),
            "jacobi_sweep_fused_many size mismatch");
  SMG_CHECK(unew.data() != u.data(), "jacobi_sweep_fused_many: unew aliases u");
  const obs::KernelSpan span(obs::Kind::Jacobi);
  detail::jacobi_run(A, f.data(), u.data(), invdiag, q2, w, unew.data(),
                     f.padded_cols());
}

}  // namespace smg
