// Gauss-Seidel sweeps (the SymGS smoother / SpTRSV-shaped hotspot, §5).
//
// Forward sweep in lexicographic cell order; backward sweep reversed.  The
// diagonal (block) inverse is precomputed by smoother setup in compute
// precision from the *high-precision* matrix (Alg. 1 line 13); off-diagonal
// entries are read from storage precision with recover-and-rescale on the
// fly, exactly as SpMV.
//
// One driver per sweep: gs_forward / gs_backward and their panel twins
// gs_forward_many / gs_backward_many run the same line (or cell) bodies over
// panels of kp interleaved columns; a plain vector is the one-column panel,
// run by a copy compiled for one column, so its recurrence is the scalar
// loop.  Column c of a panel sweep is bitwise the one-column sweep of that
// column, which matches the per-layout reference sweeps in
// tests/kernels/kernel_oracle.hpp bit for bit.
//
// Vectorization strategy for the SOA layout (the "(opt)" variant of Fig. 7):
// every supported stencil has at most one same-line lower offset (-1,0,0) and
// one same-line upper offset (+1,0,0); all other offsets reference previous
// or later grid lines whose values are fixed for the duration of the current
// line.  Their contributions are therefore computed in a vectorized pre-pass
// (8 FP16 entries per vcvtph2ps), leaving a one-term scalar recurrence.
// The AOS path is the straightforward scalar sweep paying one convert per
// entry (the "(naive)" variant).  Mul-accumulate folds whose FP contraction
// the optimizer would otherwise resolve per vectorization context are pinned
// through detail::mul_add.
//
// Threading: every sweep accepts an optional WavefrontSchedule.  A valid
// schedule runs the same per-line (per-cell for AOS) bodies level by level
// with the items of one level in an `omp for` — each item only ever reads
// items of strictly earlier (fully updated) or strictly later (untouched)
// levels, so the parallel sweep is *bitwise identical* to the sequential
// one at any thread count (see grid/wavefront.hpp for the level function).
// A null or invalid schedule, or one of the wrong granularity, falls back
// to the plain sequential sweep.
#pragma once

#include <span>
#include <vector>

#include "grid/wavefront.hpp"
#include "kernels/loops.hpp"
#include "kernels/spmv.hpp"
#include "sgdia/struct_matrix.hpp"
#include "util/aligned.hpp"
#include "util/common.hpp"

namespace smg {

namespace detail {

/// Multiply the bs x bs row-major block at `blk` with vector `v`.
template <class CT>
inline void block_apply(const CT* blk, const CT* v, CT* out, int bs) noexcept {
  for (int br = 0; br < bs; ++br) {
    CT acc{0};
    for (int bc = 0; bc < bs; ++bc) {
      acc = mul_add(blk[br * bs + bc], v[bc], acc);
    }
    out[br] = acc;
  }
}

/// True if `wf` can drive a level-scheduled sweep at this granularity.
inline bool wf_usable(const WavefrontSchedule* wf,
                      WfGranularity gran) noexcept {
  return wf != nullptr && wf->valid() && wf->granularity() == gran;
}

/// Run `body(item)` over every scheduled item, level by level (reversed for
/// the backward sweep); items of one level run in parallel.  One parallel
/// region covers the whole sweep — the per-level `omp for` barrier is the
/// only synchronization.
template <bool kForward, class Body>
inline void run_wavefront(const WavefrontSchedule& wf, const Body& body) {
  const int nlev = wf.nlevels();
#pragma omp parallel
  for (int s = 0; s < nlev; ++s) {
    const auto lv = wf.level(kForward ? s : nlev - 1 - s);
    const std::int64_t nl = static_cast<std::int64_t>(lv.size());
#pragma omp for schedule(static)
    for (std::int64_t t = 0; t < nl; ++t) {
      body(lv[static_cast<std::size_t>(t)]);
    }
  }
}

/// Run `body(j, k)` over all grid lines: wavefront-parallel when a usable
/// line-granularity schedule is supplied, sequential sweep order otherwise.
template <bool kForward, class Body>
inline void run_lines(const Box& box, const WavefrontSchedule* wf,
                      const Body& body) {
  if (wf_usable(wf, WfGranularity::Line)) {
    run_wavefront<kForward>(*wf, [&](std::int32_t line) {
      body(static_cast<int>(line % box.ny), static_cast<int>(line / box.ny));
    });
    return;
  }
  const int k0 = kForward ? 0 : box.nz - 1;
  const int kstep = kForward ? 1 : -1;
  for (int k = k0; k >= 0 && k < box.nz; k += kstep) {
    const int j0 = kForward ? 0 : box.ny - 1;
    for (int j = j0; j >= 0 && j < box.ny; j += kstep) {
      body(j, k);
    }
  }
}

/// uq = q2 .* u row-wise over kp interleaved columns: the scaled sweeps keep
/// this copy current so their pre-pass reads a single operand.
template <int kW, class CT>
inline void scale_rows(const CT* SMG_RESTRICT q2, const CT* SMG_RESTRICT u,
                       CT* SMG_RESTRICT uq, std::int64_t rows, int kp_rt) {
  const int kp = kW > 0 ? kW : kp_rt;
#pragma omp parallel for schedule(static)
  for (std::int64_t r = 0; r < rows; ++r) {
    const CT qv = q2[r];
    const CT* SMG_RESTRICT ur = u + r * kp;
    CT* SMG_RESTRICT qr = uq + r * kp;
#pragma omp simd
    for (int c = 0; c < kp; ++c) {
      qr[c] = qv * ur[c];
    }
  }
}

/// Line-buffered sweep for SOA-family scalar (bs == 1) matrices.
template <bool kForward, int kW, class ST, class CT>
void gs_lines(const StructMat<ST>& A, const CT* SMG_RESTRICT f, CT* u,
              int kp_rt, std::span<const CT> invdiag,
              const CT* SMG_RESTRICT q2, const WavefrontSchedule* wf) {
  const int kp = kW > 0 ? kW : kp_rt;
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
  // pre-pass reads a single operand (one load + fma per entry, same as the
  // unscaled sweep).  The buffer is owned by the calling thread; worker
  // threads of a wavefront sweep share it through the captured pointer
  // (each line only writes its own entries).
  thread_local avec<CT> uqbuf;
  const CT* uread = u;
  CT* uq = nullptr;
  if (q2 != nullptr) {
    uqbuf.resize(static_cast<std::size_t>(A.nrows()) * kp);
    scale_rows<kW>(q2, u, uqbuf.data(), A.nrows(), kp);
    uq = uqbuf.data();
    uread = uq;
  }

  const auto line_body = [&](int j, int k) {
    thread_local avec<CT> accbuf;
    accbuf.resize(static_cast<std::size_t>(box.nx) * kp);
    CT* SMG_RESTRICT acc = accbuf.data();

    const std::int64_t base = box.idx(0, j, k);
    const std::int64_t line = j + static_cast<std::int64_t>(box.ny) * k;
    for (std::int64_t q = 0; q < static_cast<std::int64_t>(box.nx) * kp; ++q) {
      acc[q] = CT{0};
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
      panel_diag_fma<false, false>(
          a + r.ilo, uread + (xoff + r.ilo) * kp,
          static_cast<const CT*>(nullptr),
          acc + static_cast<std::int64_t>(r.ilo) * kp, r.ihi - r.ilo, kp);
    }
    // Scalar recurrence along the line (per column).
    const ST* arec = recur_d >= 0
                         ? line_diag_ptr(vals, layout, base, line, recur_d,
                                         nd, ncells, box.nx)
                         : nullptr;
    const int i0 = kForward ? 0 : box.nx - 1;
    const int istep = kForward ? 1 : -1;
    for (int i = i0; i >= 0 && i < box.nx; i += istep) {
      const int inbr = i + recur_dx;
      const bool hasrec = arec != nullptr && inbr >= 0 && inbr < box.nx;
      const CT arecv = hasrec ? widen1<CT>(arec[i]) : CT{0};
      const CT* urd = hasrec ? uread + (base + inbr) * kp : nullptr;
      const CT* SMG_RESTRICT accr = acc + static_cast<std::int64_t>(i) * kp;
      const CT* SMG_RESTRICT fr = f + (base + i) * kp;
      CT* ur = u + (base + i) * kp;
      CT* uqr = uq != nullptr ? uq + (base + i) * kp : nullptr;
      const CT qcell = q2 != nullptr ? q2[base + i] : CT{0};
      const CT idv = invdiag[static_cast<std::size_t>(base + i)];
#pragma omp simd
      for (int c = 0; c < kp; ++c) {
        CT s = accr[c];
        if (hasrec) {
          s = mul_add(arecv, urd[c], s);
        }
        CT rhs = fr[c];
        if (q2 != nullptr) {
          rhs = mul_add(-qcell, s, rhs);
        } else {
          rhs -= s;
        }
        const CT unew = idv * rhs;
        ur[c] = unew;
        if (uqr != nullptr) {
          uqr[c] = qcell * unew;
        }
      }
    }
  };

  run_lines<kForward>(box, wf, line_body);
}

/// Line-buffered sweep for SOA-family block (bs > 1) matrices: per (line,
/// diagonal) the stored blocks are widened once, in stack chunks of whole
/// blocks, the off-line contributions accumulate into a per-line buffer,
/// and only the one same-line offset stays in the per-cell recurrence — the
/// block analogue of gs_lines.
template <bool kForward, int kW, class ST, class CT>
void gs_block_lines(const StructMat<ST>& A, const CT* SMG_RESTRICT f, CT* u,
                    int kp_rt, std::span<const CT> invdiag,
                    const CT* SMG_RESTRICT q2, const WavefrontSchedule* wf) {
  const int kp = kW > 0 ? kW : kp_rt;
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
  SMG_CHECK(bs <= kMaxBs, "block size > 8 unsupported");
  const int cchunk = kWidenChunk / static_cast<int>(block2);

  const int recur_d = kForward ? st.find(-1, 0, 0) : st.find(+1, 0, 0);
  const int recur_dx = kForward ? -1 : +1;

  // Scaled recovery: maintain uq = q2 .* u incrementally (updated together
  // with u in the recurrence) so the hot off-line pass reads one operand
  // instead of paying a load + multiply per matrix entry.  Shared across
  // wavefront workers exactly like the scalar path's buffer.
  thread_local avec<CT> uqbuf;
  const CT* uread = u;
  CT* uq = nullptr;
  if (q2 != nullptr) {
    uqbuf.resize(static_cast<std::size_t>(A.nrows()) * kp);
    scale_rows<kW>(q2, u, uqbuf.data(), A.nrows(), kp);
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
    thread_local avec<CT> accbuf;
    accbuf.resize(static_cast<std::size_t>(nx) * bs * kp);
    CT* SMG_RESTRICT acc = accbuf.data();
    alignas(32) CT cbuf[kWidenChunk];
    CT s[kMaxBs];
    CT upd[kMaxBs];

    const std::int64_t base = box.idx(0, j, k);
    const std::int64_t line = j + static_cast<std::int64_t>(box.ny) * k;
    for (std::int64_t q = 0; q < static_cast<std::int64_t>(nx) * bs * kp;
         ++q) {
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
      const ST* araw = run_ptr(base, line, d);
      const std::int64_t xoff = (base + r.shift) * bs;
      for (int i0 = r.ilo; i0 < r.ihi; i0 += cchunk) {
        const int i1 = std::min(r.ihi, i0 + cchunk);
        const CT* coef = widen_chunk<CT>(
            araw + i0 * block2, static_cast<int>((i1 - i0) * block2), cbuf);
        for (int i = i0; i < i1; ++i) {
          const CT* blk = coef + (i - i0) * block2;
          const std::int64_t xrow = xoff + static_cast<std::int64_t>(i) * bs;
          for (int br = 0; br < bs; ++br) {
            CT* SMG_RESTRICT av =
                acc + (static_cast<std::int64_t>(i) * bs + br) * kp;
#pragma omp simd
            for (int c = 0; c < kp; ++c) {
              CT a2{0};
              for (int bc = 0; bc < bs; ++bc) {
                a2 = mul_add(blk[br * bs + bc], uread[(xrow + bc) * kp + c],
                             a2);
              }
              av[c] += a2;
            }
          }
        }
      }
    }
    // Per-cell recurrence with the same-line coupling block.
    const ST* rec = recur_d >= 0 ? run_ptr(base, line, recur_d) : nullptr;
    const int i0 = kForward ? 0 : nx - 1;
    const int istep = kForward ? 1 : -1;
    for (int i = i0; i >= 0 && i < nx; i += istep) {
      const std::int64_t cell = base + i;
      const int inbr = i + recur_dx;
      const bool hasrec = rec != nullptr && inbr >= 0 && inbr < nx;
      const CT* blkrec =
          hasrec ? widen_chunk<CT>(rec + i * block2,
                                   static_cast<int>(block2), cbuf)
                 : nullptr;
      for (int c = 0; c < kp; ++c) {
        for (int br = 0; br < bs; ++br) {
          s[br] = acc[(static_cast<std::int64_t>(i) * bs + br) * kp + c];
        }
        if (hasrec) {
          for (int br = 0; br < bs; ++br) {
            CT a2{0};
            for (int bc = 0; bc < bs; ++bc) {
              a2 = mul_add(blkrec[br * bs + bc],
                           uread[((base + inbr) * bs + bc) * kp + c], a2);
            }
            s[br] += a2;
          }
        }
        for (int br = 0; br < bs; ++br) {
          CT rhs = f[(cell * bs + br) * kp + c];
          if (q2 != nullptr) {
            rhs = mul_add(-q2[cell * bs + br], s[br], rhs);
          } else {
            rhs -= s[br];
          }
          s[br] = rhs;
        }
        block_apply(invdiag.data() + cell * block2, s, upd, bs);
        for (int br = 0; br < bs; ++br) {
          u[(cell * bs + br) * kp + c] = upd[br];
          if (uq != nullptr) {
            uq[(cell * bs + br) * kp + c] = q2[cell * bs + br] * upd[br];
          }
        }
      }
    }
  };

  run_lines<kForward>(box, wf, line_body);
}

/// Scalar Gauss-Seidel sweep over all cells (AOS, the "naive" path for
/// 2-byte storage), one convert per entry; parallelized at cell granularity
/// by a Cell wavefront schedule.
template <bool kForward, int kW, class ST, class CT>
void gs_cells(const StructMat<ST>& A, const CT* SMG_RESTRICT f, CT* u,
              int kp_rt, std::span<const CT> invdiag,
              const CT* SMG_RESTRICT q2, const WavefrontSchedule* wf) {
  const int kp = kW > 0 ? kW : kp_rt;
  const Box& box = A.box();
  const Stencil& st = A.stencil();
  const int bs = A.block_size();
  const int nd = st.ndiag();
  const int center = st.center();
  SMG_CHECK(center >= 0, "GS sweep needs a diagonal entry");
  SMG_CHECK(bs <= kMaxBs, "block size > 8 unsupported");
  const std::int64_t block2 = static_cast<std::int64_t>(bs) * bs;

  const auto cell_body = [&](int i, int j, int k) {
    CT acc[kMaxBs] = {};
    CT upd[kMaxBs];
    const std::int64_t cell = box.idx(i, j, k);
    for (int c = 0; c < kp; ++c) {
      for (int br = 0; br < bs; ++br) {
        acc[br] = f[(cell * bs + br) * kp + c];
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
            CT xv = u[(nbr * bs + bc) * kp + c];
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
        u[(cell * bs + br) * kp + c] = upd[br];
      }
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

/// The one sweep driver: layout / block-size dispatch over panels of kp
/// interleaved columns (kp = 1 for plain vectors).
template <bool kForward, class ST, class CT>
void gs_sweep(const StructMat<ST>& A, const CT* f, CT* u, int kp,
              std::span<const CT> invdiag, const CT* q2,
              const WavefrontSchedule* wf) {
  with_cols(kp, [&](auto w) {
    constexpr int kW = decltype(w)::value;
    if (A.layout() == Layout::AOS) {
      gs_cells<kForward, kW>(A, f, u, kp, invdiag, q2, wf);
    } else if (A.block_size() == 1) {
      gs_lines<kForward, kW>(A, f, u, kp, invdiag, q2, wf);
    } else {
      gs_block_lines<kForward, kW>(A, f, u, kp, invdiag, q2, wf);
    }
  });
}

}  // namespace detail

/// One forward Gauss-Seidel sweep: u <- (D + L)^{-1} (f - U u).
/// For lower-triangular-pattern matrices this *is* SpTRSV.
/// A usable wavefront schedule (line granularity for SOA/SOAL, cell for AOS)
/// runs the sweep level-parallel with bitwise-identical results; otherwise
/// the sweep is sequential.
template <class ST, class CT>
void gs_forward(const StructMat<ST>& A, std::span<const CT> f, std::span<CT> u,
                std::span<const CT> invdiag, const CT* q2 = nullptr,
                const WavefrontSchedule* wf = nullptr) {
  const obs::KernelSpan span(obs::Kind::SymGS);
  detail::gs_sweep<true>(A, f.data(), u.data(), 1, invdiag, q2, wf);
}

/// One backward Gauss-Seidel sweep: u <- (D + U)^{-1} (f - L u).
template <class ST, class CT>
void gs_backward(const StructMat<ST>& A, std::span<const CT> f,
                 std::span<CT> u, std::span<const CT> invdiag,
                 const CT* q2 = nullptr,
                 const WavefrontSchedule* wf = nullptr) {
  const obs::KernelSpan span(obs::Kind::SymGS);
  detail::gs_sweep<false>(A, f.data(), u.data(), 1, invdiag, q2, wf);
}

/// One forward Gauss-Seidel sweep over all columns of the panel in one pass
/// of the stored matrix; column c is bitwise gs_forward on that column.
template <class ST, class CT>
void gs_forward_many(const StructMat<ST>& A, const MultiVector<CT>& f,
                     MultiVector<CT>& u, std::span<const CT> invdiag,
                     const CT* q2 = nullptr,
                     const WavefrontSchedule* wf = nullptr) {
  const obs::KernelSpan span(obs::Kind::SymGS);
  detail::gs_sweep<true>(A, f.data(), u.data(), u.padded_cols(), invdiag, q2,
                         wf);
}

/// One backward Gauss-Seidel panel sweep; column c is bitwise gs_backward.
template <class ST, class CT>
void gs_backward_many(const StructMat<ST>& A, const MultiVector<CT>& f,
                      MultiVector<CT>& u, std::span<const CT> invdiag,
                      const CT* q2 = nullptr,
                      const WavefrontSchedule* wf = nullptr) {
  const obs::KernelSpan span(obs::Kind::SymGS);
  detail::gs_sweep<false>(A, f.data(), u.data(), u.padded_cols(), invdiag,
                          q2, wf);
}

}  // namespace smg
