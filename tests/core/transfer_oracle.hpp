// Reference transfer kernels for the transfer tests: the per-point
// gather-form restriction and prolongation (each point looks up its children
// or parents and folds a variable-count (a, b, cidx) triple loop with a
// per-term double weight product), and the serial scatter-form restriction.
// The line-form kernels in core/transfer.hpp must match the gather forms
// bit for bit; the scatter form agrees with them to rounding.
#pragma once

#include <cstdint>
#include <span>

#include "core/transfer.hpp"
#include "util/common.hpp"

namespace smg::oracle {

/// f_c = R r_f with R = P^T, in gather form: coarse dof (I,J,K) sums
/// w * r(2I + t, ...) over its fine children.  Each coarse dof is written by
/// exactly one iteration, so the loop parallelizes race-free — the scatter
/// form (fine points adding into shared parents) cannot, because up to eight
/// fine points contend on one coarse accumulator.  Vectors are dof-indexed
/// (block size bs).  The child-gather order here is the contract the fused
/// residual_restrict (kernels/fused.hpp) reproduces bitwise.
template <class CT>
void restrict_to_coarse(const Coarsening& c, int bs, std::span<const CT> rf,
                        std::span<CT> fc) {
  const Box& fine = c.fine;
  const Box& coarse = c.coarse;
  SMG_CHECK(static_cast<std::int64_t>(rf.size()) == fine.size() * bs &&
                static_cast<std::int64_t>(fc.size()) == coarse.size() * bs,
            "restrict size mismatch");
  const double rscale = c.restrict_scale();
#pragma omp parallel for collapse(2) schedule(static)
  for (int K = 0; K < coarse.nz; ++K) {
    for (int J = 0; J < coarse.ny; ++J) {
      const auto ck = detail::children_of(K, fine.nz, c.mask[2]);
      const auto cj = detail::children_of(J, fine.ny, c.mask[1]);
      for (int I = 0; I < coarse.nx; ++I) {
        const auto ci = detail::children_of(I, fine.nx, c.mask[0]);
        CT* SMG_RESTRICT dst = fc.data() + coarse.idx(I, J, K) * bs;
        for (int br = 0; br < bs; ++br) {
          CT acc{0};
          for (int a = 0; a < ck.count; ++a) {
            for (int b = 0; b < cj.count; ++b) {
              for (int cidx = 0; cidx < ci.count; ++cidx) {
                const double w = rscale * ck.w[a] * cj.w[b] * ci.w[cidx];
                const std::int64_t fcell =
                    fine.idx(ci.idx[cidx], cj.idx[b], ck.idx[a]);
                acc += static_cast<CT>(w) * rf[fcell * bs + br];
              }
            }
          }
          dst[br] = acc;
        }
      }
    }
  }
}

/// Reference scatter formulation of the same operator (iterate fine points,
/// add into their parents).  Serial by necessity — kept as the ground truth
/// the gather form is tested against; not used on the solve path.
template <class CT>
void restrict_to_coarse_scatter(const Coarsening& c, int bs,
                                std::span<const CT> rf, std::span<CT> fc) {
  const Box& fine = c.fine;
  const Box& coarse = c.coarse;
  SMG_CHECK(static_cast<std::int64_t>(rf.size()) == fine.size() * bs &&
                static_cast<std::int64_t>(fc.size()) == coarse.size() * bs,
            "restrict size mismatch");
  for (auto& v : fc) {
    v = CT{0};
  }
  const double rscale = c.restrict_scale();
  for (int k = 0; k < fine.nz; ++k) {
    const auto pk = detail::parents_of(k, coarse.nz, c.mask[2]);
    for (int j = 0; j < fine.ny; ++j) {
      const auto pj = detail::parents_of(j, coarse.ny, c.mask[1]);
      for (int i = 0; i < fine.nx; ++i) {
        const auto pi = detail::parents_of(i, coarse.nx, c.mask[0]);
        const std::int64_t fcell = fine.idx(i, j, k);
        for (int a = 0; a < pk.count; ++a) {
          for (int b = 0; b < pj.count; ++b) {
            for (int cidx = 0; cidx < pi.count; ++cidx) {
              const double w = rscale * pk.w[a] * pj.w[b] * pi.w[cidx];
              const std::int64_t ccell =
                  coarse.idx(pi.idx[cidx], pj.idx[b], pk.idx[a]);
              for (int br = 0; br < bs; ++br) {
                fc[ccell * bs + br] +=
                    static_cast<CT>(w) * rf[fcell * bs + br];
              }
            }
          }
        }
      }
    }
  }
}

/// u_f += P e_c: each fine point gathers from its coarse parents.  Already
/// gather-form (fine-point-centric), so line-parallelism is free; the
/// per-point accumulation order is unchanged, making the result bitwise
/// identical at any thread count.
template <class CT>
void prolong_add(const Coarsening& c, int bs, std::span<const CT> ec,
                 std::span<CT> uf) {
  const Box& fine = c.fine;
  const Box& coarse = c.coarse;
  SMG_CHECK(static_cast<std::int64_t>(uf.size()) == fine.size() * bs &&
                static_cast<std::int64_t>(ec.size()) == coarse.size() * bs,
            "prolong size mismatch");
#pragma omp parallel for collapse(2) schedule(static)
  for (int k = 0; k < fine.nz; ++k) {
    for (int j = 0; j < fine.ny; ++j) {
      const auto pk = detail::parents_of(k, coarse.nz, c.mask[2]);
      const auto pj = detail::parents_of(j, coarse.ny, c.mask[1]);
      for (int i = 0; i < fine.nx; ++i) {
        const auto pi = detail::parents_of(i, coarse.nx, c.mask[0]);
        const std::int64_t fcell = fine.idx(i, j, k);
        for (int br = 0; br < bs; ++br) {
          CT acc{0};
          for (int a = 0; a < pk.count; ++a) {
            for (int b = 0; b < pj.count; ++b) {
              for (int cidx = 0; cidx < pi.count; ++cidx) {
                const double w = pk.w[a] * pj.w[b] * pi.w[cidx];
                const std::int64_t ccell =
                    coarse.idx(pi.idx[cidx], pj.idx[b], pk.idx[a]);
                acc += static_cast<CT>(w) * ec[ccell * bs + br];
              }
            }
          }
          uf[fcell * bs + br] += acc;
        }
      }
    }
  }
}

}  // namespace smg::oracle
