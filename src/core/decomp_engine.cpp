#include "core/decomp_engine.hpp"

#include <algorithm>
#include <utility>

#include "core/cycle.hpp"
#include "core/mg_precond.hpp"
#include "core/transfer.hpp"
#include "kernels/blas1.hpp"
#include "kernels/fused.hpp"
#include "kernels/spmv.hpp"
#include "kernels/symgs.hpp"
#include "obs/telemetry.hpp"
#include "perfmodel/halo.hpp"
#include "util/timer.hpp"

namespace smg {

namespace {

/// Extract box `s`'s local matrix from the level's global stored matrix:
/// interior rows are copied verbatim (every neighbor of an interior cell is
/// inside interior+ghost because the ghost width covers the stencil radius,
/// and at the clipped global boundary local bounds coincide with global
/// bounds — so the out-of-box-zero invariant carries over), ghost rows are
/// identity (diag 1 — exactly representable in every storage precision —
/// and zero elsewhere, which the zero-initializing constructor provides).
template <class ST>
AnyMat make_local_matrix(const StructMat<ST>& g, const SubBox& s) {
  StructMat<ST> m(s.local(), g.stencil(), g.block_size(), g.layout());
  const int bs = g.block_size();
  const int nd = g.stencil().ndiag();
  const int cd = g.stencil().center();
  SMG_CHECK(cd >= 0, "decomposed level matrix needs a center diagonal");
  const Box lb = s.local();
  const ST one = static_cast<ST>(1.0f);
  for (int k = 0; k < lb.nz; ++k) {
    const int gk = k + s.off(2);
    const bool kin = gk >= s.lo[2] && gk < s.lo[2] + s.n[2];
    for (int j = 0; j < lb.ny; ++j) {
      const int gj = j + s.off(1);
      const bool jin = gj >= s.lo[1] && gj < s.lo[1] + s.n[1];
      for (int i = 0; i < lb.nx; ++i) {
        const int gi = i + s.off(0);
        const bool interior =
            kin && jin && gi >= s.lo[0] && gi < s.lo[0] + s.n[0];
        if (interior) {
          for (int d = 0; d < nd; ++d) {
            for (int br = 0; br < bs; ++br) {
              for (int bc = 0; bc < bs; ++bc) {
                m.at_ijk(i, j, k, d, br, bc) =
                    g.at_ijk(gi, gj, gk, d, br, bc);
              }
            }
          }
        } else {
          for (int br = 0; br < bs; ++br) {
            m.at_ijk(i, j, k, cd, br, br) = one;
          }
        }
      }
    }
  }
  return AnyMat(std::move(m));
}

/// Per-box restriction: coarse box `cs`'s interior dofs gather their fine
/// children from fine box `fs`'s interior+ghost storage through the same
/// line primitive as restrict_to_coarse, on global x indices, so each
/// coarse dof's value is bitwise identical to the global kernel's.
template <class CT>
void boxed_restrict(const Coarsening& c, int bs, const SubBox& fs,
                    const CT* rf, const SubBox& cs, CT* fc) {
  const Box fl = fs.local();
  const Box cl = cs.local();
  const auto line = [&](int j, int k) {
    return rf + fl.idx(0, j - fs.off(1), k - fs.off(2)) * bs;
  };
  for (int K = cs.lo[2]; K < cs.lo[2] + cs.n[2]; ++K) {
    for (int J = cs.lo[1]; J < cs.lo[1] + cs.n[1]; ++J) {
      detail::restrict_line(
          c, J, K, bs, cs.lo[0], cs.lo[0] + cs.n[0], fs.off(0), line,
          fc + cl.idx(cs.lo[0] - cs.off(0), J - cs.off(1), K - cs.off(2)) *
                   bs);
    }
  }
}

/// Per-box prolongation: fine box `fs`'s interior dofs gather their coarse
/// parents from the coarse storage box `cl` (a sub-box's local box shifted
/// by `coff`, or the global coarse box with coff = 0 across the
/// agglomeration boundary) through the same line primitive as prolong_add;
/// x parity is that of the global index, so every fine dof is bitwise
/// identical to the global kernel's.
template <class CT>
void boxed_prolong_add(const Coarsening& c, int bs, const CT* ec,
                       const Box& cl, const std::array<int, 3>& coff,
                       const SubBox& fs, CT* uf) {
  const Box fl = fs.local();
  const auto line = [&](int J, int K) {
    return ec + cl.idx(0, J - coff[1], K - coff[2]) * bs;
  };
  for (int k = fs.lo[2]; k < fs.lo[2] + fs.n[2]; ++k) {
    for (int j = fs.lo[1]; j < fs.lo[1] + fs.n[1]; ++j) {
      detail::prolong_line(
          c, j, k, bs, fs.lo[0], fs.lo[0] + fs.n[0], coff[0], line,
          uf + fl.idx(fs.lo[0] - fs.off(0), j - fs.off(1), k - fs.off(2)) *
                   bs);
    }
  }
}

}  // namespace

template <class CT>
DecompEngine<CT>::DecompEngine(const MGHierarchy* h, std::array<int, 3> nb,
                               bool halo_fp16)
    : h_(h), pool_(&ThreadPool::global()) {
  wire_bytes_ = halo_fp16 ? sizeof(half) : sizeof(CT);
  const std::vector<BoxDecomp> chain =
      decomp_chain(*h_, nb, h_->config().decomp_min_box);
  levels_.resize(chain.size());
  for (std::size_t l = 0; l < chain.size(); ++l) {
    levels_[l].decomp = chain[l];
    levels_[l].boxed = chain[l].decomposed();
  }
  if (!active()) {
    return;  // the problem agglomerated away — caller falls back
  }
  for (int l = 0; l < h_->nlevels(); ++l) {
    build_level(l);
  }
  // Service metrics: register the boxed levels' halo series once (cold
  // path) and pin the perfmodel's exact bytes-per-exchange prediction next
  // to the measured counters, so a scrape can check achieved == model.
  if (obs::metrics_enabled()) {
    const std::vector<HaloLevelModel> model =
        model_halo(*h_, nb, h_->config().decomp_min_box);
    for (std::size_t l = 0; l < levels_.size(); ++l) {
      if (!levels_[l].boxed) {
        continue;
      }
      levels_[l].metrics = obs::halo_level_metrics(static_cast<int>(l));
      if (l < model.size() &&
          levels_[l].metrics.model_bytes_per_exchange != nullptr) {
        levels_[l].metrics.model_bytes_per_exchange->set(
            static_cast<double>(model[l].values_per_exchange) *
            static_cast<double>(wire_bytes_));
      }
    }
  }
}

template <class CT>
void DecompEngine<CT>::build_level(int l) {
  DLevel& D = levels_[static_cast<std::size_t>(l)];
  if (!D.boxed) {
    return;  // runs on MGPrecond's single-vector storage
  }
  const Level& hl = h_->level(l);
  if (!levels_[static_cast<std::size_t>(l) + 1].boxed) {
    gather_.assign(static_cast<std::size_t>(hl.A_full.nrows()), CT{0});
  }
  D.plan = HaloPlan(D.decomp, hl.A_full.block_size());
  D.hx.init(&D.plan, wire_bytes_);
  D.boxes.clear();
  D.boxes.resize(static_cast<std::size_t>(D.decomp.nboxes()));
  pool_->run(D.decomp.nboxes(), [&](int b) { build_box(l, b); });
}

template <class CT>
void DecompEngine<CT>::build_box(int l, int b) {
  const Level& hl = h_->level(l);
  DLevel& D = levels_[static_cast<std::size_t>(l)];
  const SubBox& s = D.decomp.box(b);
  BoxData& bd = D.boxes[static_cast<std::size_t>(b)];
  const Box lb = s.local();
  const int bs = hl.A_full.block_size();
  const std::int64_t block2 = static_cast<std::int64_t>(bs) * bs;
  const std::size_t nloc = static_cast<std::size_t>(lb.size()) * bs;
  const Box& g = hl.A_full.box();

  bd.u.assign(nloc, CT{0});
  bd.f.assign(nloc, CT{0});
  bd.r.assign(nloc, CT{0});

  hl.A_stored.visit(
      [&](const auto& gm) { bd.A = make_local_matrix(gm, s); });

  // Smoother diagonal-block inverses: interior blocks converted from the
  // level's FP64 inverses, identity blocks at ghosts.
  bd.invdiag.assign(static_cast<std::size_t>(lb.size() * block2), CT{0});
  for (std::int64_t cell = 0; cell < lb.size(); ++cell) {
    CT* blk = bd.invdiag.data() + cell * block2;
    for (int br = 0; br < bs; ++br) {
      blk[br * bs + br] = CT{1};
    }
  }
  for (int ik = 0; ik < s.n[2]; ++ik) {
    for (int ij = 0; ij < s.n[1]; ++ij) {
      for (int ii = 0; ii < s.n[0]; ++ii) {
        const std::int64_t lcell = s.local_idx(ii, ij, ik);
        const std::int64_t gcell =
            g.idx(s.lo[0] + ii, s.lo[1] + ij, s.lo[2] + ik);
        for (std::int64_t q = 0; q < block2; ++q) {
          bd.invdiag[static_cast<std::size_t>(lcell * block2 + q)] =
              static_cast<CT>(hl.invdiag[static_cast<std::size_t>(
                  gcell * block2 + q)]);
        }
      }
    }
  }

  // Scaled levels: the global q2 at every local cell, ghosts included —
  // interior rows scale their ghost neighbours' values by q2_j.
  bd.q2.clear();
  if (hl.scaled) {
    bd.q2.resize(nloc);
    for (int k = 0; k < lb.nz; ++k) {
      for (int j = 0; j < lb.ny; ++j) {
        for (int i = 0; i < lb.nx; ++i) {
          const std::int64_t lrow = lb.idx(i, j, k) * bs;
          const std::int64_t grow =
              g.idx(i + s.off(0), j + s.off(1), k + s.off(2)) * bs;
          for (int c = 0; c < bs; ++c) {
            bd.q2[static_cast<std::size_t>(lrow + c)] =
                static_cast<CT>(hl.q2[static_cast<std::size_t>(grow + c)]);
          }
        }
      }
    }
  }
}

template <class CT>
void DecompEngine<CT>::refresh_level(int l) {
  DLevel& D = levels_[static_cast<std::size_t>(l)];
  if (D.boxed) {
    pool_->run(D.decomp.nboxes(), [&](int b) { build_box(l, b); });
  }
}

template <class CT>
void DecompEngine<CT>::exchange(int lev, avec<CT> BoxData::*field_ptr) {
  DLevel& D = levels_[static_cast<std::size_t>(lev)];
  const obs::LevelScope ls(lev);
  std::vector<BoxData>& boxes = D.boxes;
  const std::function<CT*(int)> field = [&boxes, field_ptr](int b) -> CT* {
    return (boxes[static_cast<std::size_t>(b)].*field_ptr).data();
  };
  const bool metered =
      D.metrics.wire_bytes != nullptr && obs::metrics_enabled();
  double pack_seconds = 0.0;
  double unpack_seconds = 0.0;
  {
    const obs::KernelSpan span(obs::Kind::HaloPack);
    const Timer t;
    D.hx.template pack_and_transport<CT>(field, *pool_, ex_);
    if (metered) {
      pack_seconds = t.seconds();
    }
  }
  {
    const obs::KernelSpan span(obs::Kind::HaloUnpack);
    const Timer t;
    D.hx.template unpack<CT>(field, *pool_);
    if (metered) {
      unpack_seconds = t.seconds();
    }
  }
  if (obs::Telemetry* t = obs::current()) {
    t->record_halo(lev, D.hx.bytes_per_exchange());
  }
  if (metered) {
    D.metrics.wire_bytes->add(
        static_cast<double>(D.hx.bytes_per_exchange()));
    D.metrics.exchanges->inc();
    D.metrics.pack_seconds->add(pack_seconds);
    D.metrics.unpack_seconds->add(unpack_seconds);
  }
}

template <class CT>
void DecompEngine<CT>::refresh_ghost_rhs(int lev, int b) {
  DLevel& D = levels_[static_cast<std::size_t>(lev)];
  const SubBox& s = D.decomp.box(b);
  const Box lb = s.local();
  if (lb.size() == s.interior_cells()) {
    return;  // clipped on all sides: no ghosts
  }
  BoxData& bd = D.boxes[static_cast<std::size_t>(b)];
  const int bs = h_->level(lev).A_full.block_size();
  // SymGS never reads the ghost diagonal: f_g := u_g.  Jacobi's residual
  // includes the q2-scaled identity diagonal: f_g := q2_g * (q2_g * u_g).
  const CT* q2 = h_->config().smoother == SmootherType::Jacobi &&
                         !bd.q2.empty()
                     ? bd.q2.data()
                     : nullptr;
  for (int k = 0; k < lb.nz; ++k) {
    const bool kin = k >= s.glo[2] && k < s.glo[2] + s.n[2];
    for (int j = 0; j < lb.ny; ++j) {
      const bool jin = kin && j >= s.glo[1] && j < s.glo[1] + s.n[1];
      for (int i = 0; i < lb.nx; ++i) {
        if (jin && i >= s.glo[0] && i < s.glo[0] + s.n[0]) {
          continue;  // interior row: keep the real rhs
        }
        const std::int64_t row = lb.idx(i, j, k) * bs;
        for (int c = 0; c < bs; ++c) {
          const std::size_t d = static_cast<std::size_t>(row + c);
          bd.f[d] = q2 == nullptr ? bd.u[d] : q2[d] * (q2[d] * bd.u[d]);
        }
      }
    }
  }
}

template <class CT>
void DecompEngine<CT>::copy_interiors(int lev, avec<CT> BoxData::*field,
                                      CT* global, bool to_boxes) {
  DLevel& D = levels_[static_cast<std::size_t>(lev)];
  const Level& hl = h_->level(lev);
  const Box& g = hl.A_full.box();
  const int bs = hl.A_full.block_size();
  pool_->run(D.decomp.nboxes(), [&](int b) {
    const SubBox& s = D.decomp.box(b);
    CT* local = (D.boxes[static_cast<std::size_t>(b)].*field).data();
    const std::int64_t nv = static_cast<std::int64_t>(s.n[0]) * bs;
    for (int ik = 0; ik < s.n[2]; ++ik) {
      for (int ij = 0; ij < s.n[1]; ++ij) {
        CT* lrow = local + s.local_idx(0, ij, ik) * bs;
        CT* grow = global + g.idx(s.lo[0], s.lo[1] + ij, s.lo[2] + ik) * bs;
        if (to_boxes) {
          std::copy(grow, grow + nv, lrow);
        } else {
          std::copy(lrow, lrow + nv, grow);
        }
      }
    }
  });
}

template <class CT>
void DecompEngine<CT>::zero(int l) {
  if (!boxed(l)) {
    plain_->zero(l);
    return;
  }
  DLevel& D = levels_[static_cast<std::size_t>(l)];
  pool_->run(D.decomp.nboxes(), [&](int b) {
    BoxData& bd = D.boxes[static_cast<std::size_t>(b)];
    set_zero(std::span<CT>{bd.u.data(), bd.u.size()});
  });
}

template <class CT>
void DecompEngine<CT>::smooth(int l, bool forward) {
  if (!boxed(l)) {
    plain_->smooth(l, forward);
    return;
  }
  DLevel& D = levels_[static_cast<std::size_t>(l)];
  const MGConfig& cfg = h_->config();
  exchange(l, &BoxData::u);
  const CT w = static_cast<CT>(cfg.jacobi_weight);
  const bool symgs = cfg.smoother == SmootherType::SymGS;
  pool_->run(D.decomp.nboxes(), [&](int b) {
    const obs::LevelScope ls(l);
    BoxData& bd = D.boxes[static_cast<std::size_t>(b)];
    refresh_ghost_rhs(l, b);
    const CT* q2 = bd.q2.empty() ? nullptr : bd.q2.data();
    std::span<const CT> f{bd.f.data(), bd.f.size()};
    std::span<const CT> invd{bd.invdiag.data(), bd.invdiag.size()};
    if (symgs) {
      // Per-box sequential sweep (no per-box wavefront schedule): block-
      // Jacobi coupling between boxes through the exchanged halos.
      std::span<CT> u{bd.u.data(), bd.u.size()};
      bd.A.visit([&](const auto& m) {
        if (forward) {
          gs_forward(m, f, u, invd, q2, nullptr);
        } else {
          gs_backward(m, f, u, invd, q2, nullptr);
        }
      });
    } else {
      bd.A.visit([&](const auto& m) {
        jacobi_sweep_fused(m, f,
                           std::span<const CT>{bd.u.data(), bd.u.size()},
                           invd, q2, w,
                           std::span<CT>{bd.r.data(), bd.r.size()});
      });
      std::swap(bd.u, bd.r);
    }
  });
}

template <class CT>
void DecompEngine<CT>::restrict_field(int l, avec<CT> BoxData::*field) {
  DLevel& D = levels_[static_cast<std::size_t>(l)];
  DLevel& C = levels_[static_cast<std::size_t>(l) + 1];
  const Level& hl = h_->level(l);
  const int bs = hl.A_full.block_size();
  if (!C.boxed) {
    // Agglomeration boundary: gather the interior field into the global
    // scratch and run the global restriction into the coarse global rhs.
    LevelData<CT>& Cv = plain_->level(l + 1);
    copy_interiors(l, field, gather_.data(), /*to_boxes=*/false);
    restrict_to_coarse<CT>(hl.to_coarse, bs, {gather_.data(), gather_.size()},
                           {Cv.f.data(), Cv.f.size()});
    return;
  }
  // Box grids match one-to-one (coarsened() keeps the grid): coarse box b
  // restricts from fine box b's interior+ghost field after its halo
  // exchange; with raw halos every coarse dof is bitwise identical to the
  // global restriction's.
  exchange(l, field);
  const obs::KernelSpan span(obs::Kind::Restrict);
  pool_->run(D.decomp.nboxes(), [&](int b) {
    boxed_restrict<CT>(hl.to_coarse, bs, D.decomp.box(b),
                       (D.boxes[static_cast<std::size_t>(b)].*field).data(),
                       C.decomp.box(b),
                       C.boxes[static_cast<std::size_t>(b)].f.data());
  });
}

template <class CT>
void DecompEngine<CT>::downstroke(int l) {
  if (!boxed(l)) {
    plain_->downstroke(l);  // the coarse level is one box too
    return;
  }
  // The decomposed path materializes the residual per box (r ghosts are
  // refreshed or gathered before any consumer reads them); interior
  // residual rows are bitwise identical to the global kernel's.
  DLevel& D = levels_[static_cast<std::size_t>(l)];
  exchange(l, &BoxData::u);
  pool_->run(D.decomp.nboxes(), [&](int b) {
    const obs::LevelScope ls(l);
    BoxData& bd = D.boxes[static_cast<std::size_t>(b)];
    const CT* q2 = bd.q2.empty() ? nullptr : bd.q2.data();
    bd.A.visit([&](const auto& m) {
      residual(m, std::span<const CT>{bd.f.data(), bd.f.size()},
               std::span<const CT>{bd.u.data(), bd.u.size()},
               std::span<CT>{bd.r.data(), bd.r.size()}, q2);
    });
  });
  restrict_field(l, &BoxData::r);
}

template <class CT>
void DecompEngine<CT>::coarse_solve(int l) {
  plain_->coarse_solve(l);  // the coarsest level is always one box
}

template <class CT>
void DecompEngine<CT>::restrict_rhs(int l) {
  if (!boxed(l)) {
    plain_->restrict_rhs(l);
    return;
  }
  // Ghost rhs rows are free to overwrite: every sweep refreshes them.
  restrict_field(l, &BoxData::f);
}

template <class CT>
void DecompEngine<CT>::prolong_add(int l) {
  if (!boxed(l)) {
    plain_->prolong_add(l);
    return;
  }
  DLevel& D = levels_[static_cast<std::size_t>(l)];
  DLevel& C = levels_[static_cast<std::size_t>(l) + 1];
  const Level& hl = h_->level(l);
  const int bs = hl.A_full.block_size();
  if (C.boxed) {
    exchange(l + 1, &BoxData::u);
  }
  // Fine box b gathers its parents from coarse box b's interior+ghost u, or
  // across the agglomeration boundary from the global coarse u.
  const CT* cu = C.boxed ? nullptr : plain_->level(l + 1).u.data();
  const obs::KernelSpan span(obs::Kind::Prolong);
  pool_->run(D.decomp.nboxes(), [&](int b) {
    CT* uf = D.boxes[static_cast<std::size_t>(b)].u.data();
    if (!C.boxed) {
      boxed_prolong_add<CT>(hl.to_coarse, bs, cu, hl.to_coarse.coarse,
                            {0, 0, 0}, D.decomp.box(b), uf);
      return;
    }
    const SubBox& cs = C.decomp.box(b);
    boxed_prolong_add<CT>(hl.to_coarse, bs,
                          C.boxes[static_cast<std::size_t>(b)].u.data(),
                          cs.local(), {cs.off(0), cs.off(1), cs.off(2)},
                          D.decomp.box(b), uf);
  });
}

template <class CT>
void DecompEngine<CT>::apply(VectorOps<CT>& plain, CycleShape shape) {
  plain_ = &plain;
  LevelData<CT>& L0 = plain.level(0);
  copy_interiors(0, &BoxData::f, L0.f.data(), /*to_boxes=*/true);
  run_cycle(*this, shape, h_->nlevels());
  copy_interiors(0, &BoxData::u, L0.u.data(), /*to_boxes=*/false);
  plain_ = nullptr;
}

template class DecompEngine<float>;
template class DecompEngine<double>;

}  // namespace smg
