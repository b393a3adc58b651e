#include "core/mg_precond.hpp"

#include <cmath>
#include <type_traits>
#include <utility>

#include "core/cycle.hpp"
#include "kernels/blas1.hpp"
#include "kernels/fused.hpp"
#include "kernels/spmv.hpp"
#include "kernels/symgs.hpp"
#include "obs/metrics.hpp"

namespace smg {

template <class CT>
MGPrecond<CT>::MGPrecond(const MGHierarchy* h)
    : h_(h), shape_(h->config().cycle) {
  const int nlev = h_->nlevels();
  lv_.resize(static_cast<std::size_t>(nlev));
  for (int l = 0; l < nlev; ++l) {
    const Level& hl = h_->level(l);
    LevelData<CT>& L = lv_[static_cast<std::size_t>(l)];
    const std::size_t n = static_cast<std::size_t>(hl.A_full.nrows());
    L.u.assign(n, CT{0});
    L.f.assign(n, CT{0});
    // The Jacobi ping-pong buffer; the fused downstroke never needs it.
    if (h_->config().smoother == SmootherType::Jacobi) {
      L.r.assign(n, CT{0});
    }
    refresh_level(l);
  }
  if (h_->finest_wrapped()) {
    const auto& q2 = h_->finest_q2();
    wrap_q2_.resize(q2.size());
    copy_convert<CT, double>({q2.data(), q2.size()},
                             {wrap_q2_.data(), wrap_q2_.size()});
  }
  const std::array<int, 3> nb = effective_decomp(h_->config());
  if (nb != std::array<int, 3>{1, 1, 1}) {
    auto engine = std::make_unique<DecompEngine<CT>>(
        h_, nb, effective_halo_fp16(h_->config()));
    if (engine->active()) {
      engine_ = std::move(engine);
    }
  }
}

template <class CT>
void MGPrecond<CT>::refresh_level(int l) {
  if (engine_ != nullptr) {
    engine_->refresh_level(l);
  }
  const Level& hl = h_->level(l);
  LevelData<CT>& L = lv_[static_cast<std::size_t>(l)];
  if (hl.scaled) {
    L.q2.resize(hl.q2.size());
    copy_convert<CT, double>({hl.q2.data(), hl.q2.size()},
                             {L.q2.data(), L.q2.size()});
  }
  L.invdiag.resize(hl.invdiag.size());
  copy_convert<CT, double>({hl.invdiag.data(), hl.invdiag.size()},
                           {L.invdiag.data(), L.invdiag.size()});
}

// ---- single-vector backend ------------------------------------------------

template <class CT>
void VectorOps<CT>::zero(int l) {
  LevelData<CT>& L = level(l);
  set_zero(std::span<CT>{L.u.data(), L.u.size()});
}

template <class CT>
void VectorOps<CT>::smooth(int l, bool forward) {
  const Level& hl = h_.level(l);
  LevelData<CT>& L = level(l);
  const CT* q2 = L.q2.empty() ? nullptr : L.q2.data();
  const MGConfig& cfg = h_.config();

  std::span<const CT> f{L.f.data(), L.f.size()};
  std::span<CT> u{L.u.data(), L.u.size()};
  std::span<const CT> invdiag{L.invdiag.data(), L.invdiag.size()};

  if (cfg.smoother == SmootherType::SymGS) {
    const WavefrontSchedule* wf =
        hl.smoother_wf.valid() ? &hl.smoother_wf : nullptr;
    hl.A_stored.visit([&](const auto& m) {
      if (forward) {
        gs_forward(m, f, u, invdiag, q2, wf);
      } else {
        gs_backward(m, f, u, invdiag, q2, wf);
      }
    });
    return;
  }

  // Weighted (block-)Jacobi, residual-fused: unew = u + w * invdiag *
  // (f - A u) in one pass over the matrix, double-buffered through L.r
  // (Jacobi must read the *old* iterate everywhere, so in-place fusion is
  // not an option), then the buffers swap roles.  Bitwise identical to the
  // former residual-then-update two-pass form.
  const CT w = static_cast<CT>(cfg.jacobi_weight);
  hl.A_stored.visit([&](const auto& m) {
    jacobi_sweep_fused(m, f, std::span<const CT>{L.u.data(), L.u.size()},
                       invdiag, q2, w, std::span<CT>{L.r.data(), L.r.size()});
  });
  std::swap(L.u, L.r);
}

template <class CT>
void VectorOps<CT>::downstroke(int l) {
  // C.f = R (f - A u), fused: the residual is produced plane-by-plane
  // inside residual_restrict and never written to memory.
  const Level& hl = h_.level(l);
  LevelData<CT>& L = level(l);
  LevelData<CT>& C = level(l + 1);
  const CT* q2 = L.q2.empty() ? nullptr : L.q2.data();
  hl.A_stored.visit([&](const auto& m) {
    residual_restrict(m, std::span<const CT>{L.f.data(), L.f.size()},
                      std::span<const CT>{L.u.data(), L.u.size()}, q2,
                      hl.to_coarse, std::span<CT>{C.f.data(), C.f.size()});
  });
}

template <class CT>
void VectorOps<CT>::coarse_solve(int l) {
  // Coarsest level: exact FP64 direct solve of the true operator.
  LevelData<CT>& L = level(l);
  const obs::KernelSpan span(obs::Kind::CoarseSolve);
  h_.coarse_solver().solve<CT>({L.f.data(), L.f.size()},
                               {L.u.data(), L.u.size()});
}

template <class CT>
void VectorOps<CT>::restrict_rhs(int l) {
  const Level& hl = h_.level(l);
  LevelData<CT>& L = level(l);
  LevelData<CT>& C = level(l + 1);
  restrict_to_coarse<CT>(hl.to_coarse, hl.A_full.block_size(),
                         {L.f.data(), L.f.size()}, {C.f.data(), C.f.size()});
}

template <class CT>
void VectorOps<CT>::prolong_add(int l) {
  const Level& hl = h_.level(l);
  LevelData<CT>& L = level(l);
  LevelData<CT>& C = level(l + 1);
  smg::prolong_add<CT>(hl.to_coarse, hl.A_full.block_size(),
                       {C.u.data(), C.u.size()}, {L.u.data(), L.u.size()});
}

// ---- panel backend --------------------------------------------------------

namespace {

/// Panel backend of run_cycle: VectorOps with the k-column kernels, column
/// c bitwise identical to a single-vector cycle of that column.  Level
/// q2/invdiag are read from the single-vector storage.
template <class CT>
class PanelOps {
 public:
  PanelOps(const MGHierarchy& h, std::vector<LevelData<CT>>& lv,
           std::vector<PanelData<CT>>& pv, avec<CT>& colf, avec<CT>& colu)
      : h_(h), lv_(lv), pv_(pv), colf_(colf), colu_(colu) {}

  int nu1() const noexcept { return h_.config().nu1; }
  int nu2() const noexcept { return h_.config().nu2; }

  void zero(int l) { panel(l).u.fill(CT{0}); }

  void smooth(int l, bool forward) {
    const Level& hl = h_.level(l);
    const LevelData<CT>& L = lv_[static_cast<std::size_t>(l)];
    PanelData<CT>& P = panel(l);
    const CT* q2 = L.q2.empty() ? nullptr : L.q2.data();
    const MGConfig& cfg = h_.config();
    std::span<const CT> invdiag{L.invdiag.data(), L.invdiag.size()};
    if (cfg.smoother == SmootherType::SymGS) {
      const WavefrontSchedule* wf =
          hl.smoother_wf.valid() ? &hl.smoother_wf : nullptr;
      hl.A_stored.visit([&](const auto& m) {
        if (forward) {
          gs_forward_many(m, P.f, P.u, invdiag, q2, wf);
        } else {
          gs_backward_many(m, P.f, P.u, invdiag, q2, wf);
        }
      });
      return;
    }
    // Panel Jacobi: the same double-buffered residual-fused sweep as the
    // single-vector path, all columns per matrix pass.
    const CT w = static_cast<CT>(cfg.jacobi_weight);
    hl.A_stored.visit([&](const auto& m) {
      jacobi_sweep_fused_many(m, P.f, P.u, invdiag, q2, w, P.r);
    });
    std::swap(P.u, P.r);
  }

  void downstroke(int l) {
    const Level& hl = h_.level(l);
    const LevelData<CT>& L = lv_[static_cast<std::size_t>(l)];
    PanelData<CT>& P = panel(l);
    PanelData<CT>& C = panel(l + 1);
    const CT* q2 = L.q2.empty() ? nullptr : L.q2.data();
    hl.A_stored.visit([&](const auto& m) {
      residual_restrict_many(m, P.f, P.u, q2, hl.to_coarse, C.f);
    });
  }

  void coarse_solve(int l) {
    // The dense FP64 solve is inherently per-column; peel the panel.
    // Padding columns are never touched and stay zero.
    PanelData<CT>& P = panel(l);
    const obs::KernelSpan span(obs::Kind::CoarseSolve);
    const std::size_t n = static_cast<std::size_t>(P.f.rows());
    colf_.resize(n);
    colu_.resize(n);
    for (int c = 0; c < P.f.cols(); ++c) {
      P.f.extract_col(c, {colf_.data(), n});
      h_.coarse_solver().solve<CT>({colf_.data(), n}, {colu_.data(), n});
      P.u.insert_col(c, {colu_.data(), n});
    }
  }

  void restrict_rhs(int l) {
    const Level& hl = h_.level(l);
    restrict_to_coarse_many<CT>(hl.to_coarse, hl.A_full.block_size(),
                                panel(l).f, panel(l + 1).f);
  }

  void prolong_add(int l) {
    const Level& hl = h_.level(l);
    prolong_add_many<CT>(hl.to_coarse, hl.A_full.block_size(),
                         panel(l + 1).u, panel(l).u);
  }

 private:
  PanelData<CT>& panel(int l) { return pv_[static_cast<std::size_t>(l)]; }

  const MGHierarchy& h_;
  const std::vector<LevelData<CT>>& lv_;
  std::vector<PanelData<CT>>& pv_;
  avec<CT>& colf_;
  avec<CT>& colu_;
};

/// dst = src ./ q2 row-wise: the single-vector ewise_div, every column of
/// the row sharing one q2 read.  Padding: 0 / q2 == +0.
template <class CT>
void div_rows(const MultiVector<CT>& src, const CT* SMG_RESTRICT q2,
              MultiVector<CT>& dst) {
  const std::int64_t rows = src.rows();
  const int kp = src.padded_cols();
  const CT* SMG_RESTRICT x = src.data();
  CT* SMG_RESTRICT y = dst.data();
  for (std::int64_t row = 0; row < rows; ++row) {
    const CT q = q2[row];
    for (int c = 0; c < kp; ++c) {
      y[row * kp + c] = x[row * kp + c] / q;
    }
  }
}

}  // namespace

template <class CT>
void MGPrecond<CT>::ensure_panels(int k) {
  const int nlev = h_->nlevels();
  if (pv_.size() != static_cast<std::size_t>(nlev)) {
    pv_.assign(static_cast<std::size_t>(nlev), PanelData<CT>{});
  }
  const bool jacobi = h_->config().smoother == SmootherType::Jacobi;
  for (int l = 0; l < nlev; ++l) {
    const std::int64_t n = h_->level(l).A_full.nrows();
    PanelData<CT>& P = pv_[static_cast<std::size_t>(l)];
    if (P.u.rows() != n || P.u.cols() != k) {
      P.u.resize(n, k);
      P.f.resize(n, k);
      if (jacobi) {
        P.r.resize(n, k);
      }
    }
  }
}

template <class CT>
void MGPrecond<CT>::apply_many(const MultiVector<CT>& r, MultiVector<CT>& e) {
  if (engine_ != nullptr) {
    // The decomposed backend is single-vector: peel the panel column-wise
    // (box parallelism replaces panel amortization when sharding is on).
    SMG_CHECK(r.rows() == e.rows() && r.cols() == e.cols(),
              "MG apply_many size mismatch");
    const std::size_t n = static_cast<std::size_t>(r.rows());
    colbuf_f_.resize(n);
    colbuf_u_.resize(n);
    for (int c = 0; c < r.cols(); ++c) {
      r.extract_col(c, {colbuf_f_.data(), n});
      apply({colbuf_f_.data(), n}, {colbuf_u_.data(), n});
      e.insert_col(c, {colbuf_u_.data(), n});
    }
    return;
  }
  ensure_panels(r.cols());
  PanelData<CT>& P0 = pv_.front();
  SMG_CHECK(r.rows() == P0.f.rows() && e.rows() == P0.u.rows() &&
                r.cols() == e.cols() &&
                r.padded_cols() == P0.f.padded_cols(),
            "MG apply_many size mismatch");
  if (h_->finest_wrapped()) {
    div_rows(r, wrap_q2_.data(), P0.f);
  } else {
    copy_convert<CT, CT>({r.data(), r.size()}, {P0.f.data(), P0.f.size()});
  }
  PanelOps<CT> ops(*h_, lv_, pv_, colbuf_f_, colbuf_u_);
  run_cycle(ops, shape_, h_->nlevels());
  if (h_->finest_wrapped()) {
    div_rows(P0.u, wrap_q2_.data(), e);
  } else {
    copy_convert<CT, CT>({P0.u.data(), P0.u.size()}, {e.data(), e.size()});
  }
}

template <class CT>
void MGPrecond<CT>::apply(std::span<const CT> r, std::span<CT> e) {
  LevelData<CT>& L0 = lv_.front();
  SMG_CHECK(r.size() == L0.f.size() && e.size() == L0.u.size(),
            "MG apply size mismatch");
  const std::span<const CT> q2w{wrap_q2_.data(), wrap_q2_.size()};
  if (h_->finest_wrapped()) {
    // ScaleThenSetup preconditions the *scaled* system:
    // A^{-1} = Q^{-1/2} Â^{-1} Q^{-1/2}, so divide by q2 on entry and exit.
    ewise_div<CT>(r, q2w, {L0.f.data(), L0.f.size()});
  } else {
    copy_convert<CT, CT>(r, {L0.f.data(), L0.f.size()});
  }
  VectorOps<CT> ops(*h_, lv_);
  if (engine_ != nullptr) {
    engine_->apply(ops, shape_);
  } else {
    run_cycle(ops, shape_, h_->nlevels());
  }
  if (h_->finest_wrapped()) {
    ewise_div<CT>({L0.u.data(), L0.u.size()}, q2w, e);
  } else {
    copy_convert<CT, CT>({L0.u.data(), L0.u.size()}, e);
  }
}

template <class KT, class CT>
MGPrecondAdapter<KT, CT>::MGPrecondAdapter(MGHierarchy* h)
    : h_(h),
      mg_(h),
      telemetry_(obs::effective_level(h->config().telemetry), h->nlevels()),
      governor_(h),
      guarded_(h->policy() == PrecisionPolicy::Guarded) {
  // Service metrics are a sticky process-wide switch; any adapter whose
  // effective config asks for them turns recording on for good.
  if (obs::effective_metrics(h->config().metrics) == obs::MetricsLevel::On) {
    obs::enable_metrics(true);
  }
  const std::size_t n =
      static_cast<std::size_t>(h->level(0).A_full.nrows());
  rbuf_.assign(n, CT{0});
  ebuf_.assign(n, CT{0});
  // KT<->CT vector conversions per apply: residual truncation on entry,
  // error recovery on exit (Alg. 2 lines 4 and 6); zero when the Krylov
  // and compute types coincide and the copies are plain.
  telemetry_.set_vec_conversions_per_apply(
      std::is_same_v<KT, CT> ? 0 : 2 * static_cast<std::uint64_t>(n));
}

namespace {

template <class CT>
bool all_finite(std::span<const CT> v) noexcept {
  for (const CT x : v) {
    if (!std::isfinite(static_cast<double>(x))) {
      return false;
    }
  }
  return true;
}

}  // namespace

template <class KT, class CT>
void MGPrecondAdapter<KT, CT>::apply(std::span<const KT> r,
                                     std::span<KT> e) {
  // Install our ledger for the duration of the cycle; a no-op re-install
  // when a solver already holds it for the whole solve.
  const obs::InstallGuard guard(&telemetry_);
  const double t0 = telemetry_.now();
  copy_convert<CT, KT>(r, {rbuf_.data(), rbuf_.size()});
  mg_.apply({rbuf_.data(), rbuf_.size()}, {ebuf_.data(), ebuf_.size()});
  if (guarded_ &&
      all_finite(std::span<const CT>{rbuf_.data(), rbuf_.size()})) {
    // Health probe: a NaN/Inf in the error correction with a finite input
    // residual pins the poison inside the cycle (a stored matrix or
    // smoother datum).  Repair and re-apply until healthy or the governor
    // runs out of ladder.
    while (!all_finite(std::span<const CT>{ebuf_.data(), ebuf_.size()})) {
      if (!heal(HealthEvent::NonFinite)) {
        break;  // let the solver see the breakdown
      }
      mg_.apply({rbuf_.data(), rbuf_.size()}, {ebuf_.data(), ebuf_.size()});
    }
  }
  copy_convert<KT, CT>({ebuf_.data(), ebuf_.size()}, e);
  const double t1 = telemetry_.now();
  telemetry_.record_apply(t0, t1);
  obs::record_precond_apply(t1 - t0);
}

template <class KT, class CT>
void MGPrecondAdapter<KT, CT>::apply_many(const MultiVector<KT>& r,
                                          MultiVector<KT>& e) {
  SMG_CHECK(r.rows() == e.rows() && r.cols() == e.cols(),
            "adapter apply_many shape mismatch");
  const obs::InstallGuard guard(&telemetry_);
  const double t0 = telemetry_.now();
  if (rpanel_.rows() != r.rows() || rpanel_.cols() != r.cols()) {
    rpanel_.resize(r.rows(), r.cols());
    epanel_.resize(r.rows(), r.cols());
  }
  // Whole-buffer truncate: padding zeros convert to padding zeros, and each
  // real element gets exactly the single-apply's KT->CT conversion.
  copy_convert<CT, KT>({r.data(), r.size()},
                       {rpanel_.data(), rpanel_.size()});
  mg_.apply_many(rpanel_, epanel_);
  if (guarded_ && all_finite(std::span<const CT>{rpanel_.data(),
                                                 rpanel_.size()})) {
    // Panel-wide probe-and-heal: one poisoned column is enough evidence of
    // a poisoned stored matrix, and the repair (rescale/promote) is global
    // to the level anyway — so the whole panel re-applies after a repair,
    // exactly like the single-vector path re-applies its one vector.
    while (!all_finite(std::span<const CT>{epanel_.data(),
                                           epanel_.size()})) {
      if (!heal(HealthEvent::NonFinite)) {
        break;  // let the solver see the breakdown
      }
      mg_.apply_many(rpanel_, epanel_);
    }
  }
  copy_convert<KT, CT>({epanel_.data(), epanel_.size()},
                       {e.data(), e.size()});
  const double t1 = telemetry_.now();
  telemetry_.record_apply(t0, t1);
  telemetry_.record_panel_apply(r.cols());
  obs::record_precond_apply(t1 - t0);
  obs::record_precond_panel(r.cols());
}

template <class KT, class CT>
bool MGPrecondAdapter<KT, CT>::report_health(HealthEvent e) {
  if (!guarded_) {
    return false;
  }
  return heal(e);
}

template <class KT, class CT>
bool MGPrecondAdapter<KT, CT>::heal(HealthEvent e) {
  const std::vector<int> repaired = governor_.on_event(e);
  for (const int l : repaired) {
    mg_.refresh_level(l);
  }
  if (!repaired.empty()) {
    // Each successful repair triggers exactly one retry: the probe
    // re-applies the cycle, or the solver restarts its recurrence.
    obs::record_autopilot_repair("retry");
  }
  return !repaired.empty();
}

template <class KT>
std::unique_ptr<PrecondBase<KT>> make_mg_precond(MGHierarchy& h) {
  if (h.config().compute == Prec::FP64) {
    return std::make_unique<MGPrecondAdapter<KT, double>>(&h);
  }
  SMG_CHECK(h.config().compute == Prec::FP32,
            "preconditioner compute precision must be FP32 or FP64");
  return std::make_unique<MGPrecondAdapter<KT, float>>(&h);
}

template class VectorOps<float>;
template class VectorOps<double>;
template class MGPrecond<float>;
template class MGPrecond<double>;
template class MGPrecondAdapter<double, float>;
template class MGPrecondAdapter<double, double>;
template class MGPrecondAdapter<float, float>;
template class MGPrecondAdapter<float, double>;
template std::unique_ptr<PrecondBase<double>> make_mg_precond<double>(
    MGHierarchy&);
template std::unique_ptr<PrecondBase<float>> make_mg_precond<float>(
    MGHierarchy&);

}  // namespace smg
