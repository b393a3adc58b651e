#include "solvers/solve_many.hpp"

#include <algorithm>
#include <cmath>

#include "kernels/blas1.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "util/common.hpp"
#include "util/env.hpp"
#include "util/timer.hpp"

namespace smg {

namespace detail {

template <class KT>
std::vector<SolveResult> batched_pcg(const LinOpMany<KT>& A,
                                     const LinOpMany<KT>& apply,
                                     std::span<const KT> B,
                                     MultiVector<KT>& X, PrecondBase<KT>& M,
                                     const SolveOptions& opts,
                                     std::uint64_t first_request) {
  SMG_CHECK(B.size() == X.size(), "batched_pcg: B/X shape mismatch");
  const int k = X.cols();
  const std::int64_t rows = X.rows();
  const std::size_t n = static_cast<std::size_t>(rows);
  std::vector<SolveResult> res(static_cast<std::size_t>(k));
  M.reset_timing();

  // One consecutive request ID per column; the batch's spans are tagged
  // with the first so a trace filter on any column's ID finds its batch.
  for (int c = 0; c < k; ++c) {
    res[static_cast<std::size_t>(c)].request_id =
        first_request + static_cast<std::uint64_t>(c);
  }
  const obs::RequestScope req_scope(first_request);

  const obs::InstallGuard obs_guard(M.telemetry());
  if (obs::Telemetry* t = obs::current()) {
    for (int c = 0; c < k; ++c) {
      t->note_request(first_request + static_cast<std::uint64_t>(c));
    }
  }
  const obs::ScopedSpan solve_span(obs::Kind::Solve);

  std::vector<unsigned char> active(static_cast<std::size_t>(k), 1);
  const auto any_active = [&] {
    for (int c = 0; c < k; ++c) {
      if (active[static_cast<std::size_t>(c)]) {
        return true;
      }
    }
    return false;
  };

  // Per-column reductions in one pass over the panel: each column of
  // dot_many/nrm2_many is bitwise dot_deterministic/nrm2_deterministic on
  // that column.  Only active columns' outputs move.
  std::vector<double> redbuf(static_cast<std::size_t>(k));
  const auto keep_active = [&](std::vector<double>& out) {
    for (int c = 0; c < k; ++c) {
      const auto cc = static_cast<std::size_t>(c);
      if (active[cc]) {
        out[cc] = redbuf[cc];
      }
    }
  };
  const auto batch_nrm2 = [&](const MultiVector<KT>& V,
                              std::vector<double>& out) {
    nrm2_many(V, std::span<double>{redbuf.data(), redbuf.size()});
    keep_active(out);
  };
  const auto batch_dot = [&](const MultiVector<KT>& U, const MultiVector<KT>& V,
                             std::vector<double>& out) {
    dot_many(U, V, std::span<double>{redbuf.data(), redbuf.size()});
    keep_active(out);
  };

  // Z = M^{-1} R and AP = A P are never live at once (AP is last read by
  // the R update, Z first written by the apply after it), so they share
  // one panel: with x, the recurrence holds four n-by-k panels.
  MultiVector<KT> R(rows, k), P(rows, k), W(rows, k);
  MultiVector<KT>& Z = W;
  MultiVector<KT>& AP = W;
  const std::size_t nelems = R.size();
  const int kp = R.padded_cols();

  const auto copy_panel = [nelems](const MultiVector<KT>& src,
                                   MultiVector<KT>& dst) {
    copy_convert<KT, KT>({src.data(), nelems}, {dst.data(), nelems});
  };
  // r = b - A x (elementwise over the whole panel: padding 0 - 0 = +0).
  const auto residual = [&] {
    A(X, AP);
    sub<KT>(B, {AP.data(), nelems}, {R.data(), nelems});
  };
  // Sanitize a broken-down column so later panel sweeps (which compute
  // every column, frozen or not) keep streaming finite data.
  const auto zero_col = [&](MultiVector<KT>& V, int c) {
    KT* d = V.data();
    for (std::size_t r = 0; r < n; ++r) {
      d[r * static_cast<std::size_t>(kp) + static_cast<std::size_t>(c)] =
          KT{0};
    }
  };
  const auto freeze_breakdown = [&](int c) {
    res[static_cast<std::size_t>(c)].breakdown = true;
    active[static_cast<std::size_t>(c)] = 0;
    zero_col(R, c);
    zero_col(P, c);
  };

  residual();

  std::vector<double> bnorm(static_cast<std::size_t>(k)),
      rnorm(static_cast<std::size_t>(k)), rz(static_cast<std::size_t>(k)),
      target(static_cast<std::size_t>(k)), pap(static_cast<std::size_t>(k)),
      rz_new(static_cast<std::size_t>(k));
  dot_panel(B.data(), B.data(), rows, kp, k, redbuf.data());
  for (int c = 0; c < k; ++c) {
    const auto cc = static_cast<std::size_t>(c);
    bnorm[cc] = std::sqrt(redbuf[cc]);
    target[cc] = opts.rtol * (bnorm[cc] > 0.0 ? bnorm[cc] : 1.0);
  }
  batch_nrm2(R, rnorm);
  if (opts.record_history) {
    for (int c = 0; c < k; ++c) {
      const auto cc = static_cast<std::size_t>(c);
      res[cc].history.push_back(rnorm[cc] /
                                (bnorm[cc] > 0.0 ? bnorm[cc] : 1.0));
    }
  }

  apply(R, Z);
  copy_panel(Z, P);
  batch_dot(R, Z, rz);

  // Self-healing bookkeeping (inert, and the iteration stream unchanged,
  // unless M can repair itself), panel-wide: one repair budget for the
  // whole batch (the preconditioner is shared state; one repair fixes every
  // column's preconditioner at once).
  const bool healing = M.self_healing();
  int heals_left = healing ? opts.heal_retries : 0;
  MultiVector<KT> Xgood;
  if (healing) {
    Xgood = X;
  }
  std::vector<double> stag_ref = rnorm;
  std::vector<int> stag_count(static_cast<std::size_t>(k), 0);
  bool stag_active = healing && opts.stagnation_window > 0;

  // Report a health event; on a successful repair restart every active
  // column's recurrence from the last finite iterate (the Krylov directions
  // predate the repaired preconditioner and must be discarded).  Columns
  // whose recomputed scalars are still non-finite break down individually.
  const auto recover = [&](HealthEvent e) {
    if (heals_left <= 0 || !M.report_health(e)) {
      return false;
    }
    --heals_left;
    if (e == HealthEvent::NonFinite) {
      copy_panel(Xgood, X);
    }
    residual();
    batch_nrm2(R, rnorm);
    apply(R, Z);
    copy_panel(Z, P);
    batch_dot(R, Z, rz);
    for (int c = 0; c < k; ++c) {
      const auto cc = static_cast<std::size_t>(c);
      if (!active[cc]) {
        continue;
      }
      ++res[cc].heals;
      if (!std::isfinite(rnorm[cc]) || !std::isfinite(rz[cc])) {
        freeze_breakdown(c);
        continue;
      }
      stag_ref[cc] = rnorm[cc];
      stag_count[cc] = 0;
    }
    return any_active();
  };

  std::vector<KT> alpha_kt(static_cast<std::size_t>(k), KT{0}),
      negalpha_kt(static_cast<std::size_t>(k), KT{0}),
      beta_kt(static_cast<std::size_t>(k), KT{0});

  for (int it = 0; it < opts.max_iters; ++it) {
    bool nonfinite = false;
    for (int c = 0; c < k; ++c) {
      const auto cc = static_cast<std::size_t>(c);
      if (active[cc] &&
          (!std::isfinite(rnorm[cc]) || !std::isfinite(rz[cc]))) {
        nonfinite = true;
      }
    }
    if (nonfinite) {
      if (recover(HealthEvent::NonFinite)) {
        continue;
      }
      for (int c = 0; c < k; ++c) {
        const auto cc = static_cast<std::size_t>(c);
        if (active[cc] &&
            (!std::isfinite(rnorm[cc]) || !std::isfinite(rz[cc]))) {
          freeze_breakdown(c);
        }
      }
    }
    for (int c = 0; c < k; ++c) {
      const auto cc = static_cast<std::size_t>(c);
      if (active[cc] && rnorm[cc] < target[cc]) {
        res[cc].converged = true;
        active[cc] = 0;
      }
    }
    if (!any_active()) {
      break;
    }
    if (healing) {
      copy_panel(X, Xgood);
    }
    const obs::ScopedSpan iter_span(obs::Kind::Iteration);
    A(P, AP);
    batch_dot(P, AP, pap);
    {
      bool pap_nonfinite = false;
      for (int c = 0; c < k; ++c) {
        const auto cc = static_cast<std::size_t>(c);
        if (active[cc] && !std::isfinite(pap[cc])) {
          pap_nonfinite = true;
        }
      }
      if (pap_nonfinite && recover(HealthEvent::NonFinite)) {
        continue;
      }
    }
    for (int c = 0; c < k; ++c) {
      const auto cc = static_cast<std::size_t>(c);
      if (!active[cc]) {
        continue;
      }
      if (!std::isfinite(pap[cc])) {
        freeze_breakdown(c);
      } else if (pap[cc] == 0.0) {
        // Exact Krylov breakdown above tolerance: stop this column, not a
        // numerical failure.
        active[cc] = 0;
      }
    }
    if (!any_active()) {
      break;
    }

    for (int c = 0; c < k; ++c) {
      const auto cc = static_cast<std::size_t>(c);
      const double alpha = active[cc] ? rz[cc] / pap[cc] : 0.0;
      alpha_kt[cc] = static_cast<KT>(alpha);
      negalpha_kt[cc] = static_cast<KT>(-alpha);
    }
    axpy_cols<KT>(std::span<const KT>{alpha_kt.data(), alpha_kt.size()}, P, X,
                  active.data());
    axpy_cols<KT>(std::span<const KT>{negalpha_kt.data(), negalpha_kt.size()},
                  AP, R, active.data());

    batch_nrm2(R, rnorm);
    for (int c = 0; c < k; ++c) {
      const auto cc = static_cast<std::size_t>(c);
      if (!active[cc]) {
        continue;
      }
      ++res[cc].iters;
      if (opts.record_history) {
        res[cc].history.push_back(rnorm[cc] /
                                  (bnorm[cc] > 0.0 ? bnorm[cc] : 1.0));
      }
      if (rnorm[cc] < target[cc]) {
        res[cc].converged = true;
        active[cc] = 0;
      }
    }
    if (stag_active) {
      bool stagnated = false;
      for (int c = 0; c < k; ++c) {
        const auto cc = static_cast<std::size_t>(c);
        if (!active[cc] || !std::isfinite(rnorm[cc])) {
          continue;
        }
        if (rnorm[cc] <= opts.stagnation_factor * stag_ref[cc]) {
          stag_ref[cc] = rnorm[cc];
          stag_count[cc] = 0;
        } else if (++stag_count[cc] >= opts.stagnation_window) {
          stagnated = true;
        }
      }
      if (stagnated) {
        if (recover(HealthEvent::Stagnation)) {
          continue;
        }
        stag_active = false;  // nothing left to repair; stop re-reporting
      }
    }
    if (!any_active()) {
      break;
    }

    apply(R, Z);
    batch_dot(R, Z, rz_new);
    for (int c = 0; c < k; ++c) {
      const auto cc = static_cast<std::size_t>(c);
      if (active[cc]) {
        beta_kt[cc] = static_cast<KT>(rz_new[cc] / rz[cc]);
        rz[cc] = rz_new[cc];
      } else {
        beta_kt[cc] = KT{0};
      }
    }
    xpay_cols<KT>(Z, std::span<const KT>{beta_kt.data(), beta_kt.size()}, P,
                  active.data());
  }

  for (int c = 0; c < k; ++c) {
    const auto cc = static_cast<std::size_t>(c);
    res[cc].final_relres =
        rnorm[cc] / (bnorm[cc] > 0.0 ? bnorm[cc] : 1.0);
    if (!std::isfinite(res[cc].final_relres)) {
      res[cc].breakdown = true;
    }
  }
  return res;
}

template std::vector<SolveResult> batched_pcg<double>(
    const LinOpMany<double>&, const LinOpMany<double>&,
    std::span<const double>, MultiVector<double>&, PrecondBase<double>&,
    const SolveOptions&, std::uint64_t);
template std::vector<SolveResult> batched_pcg<float>(
    const LinOpMany<float>&, const LinOpMany<float>&,
    std::span<const float>, MultiVector<float>&, PrecondBase<float>&,
    const SolveOptions&, std::uint64_t);

}  // namespace detail

namespace {

// Resolve the effective batch width: explicit option, else SMG_RHS_BATCH,
// else the whole panel.
int effective_batch(int rhs_batch, int k) {
  if (rhs_batch > 0) {
    return std::min(rhs_batch, k);
  }
  if (const auto env = env_value("SMG_RHS_BATCH")) {
    return std::min(
        env_int_at_least(*env, 1, "SMG_RHS_BATCH must be a positive integer"),
        k);
  }
  return k;
}

}  // namespace

template <class KT>
SolveManyResult solve_many(const LinOpMany<KT>& A, const MultiVector<KT>& B,
                           MultiVector<KT>& X, PrecondBase<KT>& M,
                           const SolveManyOptions& opts) {
  SMG_CHECK(B.rows() == X.rows() && B.cols() == X.cols(),
            "solve_many: B/X shape mismatch");
  SolveManyResult out;
  const int k = B.cols();
  if (k == 0 || B.rows() == 0) {
    return out;
  }
  Timer timer;
  const int batch = effective_batch(opts.rhs_batch, k);
  // Reserve one request ID per column up front (contiguous across
  // batches); an explicit base request_id pins the first column's ID.
  const std::uint64_t first_request =
      opts.base.request_id != 0
          ? opts.base.request_id
          : obs::acquire_request_ids(static_cast<std::uint64_t>(k));
  // Per-batch latency: each column observes its own batch's wall time,
  // the honest per-solve latency of the lockstep formulation.
  const auto record_batch = [](std::span<const SolveResult> cols,
                               double seconds) {
    if (!obs::metrics_enabled()) {
      return;
    }
    for (const SolveResult& r : cols) {
      obs::record_solve_metrics(
          "solve_many", seconds, r.iters,
          obs::solve_status_label(r.converged, r.breakdown), r.heals);
    }
  };
  const LinOpMany<KT> apply = [&M](const MultiVector<KT>& r,
                                   MultiVector<KT>& e) { M.apply_many(r, e); };
  if (batch >= k) {
    out.columns =
        detail::batched_pcg(A, apply, std::span<const KT>{B.data(), B.size()},
                            X, M, opts.base, first_request);
    out.precond_seconds = M.apply_seconds();
    out.batches = 1;
    record_batch(out.columns, timer.seconds());
  } else {
    const std::int64_t rows = B.rows();
    const std::size_t n = static_cast<std::size_t>(rows);
    avec<KT> scratch(n);
    const std::span<KT> ss{scratch.data(), n};
    out.batches = 0;
    for (int c0 = 0; c0 < k; c0 += batch) {
      const int bc = std::min(batch, k - c0);
      Timer batch_timer;
      MultiVector<KT> Bc(rows, bc), Xc(rows, bc);
      for (int c = 0; c < bc; ++c) {
        B.extract_col(c0 + c, ss);
        Bc.insert_col(c, std::span<const KT>{scratch.data(), n});
        X.extract_col(c0 + c, ss);
        Xc.insert_col(c, std::span<const KT>{scratch.data(), n});
      }
      std::vector<SolveResult> part = detail::batched_pcg(
          A, apply, std::span<const KT>{Bc.data(), Bc.size()}, Xc, M,
          opts.base,
          first_request + static_cast<std::uint64_t>(c0));
      record_batch(part, batch_timer.seconds());
      for (int c = 0; c < bc; ++c) {
        Xc.extract_col(c, ss);
        X.insert_col(c0 + c, std::span<const KT>{scratch.data(), n});
      }
      out.precond_seconds += M.apply_seconds();
      for (SolveResult& r : part) {
        out.columns.push_back(std::move(r));
      }
      ++out.batches;
    }
  }
  out.solve_seconds = timer.seconds();
  // Per-column timings are the shared batch totals: wall time and
  // preconditioner share are properties of the batched solve, not
  // attributable to one column.
  for (SolveResult& r : out.columns) {
    r.solve_seconds = out.solve_seconds;
    r.precond_seconds = out.precond_seconds;
  }
  return out;
}

template <class KT>
std::future<SolveManyResult> solve_many_async(const LinOpMany<KT>& A,
                                              const MultiVector<KT>& B,
                                              MultiVector<KT>& X,
                                              PrecondBase<KT>& M,
                                              const SolveManyOptions& opts) {
  return std::async(std::launch::async, [&A, &B, &X, &M, opts] {
    return solve_many<KT>(A, B, X, M, opts);
  });
}

template SolveManyResult solve_many<double>(const LinOpMany<double>&,
                                            const MultiVector<double>&,
                                            MultiVector<double>&,
                                            PrecondBase<double>&,
                                            const SolveManyOptions&);
template SolveManyResult solve_many<float>(const LinOpMany<float>&,
                                           const MultiVector<float>&,
                                           MultiVector<float>&,
                                           PrecondBase<float>&,
                                           const SolveManyOptions&);
template std::future<SolveManyResult> solve_many_async<double>(
    const LinOpMany<double>&, const MultiVector<double>&,
    MultiVector<double>&, PrecondBase<double>&, const SolveManyOptions&);
template std::future<SolveManyResult> solve_many_async<float>(
    const LinOpMany<float>&, const MultiVector<float>&, MultiVector<float>&,
    PrecondBase<float>&, const SolveManyOptions&);

}  // namespace smg
