#include "solvers/gmres.hpp"

#include <cmath>
#include <vector>

#include "kernels/blas1.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "util/aligned.hpp"
#include "util/timer.hpp"

namespace smg {

template <class KT>
SolveResult pgmres(const LinOp<KT>& A, std::span<const KT> b, std::span<KT> x,
                   PrecondBase<KT>& M, const SolveOptions& opts) {
  SolveResult res;
  Timer timer;
  M.reset_timing();

  res.request_id = opts.request_id != 0 ? opts.request_id
                                        : obs::acquire_request_ids(1);
  const obs::RequestScope req_scope(res.request_id);

  const obs::InstallGuard obs_guard(M.telemetry());
  if (obs::Telemetry* t = obs::current()) {
    t->note_request(res.request_id);
  }
  const obs::ScopedSpan solve_span(obs::Kind::Solve);

  const std::size_t n = b.size();
  const int m = opts.restart;

  // No fill: each vector is first touched by the parallel kernel that
  // produces it (V[0] by sub, V[j+1] by the normalization, w by A, z by M),
  // so basis vectors a solve never reaches are never touched at all.
  std::vector<uvec<KT>> V(static_cast<std::size_t>(m) + 1);
  for (auto& v : V) {
    v.resize(n);
  }
  uvec<KT> w(n), z(n);
  // Hessenberg in column-major: H[(j)*(m+1) + i].
  std::vector<double> H(static_cast<std::size_t>(m + 1) * m, 0.0);
  std::vector<double> cs(static_cast<std::size_t>(m), 0.0);
  std::vector<double> sn(static_cast<std::size_t>(m), 0.0);
  std::vector<double> g(static_cast<std::size_t>(m) + 1, 0.0);

  const double bnorm = nrm2_deterministic<KT>(b);
  const double scale = bnorm > 0.0 ? bnorm : 1.0;
  const double target = opts.rtol * scale;

  // Initial residual into V[0].
  A(x, {w.data(), n});
  sub<KT>(b, {w.data(), n}, {V[0].data(), n});
  double beta = nrm2_deterministic<KT>(std::span<const KT>{V[0].data(), n});
  if (opts.record_history) {
    res.history.push_back(beta / scale);
  }

  // Self-healing bookkeeping (inert — zero extra work and a bitwise
  // identical iteration stream — unless M can actually repair itself).
  const bool healing = M.self_healing();
  int heals_left = healing ? opts.heal_retries : 0;
  avec<KT> xgood;
  if (healing) {
    xgood.assign(x.begin(), x.end());
  }
  double stag_ref = beta;
  int stag_count = 0;
  bool stag_active = healing && opts.stagnation_window > 0;
  bool invariant = false;      ///< exact H[j+1,j] == 0 hit this cycle
  bool discard_cycle = false;  ///< mid-cycle repair: drop the partial basis

  // Recompute the true residual of the current x into V[0]/beta.
  const auto true_residual = [&] {
    A(x, {w.data(), n});
    sub<KT>(b, {w.data(), n}, {V[0].data(), n});
    beta = nrm2_deterministic<KT>(std::span<const KT>{V[0].data(), n});
  };

  while (res.iters < opts.max_iters) {
    if (!std::isfinite(beta)) {
      // The previous cycle's update (or the caller's initial data) is
      // poisoned.  With a self-healing preconditioner: repair, rewind to
      // the last finite iterate, restart.  Otherwise surface the breakdown.
      bool recovered = false;
      if (heals_left > 0 && M.report_health(HealthEvent::NonFinite)) {
        --heals_left;
        ++res.heals;
        for (std::size_t i = 0; i < n; ++i) {
          x[i] = xgood[i];
        }
        true_residual();
        stag_ref = beta;
        stag_count = 0;
        recovered = std::isfinite(beta);
      }
      if (!recovered) {
        res.breakdown = true;
        break;
      }
    }
    if (beta < target) {
      break;  // converged on the true residual
    }
    if (healing) {
      for (std::size_t i = 0; i < n; ++i) {
        xgood[i] = x[i];
      }
    }
    invariant = false;

    // Start (or restart) an Arnoldi cycle.
    scal<KT>(static_cast<KT>(1.0 / beta), {V[0].data(), n});
    std::fill(g.begin(), g.end(), 0.0);
    g[0] = beta;

    int j = 0;
    bool stop = false;
    for (; j < m && res.iters < opts.max_iters && !stop; ++j) {
      const obs::ScopedSpan iter_span(obs::Kind::Iteration);
      // w = A M^{-1} v_j
      M.apply({V[static_cast<std::size_t>(j)].data(), n}, {z.data(), n});
      A({z.data(), n}, {w.data(), n});

      // Modified Gram-Schmidt.
      for (int i = 0; i <= j; ++i) {
        const double h = dot_deterministic<KT>(
            std::span<const KT>{w.data(), n},
            std::span<const KT>{V[static_cast<std::size_t>(i)].data(), n});
        H[static_cast<std::size_t>(j) * (m + 1) + i] = h;
        axpy<KT>(static_cast<KT>(-h),
                 std::span<const KT>{V[static_cast<std::size_t>(i)].data(), n},
                 std::span<KT>{w.data(), n});
      }
      const double hlast =
          nrm2_deterministic<KT>(std::span<const KT>{w.data(), n});
      H[static_cast<std::size_t>(j) * (m + 1) + j + 1] = hlast;
      if (!std::isfinite(hlast)) {
        // Column j is poisoned; columns 0..j-1 are still a valid basis
        // (j is not incremented on this exit path).
        if (heals_left > 0 && M.report_health(HealthEvent::NonFinite)) {
          --heals_left;
          ++res.heals;
          discard_cycle = true;
        } else {
          res.breakdown = true;
        }
        stop = true;
        break;
      }
      if (hlast > 0.0) {
        KT* SMG_RESTRICT vn = V[static_cast<std::size_t>(j) + 1].data();
        const KT* SMG_RESTRICT wv = w.data();
#pragma omp parallel for simd
        for (std::size_t i = 0; i < n; ++i) {
          vn[i] = static_cast<KT>(static_cast<double>(wv[i]) / hlast);
        }
      }

      // Apply the accumulated Givens rotations to the new column.
      double* col = H.data() + static_cast<std::size_t>(j) * (m + 1);
      for (int i = 0; i < j; ++i) {
        const double t = cs[static_cast<std::size_t>(i)] * col[i] +
                         sn[static_cast<std::size_t>(i)] * col[i + 1];
        col[i + 1] = -sn[static_cast<std::size_t>(i)] * col[i] +
                     cs[static_cast<std::size_t>(i)] * col[i + 1];
        col[i] = t;
      }
      // New rotation to zero col[j+1].
      const double denom = std::hypot(col[j], col[j + 1]);
      if (denom == 0.0) {
        cs[static_cast<std::size_t>(j)] = 1.0;
        sn[static_cast<std::size_t>(j)] = 0.0;
      } else {
        cs[static_cast<std::size_t>(j)] = col[j] / denom;
        sn[static_cast<std::size_t>(j)] = col[j + 1] / denom;
      }
      col[j] = denom;
      col[j + 1] = 0.0;
      const double gj = g[static_cast<std::size_t>(j)];
      g[static_cast<std::size_t>(j)] = cs[static_cast<std::size_t>(j)] * gj;
      g[static_cast<std::size_t>(j) + 1] =
          -sn[static_cast<std::size_t>(j)] * gj;

      beta = std::abs(g[static_cast<std::size_t>(j) + 1]);
      ++res.iters;
      if (opts.record_history) {
        res.history.push_back(beta / scale);
      }
      if (beta < target || hlast == 0.0) {
        invariant = hlast == 0.0;
        stop = true;
        ++j;  // include this column in the solution update
        break;
      }
      if (stag_active) {
        if (beta <= opts.stagnation_factor * stag_ref) {
          stag_ref = beta;
          stag_count = 0;
        } else if (++stag_count >= opts.stagnation_window) {
          if (heals_left > 0 && M.report_health(HealthEvent::Stagnation)) {
            --heals_left;
            ++res.heals;
            stag_ref = beta;
            stag_count = 0;
            discard_cycle = true;
            stop = true;
            break;
          }
          stag_active = false;  // nothing left to repair; stop re-reporting
        }
      }
    }

    if (discard_cycle) {
      // The preconditioner repaired itself mid-cycle: the basis was built
      // against the old M, and x += M^{-1}(V y) would mix the two.  Drop
      // the partial cycle and restart from the unchanged (finite) x.
      discard_cycle = false;
      true_residual();
      continue;
    }

    // Solve the j x j triangular system and update x += M^{-1} (V y) — also
    // on a breakdown exit, where columns 0..j-1 are the finite prefix of the
    // basis: the returned x must reflect the progress actually made.
    if (j > 0) {
      std::vector<double> y(static_cast<std::size_t>(j), 0.0);
      for (int i = j - 1; i >= 0; --i) {
        double acc = g[static_cast<std::size_t>(i)];
        for (int kk = i + 1; kk < j; ++kk) {
          acc -= H[static_cast<std::size_t>(kk) * (m + 1) + i] *
                 y[static_cast<std::size_t>(kk)];
        }
        const double hii = H[static_cast<std::size_t>(i) * (m + 1) + i];
        y[static_cast<std::size_t>(i)] = hii != 0.0 ? acc / hii : 0.0;
      }
      set_zero(std::span<KT>{w.data(), n});
      for (int i = 0; i < j; ++i) {
        axpy<KT>(static_cast<KT>(y[static_cast<std::size_t>(i)]),
                 std::span<const KT>{V[static_cast<std::size_t>(i)].data(), n},
                 std::span<KT>{w.data(), n});
      }
      M.apply({w.data(), n}, {z.data(), n});
      axpy<KT>(KT{1}, std::span<const KT>{z.data(), n}, x);
    }

    // True residual for the next cycle and the final report — recomputed on
    // the breakdown paths too, so final_relres matches the returned x
    // instead of a stale recurrence estimate.
    true_residual();

    if (res.breakdown) {
      break;
    }
    if (invariant && !(beta < target)) {
      // Exact happy breakdown (H[j+1,j] == 0) that did not reach tolerance:
      // A M^{-1} maps the current Krylov space into itself, so this x is the
      // best this space offers and restarting from its residual cannot leave
      // the invariant subspace.  Surface it instead of stalling silently.
      res.breakdown = true;
      break;
    }
  }

  res.converged = std::isfinite(beta) && beta < target && !res.breakdown;
  res.final_relres = beta / scale;
  if (!std::isfinite(res.final_relres)) {
    res.breakdown = true;
  }
  res.solve_seconds = timer.seconds();
  res.precond_seconds = M.apply_seconds();
  obs::record_solve_metrics(
      "gmres", res.solve_seconds, res.iters,
      obs::solve_status_label(res.converged, res.breakdown), res.heals);
  return res;
}

template SolveResult pgmres<double>(const LinOp<double>&,
                                    std::span<const double>,
                                    std::span<double>, PrecondBase<double>&,
                                    const SolveOptions&);
template SolveResult pgmres<float>(const LinOp<float>&,
                                   std::span<const float>, std::span<float>,
                                   PrecondBase<float>&, const SolveOptions&);

}  // namespace smg
