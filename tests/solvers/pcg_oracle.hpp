// Reference single-RHS preconditioned CG for the solver tests: the plain
// one-vector recurrence exactly as pcg() ran before it became the
// one-column case of the panel recurrence (detail::batched_pcg), so pcg()
// and every solve_many column are checked against an independently written
// implementation of the same arithmetic, bit for bit: the same residual,
// the same fixed-order dot_deterministic/nrm2_deterministic reductions,
// the same axpy/xpay updates and the same self-healing restarts.
//
// Differences from the original source: no telemetry spans, request IDs,
// timings or metrics (bookkeeping that does not touch the iteration
// stream), so calling the reference leaves no trace in a test's counters.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>

#include "kernels/blas1.hpp"
#include "solvers/precond.hpp"
#include "solvers/solver_types.hpp"
#include "util/aligned.hpp"

namespace smg::oracle {

/// Solve A x = b with PCG.  x holds the initial guess on entry.
template <class KT>
SolveResult pcg(const LinOp<KT>& A, std::span<const KT> b, std::span<KT> x,
                PrecondBase<KT>& M, const SolveOptions& opts = {}) {
  SolveResult res;
  const std::size_t n = b.size();
  avec<KT> r(n), z(n), p(n), ap(n);
  std::span<KT> rs{r.data(), n}, zs{z.data(), n}, ps{p.data(), n},
      aps{ap.data(), n};
  const std::span<const KT> rc{r.data(), n}, zc{z.data(), n},
      pc{p.data(), n}, apc{ap.data(), n};

  // r = b - A x
  A(x, aps);
  sub<KT>(b, apc, rs);

  const double bnorm = nrm2_deterministic<KT>(b);
  const double target = opts.rtol * (bnorm > 0.0 ? bnorm : 1.0);
  double rnorm = nrm2_deterministic<KT>(rc);
  if (opts.record_history) {
    res.history.push_back(rnorm / (bnorm > 0.0 ? bnorm : 1.0));
  }

  M.apply(rc, zs);
  copy_convert<KT, KT>(zc, ps);
  double rz = dot_deterministic<KT>(rc, zc);

  // Self-healing bookkeeping (inert unless M can repair itself).
  const bool healing = M.self_healing();
  int heals_left = healing ? opts.heal_retries : 0;
  avec<KT> xgood;
  if (healing) {
    xgood.assign(x.begin(), x.end());
  }
  double stag_ref = rnorm;
  int stag_count = 0;
  bool stag_active = healing && opts.stagnation_window > 0;

  // Report a health event; on a successful repair restart the recurrence
  // from the last finite iterate.
  const auto recover = [&](HealthEvent e) {
    if (heals_left <= 0 || !M.report_health(e)) {
      return false;
    }
    --heals_left;
    ++res.heals;
    if (e == HealthEvent::NonFinite) {
      for (std::size_t i = 0; i < n; ++i) {
        x[i] = xgood[i];
      }
    }
    A(x, aps);
    sub<KT>(b, apc, rs);
    rnorm = nrm2_deterministic<KT>(rc);
    if (!std::isfinite(rnorm)) {
      return false;
    }
    M.apply(rc, zs);
    copy_convert<KT, KT>(zc, ps);
    rz = dot_deterministic<KT>(rc, zc);
    stag_ref = rnorm;
    stag_count = 0;
    return std::isfinite(rz);
  };

  for (int it = 0; it < opts.max_iters; ++it) {
    if (!std::isfinite(rnorm) || !std::isfinite(rz)) {
      if (recover(HealthEvent::NonFinite)) {
        continue;
      }
      res.breakdown = true;
      break;
    }
    if (rnorm < target) {
      res.converged = true;
      break;
    }
    if (healing) {
      for (std::size_t i = 0; i < n; ++i) {
        xgood[i] = x[i];
      }
    }
    A(pc, aps);
    const double pap = dot_deterministic<KT>(pc, apc);
    if (pap == 0.0 || !std::isfinite(pap)) {
      if (!std::isfinite(pap) && recover(HealthEvent::NonFinite)) {
        continue;
      }
      res.breakdown = !std::isfinite(pap);
      break;
    }
    const double alpha = rz / pap;
    axpy<KT>(static_cast<KT>(alpha), pc, x);
    axpy<KT>(static_cast<KT>(-alpha), apc, rs);

    rnorm = nrm2_deterministic<KT>(rc);
    ++res.iters;
    if (opts.record_history) {
      res.history.push_back(rnorm / (bnorm > 0.0 ? bnorm : 1.0));
    }
    if (rnorm < target) {
      res.converged = true;
      break;
    }
    if (stag_active && std::isfinite(rnorm)) {
      if (rnorm <= opts.stagnation_factor * stag_ref) {
        stag_ref = rnorm;
        stag_count = 0;
      } else if (++stag_count >= opts.stagnation_window) {
        if (recover(HealthEvent::Stagnation)) {
          continue;
        }
        stag_active = false;  // nothing left to repair; stop re-reporting
      }
    }

    M.apply(rc, zs);
    const double rz_new = dot_deterministic<KT>(rc, zc);
    const double beta = rz_new / rz;
    rz = rz_new;
    xpay<KT>(zc, static_cast<KT>(beta), ps);
  }

  res.final_relres = rnorm / (bnorm > 0.0 ? bnorm : 1.0);
  if (!std::isfinite(res.final_relres)) {
    res.breakdown = true;
  }
  return res;
}

}  // namespace smg::oracle
