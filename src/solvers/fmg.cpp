#include "solvers/fmg.hpp"

#include <algorithm>
#include <cmath>

#include "kernels/blas1.hpp"
#include "obs/telemetry.hpp"
#include "util/aligned.hpp"
#include "util/timer.hpp"

namespace smg {

namespace {

/// Restore the caller's cycle shape on every exit path (fmg_solve flips it
/// twice: F for the bootstrap apply, V for polish).
template <class KT>
class ShapeGuard {
 public:
  explicit ShapeGuard(PrecondBase<KT>& m) : m_(m), prev_(m.cycle_shape()) {}
  ~ShapeGuard() { m_.set_cycle_shape(prev_); }
  ShapeGuard(const ShapeGuard&) = delete;
  ShapeGuard& operator=(const ShapeGuard&) = delete;

 private:
  PrecondBase<KT>& m_;
  CycleShape prev_;
};

}  // namespace

double fmg_disc_tolerance(const Box& box, int order) noexcept {
  const int nmax = std::max({box.nx, box.ny, box.nz, 1});
  const double h = 1.0 / (static_cast<double>(nmax) + 1.0);
  return std::pow(h, static_cast<double>(order));
}

template <class KT>
FmgResult fmg_solve(const LinOp<KT>& A, std::span<const KT> b,
                    std::span<KT> x, PrecondBase<KT>& M,
                    const FmgOptions<KT>& opts) {
  FmgResult res;
  Timer timer;
  M.reset_timing();

  const obs::InstallGuard obs_guard(M.telemetry());
  const obs::ScopedSpan solve_span(obs::Kind::Solve);

  const std::size_t n = b.size();
  avec<KT> r(n), e(n), diff(n), good(n);

  const double bnorm = nrm2_deterministic<KT>(b);
  const double scale = bnorm > 0.0 ? bnorm : 1.0;
  const double target = opts.rtol * scale;
  const bool error_stop =
      !opts.u_exact.empty() && opts.u_exact.size() == n && opts.error_tol > 0;

  const ShapeGuard<KT> shape_guard(M);

  // Bootstrap: one F-cycle from a zero guess IS the solve candidate.
  M.set_cycle_shape(CycleShape::F);
  M.apply(b, x);
  M.set_cycle_shape(CycleShape::V);

  const auto measure = [&]() {
    const obs::ScopedSpan iter_span(obs::Kind::Iteration);
    A(x, {r.data(), n});
    for (std::size_t i = 0; i < n; ++i) {
      r[i] = b[i] - r[i];
    }
    const double rnorm =
        nrm2_deterministic<KT>(std::span<const KT>{r.data(), n});
    if (opts.record_history) {
      res.history.push_back(rnorm / scale);
    }
    if (error_stop && std::isfinite(rnorm)) {
      for (std::size_t i = 0; i < n; ++i) {
        diff[i] = x[i] - opts.u_exact[i];
      }
      res.final_error =
          nrm2_deterministic<KT>(std::span<const KT>{diff.data(), n});
      if (opts.record_history) {
        res.error_history.push_back(res.final_error);
      }
    }
    return rnorm;
  };

  double rnorm = measure();
  for (int it = 0; it <= opts.max_polish; ++it) {
    if (!std::isfinite(rnorm)) {
      // Non-finite iterate (e.g. FP16 storage overflow mid-cycle): ask a
      // self-healing preconditioner to repair, rewind to the last finite
      // iterate (zero for a failed bootstrap), and retry the apply.
      if (M.self_healing() && res.heals < opts.heal_retries &&
          M.report_health(HealthEvent::NonFinite)) {
        ++res.heals;
        if (res.heals == 1 && res.polish_iters == 0) {
          // The bootstrap itself tripped: redo the whole F-cycle.
          set_zero(std::span<KT>{x.data(), n});
          M.set_cycle_shape(CycleShape::F);
          M.apply(b, x);
          M.set_cycle_shape(CycleShape::V);
        } else {
          copy_convert<KT, KT>({good.data(), n}, x);
        }
        rnorm = measure();
        continue;
      }
      res.breakdown = true;
      break;
    }
    if (error_stop && res.final_error >= 0.0 &&
        res.final_error <= opts.error_tol) {
      res.converged = true;
      break;
    }
    if (rnorm < target) {
      res.converged = true;
      break;
    }
    if (it == opts.max_polish) {
      break;
    }
    copy_convert<KT, KT>({x.data(), n}, {good.data(), n});
    M.apply({r.data(), n}, {e.data(), n});
    axpy<KT>(KT{1}, std::span<const KT>{e.data(), n}, x);
    ++res.polish_iters;
    rnorm = measure();
  }

  res.final_relres = rnorm / scale;
  res.solve_seconds = timer.seconds();
  res.precond_seconds = M.apply_seconds();
  return res;
}

template <class KT>
FmgResult fmg_solve_many(const LinOp<KT>& A, const MultiVector<KT>& B,
                         MultiVector<KT>& X, PrecondBase<KT>& M,
                         const FmgOptions<KT>& opts) {
  FmgResult res;
  Timer timer;
  M.reset_timing();

  const obs::InstallGuard obs_guard(M.telemetry());
  const obs::ScopedSpan solve_span(obs::Kind::Solve);

  const std::size_t n = static_cast<std::size_t>(B.rows());
  const int k = B.cols();
  MultiVector<KT> R(static_cast<std::int64_t>(n), k);
  MultiVector<KT> E(static_cast<std::int64_t>(n), k);
  avec<KT> xc(n), bc(n), rc(n), diff(n);
  const bool error_stop =
      !opts.u_exact.empty() && opts.u_exact.size() == n && opts.error_tol > 0;

  std::vector<double> scales(static_cast<std::size_t>(k), 1.0);
  for (int c = 0; c < k; ++c) {
    B.extract_col(c, {bc.data(), n});
    const double bn = nrm2_deterministic<KT>({bc.data(), n});
    scales[static_cast<std::size_t>(c)] = bn > 0.0 ? bn : 1.0;
  }

  const ShapeGuard<KT> shape_guard(M);
  M.set_cycle_shape(CycleShape::F);
  M.apply_many(B, X);
  M.set_cycle_shape(CycleShape::V);

  // Residual/error measurement across all columns; the panel is polished in
  // lockstep (a column that already converged receives further corrections
  // — harmless, they only shrink its residual further).
  const auto measure = [&]() {
    const obs::ScopedSpan iter_span(obs::Kind::Iteration);
    double worst_rel = 0.0;
    double worst_err = error_stop ? 0.0 : -1.0;
    for (int c = 0; c < k; ++c) {
      X.extract_col(c, {xc.data(), n});
      B.extract_col(c, {bc.data(), n});
      A({xc.data(), n}, {rc.data(), n});
      for (std::size_t i = 0; i < n; ++i) {
        rc[i] = bc[i] - rc[i];
      }
      R.insert_col(c, {rc.data(), n});
      const double rel = nrm2_deterministic<KT>({rc.data(), n}) /
                         scales[static_cast<std::size_t>(c)];
      worst_rel = std::max(worst_rel, rel);
      if (error_stop) {
        for (std::size_t i = 0; i < n; ++i) {
          diff[i] = xc[i] - opts.u_exact[i];
        }
        worst_err =
            std::max(worst_err, nrm2_deterministic<KT>({diff.data(), n}));
      }
    }
    res.final_relres = worst_rel;
    res.final_error = worst_err;
    if (opts.record_history) {
      res.history.push_back(worst_rel);
      if (error_stop) {
        res.error_history.push_back(worst_err);
      }
    }
    return worst_rel;
  };

  double rel = measure();
  for (int it = 0; it <= opts.max_polish; ++it) {
    if (!std::isfinite(rel)) {
      res.breakdown = true;
      break;
    }
    if ((error_stop && res.final_error >= 0.0 &&
         res.final_error <= opts.error_tol) ||
        rel < opts.rtol) {
      res.converged = true;
      break;
    }
    if (it == opts.max_polish) {
      break;
    }
    M.apply_many(R, E);
    for (int c = 0; c < k; ++c) {
      X.extract_col(c, {xc.data(), n});
      E.extract_col(c, {rc.data(), n});
      axpy<KT>(KT{1}, std::span<const KT>{rc.data(), n}, {xc.data(), n});
      X.insert_col(c, {xc.data(), n});
    }
    ++res.polish_iters;
    rel = measure();
  }

  res.solve_seconds = timer.seconds();
  res.precond_seconds = M.apply_seconds();
  return res;
}

template FmgResult fmg_solve<double>(const LinOp<double>&,
                                     std::span<const double>,
                                     std::span<double>, PrecondBase<double>&,
                                     const FmgOptions<double>&);
template FmgResult fmg_solve<float>(const LinOp<float>&,
                                    std::span<const float>, std::span<float>,
                                    PrecondBase<float>&,
                                    const FmgOptions<float>&);
template FmgResult fmg_solve_many<double>(const LinOp<double>&,
                                          const MultiVector<double>&,
                                          MultiVector<double>&,
                                          PrecondBase<double>&,
                                          const FmgOptions<double>&);
template FmgResult fmg_solve_many<float>(const LinOp<float>&,
                                         const MultiVector<float>&,
                                         MultiVector<float>&,
                                         PrecondBase<float>&,
                                         const FmgOptions<float>&);

}  // namespace smg
