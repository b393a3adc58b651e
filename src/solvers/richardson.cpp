#include "solvers/richardson.hpp"

#include <cmath>

#include "kernels/blas1.hpp"
#include "obs/telemetry.hpp"
#include "util/aligned.hpp"
#include "util/timer.hpp"

namespace smg {

template <class KT>
SolveResult richardson(const LinOp<KT>& A, std::span<const KT> b,
                       std::span<KT> x, PrecondBase<KT>& M,
                       const SolveOptions& opts) {
  SolveResult res;
  Timer timer;
  M.reset_timing();

  const obs::InstallGuard obs_guard(M.telemetry());
  const obs::ScopedSpan solve_span(obs::Kind::Solve);

  const std::size_t n = b.size();
  avec<KT> r(n), e(n);

  const double bnorm = nrm2_deterministic<KT>(b);
  const double scale = bnorm > 0.0 ? bnorm : 1.0;
  const double target = opts.rtol * scale;

  double rnorm = 0.0;
  for (int it = 0; it <= opts.max_iters; ++it) {
    const obs::ScopedSpan iter_span(obs::Kind::Iteration);
    A(x, {r.data(), n});
    for (std::size_t i = 0; i < n; ++i) {
      r[i] = b[i] - r[i];
    }
    rnorm = nrm2_deterministic<KT>(std::span<const KT>{r.data(), n});
    if (opts.record_history) {
      res.history.push_back(rnorm / scale);
    }
    if (!std::isfinite(rnorm)) {
      res.breakdown = true;
      break;
    }
    if (rnorm < target) {
      res.converged = true;
      break;
    }
    if (it == opts.max_iters) {
      break;
    }
    M.apply({r.data(), n}, {e.data(), n});
    axpy<KT>(KT{1}, std::span<const KT>{e.data(), n}, x);
    ++res.iters;
  }

  res.final_relres = rnorm / scale;
  res.solve_seconds = timer.seconds();
  res.precond_seconds = M.apply_seconds();
  return res;
}

template SolveResult richardson<double>(const LinOp<double>&,
                                        std::span<const double>,
                                        std::span<double>,
                                        PrecondBase<double>&,
                                        const SolveOptions&);
template SolveResult richardson<float>(const LinOp<float>&,
                                       std::span<const float>,
                                       std::span<float>, PrecondBase<float>&,
                                       const SolveOptions&);

}  // namespace smg
