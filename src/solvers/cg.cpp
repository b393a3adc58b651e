#include "solvers/cg.hpp"

#include <utility>

#include "kernels/blas1.hpp"
#include "obs/metrics.hpp"
#include "solvers/solve_many.hpp"
#include "util/multivector.hpp"
#include "util/timer.hpp"

namespace smg {

template <class KT>
SolveResult pcg(const LinOp<KT>& A, std::span<const KT> b, std::span<KT> x,
                PrecondBase<KT>& M, const SolveOptions& opts) {
  Timer timer;
  // A one-column panel is a plain contiguous vector: b is read in place,
  // x is copied in and back out by parallel loops, and the operator and the
  // single-vector apply see the panels as spans.
  const std::size_t n = b.size();
  MultiVector<KT> X(static_cast<std::int64_t>(n), 1);
  copy_convert<KT, KT>(std::span<const KT>{x}, {X.data(), n});
  const LinOpMany<KT> op = [&](const MultiVector<KT>& u, MultiVector<KT>& v) {
    A({u.data(), n}, {v.data(), n});
  };
  const LinOpMany<KT> apply = [&](const MultiVector<KT>& r,
                                  MultiVector<KT>& e) {
    M.apply({r.data(), n}, {e.data(), n});
  };

  SolveResult res = std::move(detail::batched_pcg<KT>(
      op, apply, b, X, M, opts,
      opts.request_id != 0 ? opts.request_id : obs::acquire_request_ids(1))
                                  .front());
  copy_convert<KT, KT>({X.data(), n}, x);
  res.solve_seconds = timer.seconds();
  res.precond_seconds = M.apply_seconds();
  obs::record_solve_metrics(
      "cg", res.solve_seconds, res.iters,
      obs::solve_status_label(res.converged, res.breakdown), res.heals);
  return res;
}

template SolveResult pcg<double>(const LinOp<double>&, std::span<const double>,
                                 std::span<double>, PrecondBase<double>&,
                                 const SolveOptions&);
template SolveResult pcg<float>(const LinOp<float>&, std::span<const float>,
                                std::span<float>, PrecondBase<float>&,
                                const SolveOptions&);

}  // namespace smg
