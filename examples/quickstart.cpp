// Quickstart: solve a Poisson problem with CG preconditioned by the
// FP16-storage structured multigrid.
//
//   1. build (or bring) a structured matrix in FP64,
//   2. pick a precision configuration (here the paper's K64P32D16 with
//      setup-then-scale),
//   3. set up the hierarchy once, solve many times.
//
// Run: ./quickstart [n]      (default n = 48: a 48^3 grid, 110k dofs)
#include <cstdio>
#include <cstdlib>

#include "core/mg_precond.hpp"
#include "kernels/spmv.hpp"
#include "obs/exposition.hpp"
#include "obs/report.hpp"
#include "problems/problem.hpp"
#include "solvers/cg.hpp"

using namespace smg;

int main(int argc, char** argv) {
  const int n = argc > 1 ? std::atoi(argv[1]) : 48;
  std::printf("== StructMG-FP16 quickstart: %d^3 Poisson (27-point) ==\n", n);

  // Optional service metrics: SMG_METRICS=on counts solves, cache hits
  // and preconditioner applies (docs/METRICS.md); SMG_METRICS_FILE=path
  // exports OpenMetrics text, with SMG_METRICS_PERIOD=seconds flushing it
  // in the background.
  const auto flusher = obs::MetricsFlusher::start_from_env();

  // 1. The problem: A x = b in FP64 (your application's precision).
  Problem p = make_laplace27(Box{n, n, n});
  std::printf("dofs: %lld, nnz: %lld\n",
              static_cast<long long>(p.A.nrows()),
              static_cast<long long>(p.A.nnz_logical()));

  // 2. Preconditioner configuration: FP32 compute, FP16 storage,
  //    setup-then-scale (the paper's recommended combination).
  MGConfig cfg = config_d16_setup_scale();

  // 3. Setup once...
  MGHierarchy hierarchy(std::move(p.A), cfg);
  std::printf("hierarchy: %d levels, C_G=%.2f, C_O=%.2f, setup %.3fs\n",
              hierarchy.nlevels(), hierarchy.grid_complexity(),
              hierarchy.operator_complexity(), hierarchy.setup_seconds());
  std::printf("matrix storage: %.2f MB (FP64 would need %.2f MB)\n",
              hierarchy.stored_matrix_bytes() / 1e6,
              hierarchy.fp64_matrix_bytes() / 1e6);
  auto M = make_mg_precond<double>(hierarchy);

  // ...solve with CG.  The Krylov operator stays in the application's FP64;
  // the preconditioner internally truncates/recovers (Alg. 2).
  const Problem q = make_laplace27(Box{n, n, n});  // p.A was moved; rebuild
  const LinOp<double> op = [&q](std::span<const double> x,
                                std::span<double> y) {
    spmv<double, double>(q.A, x, y);
  };
  const std::size_t rows = q.b.size();
  avec<double> x(rows, 0.0);
  SolveOptions opts;
  opts.rtol = 1e-10;
  const SolveResult res =
      pcg<double>(op, {q.b.data(), rows}, {x.data(), rows}, *M, opts);

  std::printf("%s in %d iterations, final relres %.2e\n",
              res.status().c_str(), res.iters, res.final_relres);
  std::printf("solve %.3fs of which preconditioner %.3fs (%.0f%%)\n",
              res.solve_seconds, res.precond_seconds,
              100.0 * res.precond_seconds / res.solve_seconds);

  // 4. Optional telemetry: run with SMG_TELEMETRY=counters (aggregate
  //    spans) or =full (plus a Chrome trace); SMG_TELEMETRY_JSON=path and
  //    SMG_TELEMETRY_TRACE=path export the report/timeline as files.
  if (M->telemetry() != nullptr && M->telemetry()->enabled()) {
    std::printf("\n");
    const obs::SolverReport report =
        obs::build_report(*M->telemetry(), hierarchy, /*reference_gbs=*/0.0,
                          Prec::FP64);
    obs::print_report(report);
    obs::emit_from_env(report, *M->telemetry());
  }
  if (flusher == nullptr) {
    obs::emit_metrics_from_env();
  }
  return res.converged ? 0 : 1;
}
