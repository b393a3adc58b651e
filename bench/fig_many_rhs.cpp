// Batched many-RHS throughput: solve_many() vs per-RHS sequential solves.
//
// The throughput-mode claim (ISSUE 6 tentpole): with k right-hand sides in
// one panel, every matrix-shaped kernel streams its matrix once for all k
// columns, so per-solve memory traffic drops toward the vector-only floor
// and solves/sec rises well above the sequential baseline.  This bench
// reports, for k in {1, 2, 4, 8, 16}:
//   (a) the setup/apply split — one HierarchyCache'd setup amortized over
//       every solve (a cache hit must return the same setup, gated),
//   (b) measured solves/sec, batched vs sequential, same fixed per-solve
//       iteration budget (speedup at k = 8 is asserted >= 2x),
//   (c) the k-parameterized byte model per V-cycle level (gated: modeled
//       bytes are machine-independent), with the k = 1 column asserted
//       exactly equal to the single-RHS model, and
//   (d) a bitwise self-check: a panel of k copies of one RHS reproduces
//       the single-RHS convergence history in every column (gated).
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/hierarchy_cache.hpp"
#include "harness/harness.hpp"
#include "perfmodel/bytes.hpp"
#include "solvers/solve_many.hpp"
#include "util/rng.hpp"

#if defined(_OPENMP)
#include <omp.h>
#endif

using namespace smg;

namespace {

/// Modeled compulsory traffic of one k-column V-cycle (smoothing +
/// downstroke + prolongation on every level above the coarsest), priced by
/// the k-parameterized panel models.
double vcycle_many_bytes(const MGHierarchy& h, int k) {
  const MGConfig& cfg = h.config();
  double bytes = 0.0;
  for (int l = 0; l + 1 < h.nlevels(); ++l) {
    const Level& L = h.level(l);
    const int bs = L.A_full.block_size();
    const double mf = static_cast<double>(L.A_full.nrows());
    const double mc = static_cast<double>(L.to_coarse.coarse.size()) * bs;
    const double nnz = static_cast<double>(L.A_full.ncells()) *
                       L.A_full.stencil().ndiag() * bs * bs;
    const Prec mat = cfg.storage_at(l);
    bytes += cfg.nu1 * symgs_sweep_many_bytes(nnz, mf, mat, cfg.compute,
                                              L.scaled, k);
    bytes += downstroke_many_bytes(nnz, mf, mc, mat, cfg.compute, L.scaled,
                                   /*fused=*/true, k);
    bytes += prolong_many_bytes(mf, mc, cfg.compute, k);
    bytes += cfg.nu2 * symgs_sweep_many_bytes(nnz, mf, mat, cfg.compute,
                                              L.scaled, k);
  }
  return bytes;
}

/// Same sum priced by the single-RHS models (the k = 1 reference).
double vcycle_single_bytes(const MGHierarchy& h) {
  const MGConfig& cfg = h.config();
  double bytes = 0.0;
  for (int l = 0; l + 1 < h.nlevels(); ++l) {
    const Level& L = h.level(l);
    const int bs = L.A_full.block_size();
    const double mf = static_cast<double>(L.A_full.nrows());
    const double mc = static_cast<double>(L.to_coarse.coarse.size()) * bs;
    const double nnz = static_cast<double>(L.A_full.ncells()) *
                       L.A_full.stencil().ndiag() * bs * bs;
    const Prec mat = cfg.storage_at(l);
    bytes += cfg.nu1 *
             symgs_sweep_bytes(nnz, mf, mat, cfg.compute, L.scaled);
    bytes +=
        downstroke_bytes(nnz, mf, mc, mat, cfg.compute, L.scaled,
                         /*fused=*/true);
    bytes += prolong_bytes(mf, mc, cfg.compute);
    bytes += cfg.nu2 *
             symgs_sweep_bytes(nnz, mf, mat, cfg.compute, L.scaled);
  }
  return bytes;
}

}  // namespace

SMG_BENCH(fig_many_rhs,
          "ISSUE 6 tentpole: many-RHS throughput (PAPER.md S5 bandwidth "
          "model amortized over a panel)",
          bench::kSmoke | bench::kPaper) {
  bench::print_header(
      "Batched many-RHS V-cycle: one matrix stream for k right-hand sides",
      "ISSUE 6 tentpole; PAPER.md S5 (memory-bound kernels)");
#if defined(_OPENMP)
  std::printf("host procs: %d, threads: %d\n\n", omp_get_num_procs(),
              omp_get_max_threads());
#endif

  const Problem p = make_problem("laplace27", ctx.box("laplace27"));
  MGConfig cfg = config_d16_setup_scale();
  cfg.min_coarse_cells = 64;
  const std::size_t n = p.b.size();

  // --- (a) setup/apply split through the hierarchy cache ------------------
  HierarchyCache cache(2);
  Timer cold_t;
  const auto h = cache.get_or_build(p.A, cfg);
  const double cold_ms = cold_t.seconds() * 1e3;
  Timer warm_t;
  const auto h_again = cache.get_or_build(p.A, cfg);
  const double warm_ms = warm_t.seconds() * 1e3;
  const bool reused = h.get() == h_again.get();
  std::printf("setup/apply split: cold setup %.2f ms, cached lookup %.4f ms, "
              "reused=%s (hits %llu, misses %llu)\n\n",
              cold_ms, warm_ms, reused ? "yes" : "NO",
              static_cast<unsigned long long>(cache.hits()),
              static_cast<unsigned long long>(cache.misses()));
  ctx.value("cache/hit_reuses_setup", reused ? 1.0 : 0.0, "bool",
            bench::Better::None, /*gate=*/true);
  ctx.value("cache/cold_setup_ms", cold_ms, "ms", bench::Better::Lower);
  if (!reused) {
    ctx.fail("hierarchy cache rebuilt on what must be a hit");
  }

  auto M = make_mg_precond<double>(*h);
  const LinOp<double> op = [&p](std::span<const double> x,
                                std::span<double> y) {
    spmv<double, double>(p.A, x, y);
  };
  const LinOpMany<double> op_many = make_spmv_many_op<double>(p.A);

  // Distinct right-hand sides, deterministic.
  const int kmax = 16;
  std::vector<avec<double>> rhs(static_cast<std::size_t>(kmax));
  for (int c = 0; c < kmax; ++c) {
    auto& b = rhs[static_cast<std::size_t>(c)];
    b.resize(n);
    Rng rng(0xB0B5u + static_cast<unsigned>(c));
    for (std::size_t i = 0; i < n; ++i) {
      b[i] = rng.uniform(-1.0, 1.0);
    }
  }

  // --- (b) measured throughput: batched vs sequential ---------------------
  // Fixed per-solve work (same iteration budget, no early exit) so the
  // comparison is pure traffic/bandwidth, not convergence luck.
  SolveOptions sopts;
  sopts.max_iters = ctx.smoke() ? 8 : 10;
  sopts.rtol = 0.0;
  sopts.record_history = false;
  const std::vector<int> ks = {1, 2, 4, 8, 16};
  const int reps = ctx.opts().repeats;
  const int warmup = ctx.opts().warmup;

  Table t({"k", "seq s", "batch s", "seq solves/s", "batch solves/s",
           "speedup"});
  double speedup_at_8 = 0.0;
  for (int k : ks) {
    std::vector<double> seq_s, bat_s;
    avec<double> x(n);
    for (int rep = 0; rep < warmup + reps; ++rep) {
      Timer timer;
      for (int c = 0; c < k; ++c) {
        x.assign(n, 0.0);
        (void)pcg<double>(op,
                          {rhs[static_cast<std::size_t>(c)].data(), n},
                          {x.data(), n}, *M, sopts);
      }
      if (rep >= warmup) {
        seq_s.push_back(timer.seconds());
      }
    }
    MultiVector<double> B(static_cast<std::int64_t>(n), k),
        X(static_cast<std::int64_t>(n), k);
    for (int c = 0; c < k; ++c) {
      B.insert_col(c, std::span<const double>{
                          rhs[static_cast<std::size_t>(c)].data(), n});
    }
    SolveManyOptions mopts;
    mopts.base = sopts;
    // Pin the batch width: an ambient SMG_RHS_BATCH would silently chunk
    // the measured panel and fail the gate on a sub-SIMD-width batch.
    mopts.rhs_batch = k;
    for (int rep = 0; rep < warmup + reps; ++rep) {
      X.fill(0.0);
      Timer timer;
      (void)solve_many<double>(op_many, B, X, *M, mopts);
      if (rep >= warmup) {
        bat_s.push_back(timer.seconds());
      }
    }
    const double seq_min = *std::min_element(seq_s.begin(), seq_s.end());
    const double bat_min = *std::min_element(bat_s.begin(), bat_s.end());
    const double speedup = seq_min / bat_min;
    if (k == 8) {
      speedup_at_8 = speedup;
    }
    const std::string key = "k" + std::to_string(k);
    ctx.samples(key + "/sequential_s", seq_s, "s", bench::Better::Lower);
    ctx.samples(key + "/batched_s", bat_s, "s", bench::Better::Lower);
    ctx.value(key + "/speedup_vs_sequential", speedup, "x",
              bench::Better::Higher);
    t.row({std::to_string(k), Table::fmt(seq_min, 4), Table::fmt(bat_min, 4),
           Table::fmt(k / seq_min, 1), Table::fmt(k / bat_min, 1),
           Table::fmt(speedup, 2) + "x"});
  }
  std::printf("measured throughput (fixed %d CG iterations per solve):\n",
              sopts.max_iters);
  t.print();
  std::printf("\nspeedup at k=8: %.2fx (required >= 2x)\n", speedup_at_8);
  if (speedup_at_8 < 2.0) {
    ctx.fail("batched k=8 throughput below 2x the sequential baseline");
  }

  // --- (c) k-parameterized byte model (machine-independent, gated) --------
  std::printf("\nmodeled V-cycle traffic per solve (panel of k columns):\n");
  Table mt({"k", "total MB", "per-solve MB", "vs k=1"});
  const double single = vcycle_single_bytes(*h);
  const double many_k1 = vcycle_many_bytes(*h, 1);
  if (std::memcmp(&single, &many_k1, sizeof(double)) != 0) {
    ctx.fail("k=1 panel byte model != single-RHS byte model (bitwise)");
  }
  for (int k : ks) {
    const double total = vcycle_many_bytes(*h, k);
    const double per = total / k;
    ctx.value("model/k" + std::to_string(k) + "_vcycle_mb_per_solve",
              per / (1024.0 * 1024.0), "MB", bench::Better::Lower,
              /*gate=*/true);
    mt.row({std::to_string(k), Table::fmt(total / (1024.0 * 1024.0), 2),
            Table::fmt(per / (1024.0 * 1024.0), 2),
            Table::fmt(per / single, 3)});
  }
  mt.print();
  // The amortization the measured speedup rides on: per-solve bytes must
  // shrink strictly with k (matrix+q2+inv_diag stream once per panel).
  for (std::size_t i = 1; i < ks.size(); ++i) {
    if (vcycle_many_bytes(*h, ks[i]) / ks[i] >=
        vcycle_many_bytes(*h, ks[i - 1]) / ks[i - 1]) {
      ctx.fail("per-solve byte model not monotone in k");
    }
  }

  // --- (d) bitwise identity self-check ------------------------------------
  SolveOptions iopts;
  iopts.max_iters = 60;
  iopts.rtol = 1e-9;
  // Bitwise identity needs thread-count-invariant reductions: the plain
  // dot() combines per-thread partials in scheduler order, so two ulp-equal
  // solves can diverge in the last bit under OpenMP.
  iopts.deterministic_reductions = true;
  avec<double> x1(n, 0.0);
  const SolveResult single_res =
      pcg<double>(op, {p.b.data(), n}, {x1.data(), n}, *M, iopts);
  const int kid = 4;
  MultiVector<double> Bi(static_cast<std::int64_t>(n), kid),
      Xi(static_cast<std::int64_t>(n), kid);
  for (int c = 0; c < kid; ++c) {
    Bi.insert_col(c, std::span<const double>{p.b.data(), n});
  }
  SolveManyOptions imopts;
  imopts.base = iopts;
  const SolveManyResult many_res =
      solve_many<double>(op_many, Bi, Xi, *M, imopts);
  bool identical = many_res.columns.size() == static_cast<std::size_t>(kid);
  for (const SolveResult& r : many_res.columns) {
    identical = identical && r.iters == single_res.iters &&
                r.history == single_res.history &&
                r.final_relres == single_res.final_relres;
  }
  for (int c = 0; identical && c < kid; ++c) {
    for (std::int64_t rr = 0; rr < Xi.rows(); ++rr) {
      if (std::memcmp(&Xi.at(rr, c), &x1[static_cast<std::size_t>(rr)],
                      sizeof(double)) != 0) {
        identical = false;
        break;
      }
    }
  }
  std::printf("\nbitwise identity (k=%d copies vs single solve, %d iters): "
              "%s\n",
              kid, single_res.iters, identical ? "yes" : "NO");
  ctx.value("identity/histories_identical", identical ? 1.0 : 0.0, "bool",
            bench::Better::None, /*gate=*/true);
  if (!identical) {
    ctx.fail("panel of identical RHS diverged from the single-RHS solve");
  }
}
