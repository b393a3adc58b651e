// Thread scaling of the SymGS smoother and the full V-cycle (the Fig. 9
// companion this repo adds: the paper's Fig. 8/9 machines run 32-64 threads,
// where a *serial* smoother would Amdahl-cap the whole preconditioner), and
// the one-host substitute for the paper's Fig. 10 strong scaling: Full64
// beside FP16 storage at every thread count.
//
// For each problem at fig8 scale: a single-thread sequential-smoother
// baseline, then OMP_NUM_THREADS in {1,2,4,8} with the Auto wavefront
// smoother, each count timed at FP16 storage (config_d16_setup_scale) and
// at Full64 (config_full64, keys under <problem>/full64/).  Reported per
// config: ms per SymGS (fwd+bwd) sweep pair on the finest level, ms per
// full V-cycle, the speedups vs the baseline, and the FP16-vs-Full64
// V-cycle speedup — emitted both as a table and as one JSON line per
// config for BENCH_*.json harvesting.  (On a single-core host extra
// threads oversubscribe; the interesting series needs >= 2 cores.)
#include <algorithm>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "harness/harness.hpp"
#include "kernels/blas1.hpp"
#include "kernels/symgs.hpp"

#if defined(_OPENMP)
#include <omp.h>
#endif

using namespace smg;

namespace {

struct Timing {
  double symgs_ms = 0.0;   ///< one forward+backward sweep pair, finest level
  double vcycle_ms = 0.0;  ///< one MGPrecond<CT>::apply
  std::string mode;        ///< smoother schedule actually in effect
};

/// Times the finest-level sweeps and full cycles in compute precision CT
/// (float for FP16 storage, double for Full64, matching cfg.compute).
template <class CT>
Timing measure(const Problem& p, MGConfig cfg) {
  StructMat<double> A = p.A;
  MGHierarchy h(std::move(A), cfg);
  MGPrecond<CT> M(&h);

  const Level& l0 = h.level(0);
  const std::size_t n = static_cast<std::size_t>(l0.A_full.nrows());
  avec<CT> f(n, CT{1});
  avec<CT> u(n, CT{0});
  avec<CT> invdf(l0.invdiag.size());
  copy_convert<CT, double>({l0.invdiag.data(), l0.invdiag.size()},
                           {invdf.data(), invdf.size()});
  avec<CT> q2f;
  const CT* q2 = nullptr;
  if (l0.scaled) {
    q2f.resize(l0.q2.size());
    copy_convert<CT, double>({l0.q2.data(), l0.q2.size()},
                             {q2f.data(), q2f.size()});
    q2 = q2f.data();
  }
  const WavefrontSchedule* wf =
      l0.smoother_wf.valid() ? &l0.smoother_wf : nullptr;

  Timing out;
  out.mode = wf != nullptr ? "wavefront" : "sequential";

  const int sweeps = 20;
  const int cycles = 10;
  double best_symgs = 1e30;
  double best_cycle = 1e30;
  for (int rep = 0; rep < 3; ++rep) {  // rep 0 doubles as warm-up
    Timer ts;
    for (int s = 0; s < sweeps; ++s) {
      l0.A_stored.visit([&](const auto& m) {
        gs_forward(m, std::span<const CT>{f.data(), n},
                   std::span<CT>{u.data(), n},
                   std::span<const CT>{invdf.data(), invdf.size()}, q2, wf);
        gs_backward(m, std::span<const CT>{f.data(), n},
                    std::span<CT>{u.data(), n},
                    std::span<const CT>{invdf.data(), invdf.size()}, q2, wf);
      });
    }
    best_symgs = std::min(best_symgs, ts.seconds());

    avec<CT> r(n, CT{1});
    avec<CT> e(n, CT{0});
    Timer tc;
    for (int c = 0; c < cycles; ++c) {
      M.apply({r.data(), n}, {e.data(), n});
    }
    best_cycle = std::min(best_cycle, tc.seconds());
  }
  out.symgs_ms = best_symgs * 1000.0 / sweeps;
  out.vcycle_ms = best_cycle * 1000.0 / cycles;
  return out;
}

void set_threads(int nt) {
#if defined(_OPENMP)
  omp_set_num_threads(nt);
#else
  (void)nt;
#endif
}

}  // namespace

SMG_BENCH(fig9_thread_scaling,
          "Fig. 8/9 threading companion; Fig. 10 measured on one host",
          bench::kPaper) {
  bench::print_header(
      "Thread scaling: SymGS sweeps and full V-cycles, FP16 vs Full64",
      "Fig. 8/9 threading companion; Fig. 10 measured on one host");

  std::vector<int> threads = {1, 2, 4, 8};
#if defined(_OPENMP)
  const int hw = omp_get_num_procs();
#else
  const int hw = 1;
  threads = {1};
#endif
  if (ctx.smoke()) {
    threads.resize(std::min<std::size_t>(threads.size(), 2));  // {1, 2}
  }
  std::printf("host procs: %d (speedups need >= 2; 1-core hosts "
              "oversubscribe)\n\n",
              hw);

  Table t({"problem", "threads", "mode", "symgs ms", "vcycle ms", "symgs x",
           "vcycle x", "fp16 vs full64"});

  std::vector<const char*> problems = {"rhd", "weather", "laplace27",
                                       "solid3d"};
  if (ctx.smoke()) {
    problems = {"rhd", "laplace27"};
  }
  for (const char* name : problems) {
    const Problem p = make_problem(name, ctx.box(name));

    // Baseline: the pre-wavefront configuration (sequential smoother, one
    // thread) — the "seed" single-thread SymGS time regressions are
    // measured against.
    MGConfig seq = config_d16_setup_scale();
    seq.min_coarse_cells = 64;
    seq.smoother_parallel = SmootherParallel::Sequential;
    set_threads(1);
    const Timing base = measure<float>(p, seq);
    ctx.value(std::string(name) + "/t1_seq/symgs_ms", base.symgs_ms, "ms",
              bench::Better::Lower);
    ctx.value(std::string(name) + "/t1_seq/vcycle_ms", base.vcycle_ms, "ms",
              bench::Better::Lower);
    t.row({name, "1", "sequential", Table::fmt(base.symgs_ms, 3),
           Table::fmt(base.vcycle_ms, 3), "1.00", "1.00", "-"});

    for (int nt : threads) {
      set_threads(nt);
      MGConfig cfg = config_d16_setup_scale();
      cfg.min_coarse_cells = 64;
      cfg.smoother_parallel = SmootherParallel::Auto;
      const Timing cur = measure<float>(p, cfg);
      const double sx = base.symgs_ms / cur.symgs_ms;
      const double vx = base.vcycle_ms / cur.vcycle_ms;
      const std::string key =
          std::string(name) + "/t" + std::to_string(nt) + "/";
      ctx.value(key + "symgs_ms", cur.symgs_ms, "ms", bench::Better::Lower);
      ctx.value(key + "vcycle_ms", cur.vcycle_ms, "ms",
                bench::Better::Lower);
      ctx.value(key + "symgs_speedup", sx, "x", bench::Better::Higher);
      ctx.value(key + "vcycle_speedup", vx, "x", bench::Better::Higher);
      t.row({name, std::to_string(nt), cur.mode, Table::fmt(cur.symgs_ms, 3),
             Table::fmt(cur.vcycle_ms, 3), Table::fmt(sx, 2) + "x",
             Table::fmt(vx, 2) + "x", "-"});

      // Fig. 10 substitute: the same thread count at Full64.
      MGConfig full = config_full64();
      full.min_coarse_cells = 64;
      full.smoother_parallel = SmootherParallel::Auto;
      const Timing f64 = measure<double>(p, full);
      const double mix = f64.vcycle_ms / cur.vcycle_ms;
      const std::string fkey =
          std::string(name) + "/full64/t" + std::to_string(nt) + "/";
      ctx.value(fkey + "symgs_ms", f64.symgs_ms, "ms", bench::Better::Lower);
      ctx.value(fkey + "vcycle_ms", f64.vcycle_ms, "ms",
                bench::Better::Lower);
      ctx.value(fkey + "fp16_vcycle_speedup", mix, "x",
                bench::Better::Higher);
      t.row({name, std::to_string(nt), f64.mode + " full64",
             Table::fmt(f64.symgs_ms, 3), Table::fmt(f64.vcycle_ms, 3), "-",
             "-", Table::fmt(mix, 2) + "x"});
    }
  }

  std::printf("\n");
  t.print();
  std::printf("\n(threads=1 Auto keeps the sequential sweep — the <5%% "
              "regression check; wavefront rows parallelize every V-cycle "
              "kernel including the smoother.)\n");
  set_threads(hw);
}
