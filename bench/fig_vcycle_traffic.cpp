// Fused vs two-step downstroke: measured kernel time and modeled traffic.
//
// The downstroke of every level computes r = f - A u and restricts it; the
// two-step form (residual() then restrict_to_coarse()) writes the full
// residual vector and immediately re-reads it, two full-vector passes the
// fused residual_restrict kernel (kernels/fused.hpp) eliminates.  Both
// forms are bitwise identical, so this bench reports (a) the per-level
// downstroke times of both forms, summed over the levels, across 1-8
// threads and FP64/FP32/FP16 storage (checking the coarse right-hand sides
// agree bitwise) and (b) the perfmodel's downstroke bytes per level.
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "harness/harness.hpp"
#include "core/transfer.hpp"
#include "kernels/blas1.hpp"
#include "kernels/fused.hpp"
#include "perfmodel/bytes.hpp"

#if defined(_OPENMP)
#include <omp.h>
#endif

using namespace smg;

namespace {

void set_threads(int nt) {
#if defined(_OPENMP)
  omp_set_num_threads(nt);
#else
  (void)nt;
#endif
}

/// Per-level downstroke times of one hierarchy, best of three repeats of
/// `reps` calls, summed over every level above the coarsest: the two-step
/// residual() + restrict_to_coarse() pair against the fused
/// residual_restrict() on the same stored matrices and vectors.  Returns
/// false when the two coarse right-hand sides differ in any bit.
template <class CT>
bool measure_downstroke_ms(const MGHierarchy& h, double& two_step_ms,
                           double& fused_ms) {
  const int reps = 10;
  two_step_ms = 0.0;
  fused_ms = 0.0;
  bool same = true;
  for (int l = 0; l + 1 < h.nlevels(); ++l) {
    const Level& L = h.level(l);
    const std::size_t n = static_cast<std::size_t>(L.A_full.nrows());
    const std::size_t nc =
        static_cast<std::size_t>(h.level(l + 1).A_full.nrows());
    avec<CT> f(n, CT{1}), u(n, CT{0.5}), r(n, CT{0});
    avec<CT> fc_two(nc, CT{0}), fc_fused(nc, CT{0}), q2(L.q2.size());
    copy_convert<CT, double>({L.q2.data(), L.q2.size()},
                             {q2.data(), q2.size()});
    const CT* q2p = q2.empty() ? nullptr : q2.data();
    const std::span<const CT> fs{f.data(), n}, us{u.data(), n};
    const auto two_step = [&] {
      L.A_stored.visit([&](const auto& m) {
        residual(m, fs, us, std::span<CT>{r.data(), n}, q2p);
      });
      restrict_to_coarse<CT>(L.to_coarse, L.A_full.block_size(),
                             {r.data(), n}, {fc_two.data(), nc});
    };
    const auto fused = [&] {
      L.A_stored.visit([&](const auto& m) {
        residual_restrict(m, fs, us, q2p, L.to_coarse,
                          std::span<CT>{fc_fused.data(), nc});
      });
    };
    const auto best_ms = [reps](const auto& op) {
      double best = 1e30;
      for (int rep = 0; rep < 3; ++rep) {  // rep 0 doubles as warm-up
        Timer t;
        for (int c = 0; c < reps; ++c) {
          op();
        }
        best = std::min(best, t.seconds());
      }
      return best * 1000.0 / reps;
    };
    two_step_ms += best_ms(two_step);
    fused_ms += best_ms(fused);
    same = same && std::memcmp(fc_two.data(), fc_fused.data(),
                               nc * sizeof(CT)) == 0;
  }
  return same;
}

/// Modeled downstroke traffic of one V-cycle (all levels above the coarsest),
/// fused or unfused, in MB.
double modeled_downstroke_mb(const MGHierarchy& h, bool fused) {
  const MGConfig& cfg = h.config();
  double bytes = 0.0;
  for (int l = 0; l + 1 < h.nlevels(); ++l) {
    const Level& L = h.level(l);
    const int bs = L.A_full.block_size();
    const double mf = static_cast<double>(L.A_full.nrows());
    const double mc =
        static_cast<double>(L.to_coarse.coarse.size()) * bs;
    const double nnz = static_cast<double>(L.A_full.ncells()) *
                       L.A_full.stencil().ndiag() * bs * bs;
    bytes += downstroke_bytes(nnz, mf, mc, cfg.storage_at(l), cfg.compute,
                              L.scaled, fused);
  }
  return bytes / (1024.0 * 1024.0);
}

struct StorageCfg {
  const char* name;
  MGConfig cfg;
};

}  // namespace

SMG_BENCH(fig_vcycle_traffic,
          "PAPER.md S5 (memory-bound kernels); ISSUE 2 tentpole",
          bench::kPaper) {
  bench::print_header(
      "Fused residual->restrict vs two-step downstroke: kernel time and "
      "modeled traffic",
      "PAPER.md S5 (memory-bound kernels); ISSUE 2 tentpole");

  std::vector<int> threads = {1, 2, 4, 8};
#if defined(_OPENMP)
  std::printf("host procs: %d\n\n", omp_get_num_procs());
#else
  threads = {1};
  std::printf("OpenMP off: single-thread only\n\n");
#endif
  if (ctx.smoke() && threads.size() > 2) {
    threads.resize(2);  // {1, 2}
  }

  const StorageCfg storages[] = {
      {"fp64", config_full64()},
      {"fp32", config_k64p32d32()},
      {"fp16", config_d16_setup_scale()},
  };

  // --- (a) measured downstroke time, fused vs two-step --------------------
  Table t({"problem", "storage", "threads", "two-step ms", "fused ms",
           "speedup", "model unfused MB", "model fused MB"});
  for (const auto& name : {"laplace27", "rhd"}) {
    const Problem p = make_problem(name, ctx.box(name));
    for (const StorageCfg& sc : storages) {
      MGConfig cfg = sc.cfg;
      cfg.min_coarse_cells = 64;
      StructMat<double> A = p.A;
      const MGHierarchy h(std::move(A), cfg);

      // Modeled traffic is thread-independent; compute once per config.
      const double mb_unfused = modeled_downstroke_mb(h, false);
      const double mb_fused = modeled_downstroke_mb(h, true);
      const std::string ckey = std::string(name) + "/" + sc.name;
      // Closed-form byte model at the recorded box: gate it.
      ctx.value(ckey + "/model_unfused_mb", mb_unfused, "MB",
                bench::Better::Lower, /*gate=*/true);
      ctx.value(ckey + "/model_fused_mb", mb_fused, "MB",
                bench::Better::Lower, /*gate=*/true);

      for (int nt : threads) {
        set_threads(nt);
        double ms_two = 0.0, ms_fused = 0.0;
        const bool same =
            cfg.compute == Prec::FP64
                ? measure_downstroke_ms<double>(h, ms_two, ms_fused)
                : measure_downstroke_ms<float>(h, ms_two, ms_fused);
        if (!same) {
          ctx.fail(ckey + ": fused downstroke differs from the two-step "
                          "residual + restrict");
        }
        const double sx = ms_two / ms_fused;
        const std::string key = ckey + "/t" + std::to_string(nt);
        ctx.value(key + "/fused_ms", ms_fused, "ms", bench::Better::Lower);
        ctx.value(key + "/fused_speedup", sx, "x", bench::Better::Higher);
        t.row({name, sc.name, std::to_string(nt), Table::fmt(ms_two, 3),
               Table::fmt(ms_fused, 3), Table::fmt(sx, 2) + "x",
               Table::fmt(mb_unfused, 2), Table::fmt(mb_fused, 2)});
      }
    }
  }
  std::printf("\n");
  t.print();
#if defined(_OPENMP)
  if (omp_get_num_procs() < threads.back()) {
    std::printf(
        "\nnote: host has %d hardware thread(s); larger thread counts "
        "oversubscribe.\nWhen the working set fits in cache the eliminated "
        "residual store+load never\nreaches DRAM and measured speedups sit "
        "near 1.0 — the model columns give the\nDRAM-traffic saving that "
        "governs bandwidth-bound machines (PAPER.md S5).\n",
        omp_get_num_procs());
  }
#endif

  // --- (b) modeled per-level traffic for the fp16 laplace27 case ----------
  {
    MGConfig cfg = config_d16_setup_scale();
    cfg.min_coarse_cells = 64;
    StructMat<double> A =
        make_problem("laplace27", ctx.box("laplace27")).A;
    MGHierarchy h(std::move(A), cfg);
    std::printf("\nper-level downstroke bytes, laplace27 fp16 storage:\n");
    Table lt({"level", "rows", "unfused KB", "fused KB", "saved KB"});
    for (int l = 0; l + 1 < h.nlevels(); ++l) {
      const Level& L = h.level(l);
      const int bs = L.A_full.block_size();
      const double mf = static_cast<double>(L.A_full.nrows());
      const double mc = static_cast<double>(L.to_coarse.coarse.size()) * bs;
      const double nnz = static_cast<double>(L.A_full.ncells()) *
                         L.A_full.stencil().ndiag() * bs * bs;
      const double u = downstroke_bytes(nnz, mf, mc, cfg.storage_at(l),
                                        cfg.compute, L.scaled, false);
      const double f = downstroke_bytes(nnz, mf, mc, cfg.storage_at(l),
                                        cfg.compute, L.scaled, true);
      lt.row({std::to_string(l), Table::fmt(mf, 0), Table::fmt(u / 1024.0, 1),
              Table::fmt(f / 1024.0, 1), Table::fmt((u - f) / 1024.0, 1)});
    }
    lt.print();
  }
}
