// Discussion §8: number of pre-/post-smoothing sweeps.
//
// The paper keeps nu1 = nu2 = 1 because extra smoothing rarely reduces
// time-to-solution, while it *increases* the share of FP16-accelerable work
// (larger headline speedup, worse absolute time).  This bench quantifies
// both effects.
#include "bench_common.hpp"
#include "harness/harness.hpp"

using namespace smg;

SMG_BENCH(disc_smoothing_ablation,
          "Discussion section 8 (smoothing paragraph)",
          bench::kSmoke | bench::kPaper) {
  bench::print_header("Smoothing-count ablation (nu1 = nu2 = s)",
                      "Discussion section 8 (smoothing paragraph)");

  for (const auto& name : {"laplace27", "rhd", "weather"}) {
    const Problem p = make_problem(name, ctx.box(name));
    std::printf("\n--- %s ---\n", name);
    Table t({"sweeps", "iters 64", "time 64", "iters mix", "time mix",
             "MG share 64", "E2E speedup"});
    for (int s : {1, 2, 3}) {
      MGConfig full = config_full64();
      full.min_coarse_cells = 64;
      full.nu1 = s;
      full.nu2 = s;
      MGConfig mix = config_d16_setup_scale();
      mix.min_coarse_cells = 64;
      mix.nu1 = s;
      mix.nu2 = s;
      const auto rf = bench::run_e2e(p, full, 400, 1e-9);
      const auto rm = bench::run_e2e(p, mix, 400, 1e-9);
      const std::string key =
          std::string(name) + "/s" + std::to_string(s) + "/";
      ctx.value(key + "iters_mix16", static_cast<double>(rm.solve.iters),
                "iters", bench::Better::Lower, /*gate=*/true);
      ctx.value(key + "e2e_speedup",
                rf.total_seconds / rm.total_seconds, "x",
                bench::Better::Higher);
      t.row({std::to_string(s), std::to_string(rf.solve.iters),
             Table::fmt(rf.total_seconds, 3),
             std::to_string(rm.solve.iters),
             Table::fmt(rm.total_seconds, 3),
             Table::fmt(rf.precond_seconds / rf.total_seconds, 2),
             Table::fmt(rf.total_seconds / rm.total_seconds, 2) + "x"});
    }
    t.print();
  }
  std::printf("\n(expected: more sweeps -> larger MG share and E2E speedup,\n"
              "but rarely a better absolute time: the paper's reason for\n"
              "nu1 = nu2 = 1.)\n");
}
