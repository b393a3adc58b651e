// Figure 6: descending curves of relative residual norm for five
// representative problems under five precision/strategy combinations:
//   Full64, K64P32D32, K64P32D16-none, K64P32D16-scale-setup,
//   K64P32D16-setup-scale.
//
// Expected shape (paper):
//  (a) laplace27      — all five curves coincide;
//  (b) laplace27*1e8  — all but '-none' coincide; '-none' fails (NaN);
//  (c) weather        — setup-scale converges in fewer iterations than
//                       scale-setup; '-none' fails;
//  (d) rhd            — scale-setup does not converge, setup-scale does;
//  (e) rhd-3T         — same, amplified.
#include <algorithm>

#include "bench_common.hpp"
#include "harness/harness.hpp"

using namespace smg;

namespace {

struct Config {
  const char* label;
  MGConfig cfg;
};

SolveResult run(const Problem& p, MGConfig cfg, int iters) {
  cfg.min_coarse_cells = 64;
  // Deterministic reductions: iteration counts become thread-invariant, so
  // they can be hard-gated in BENCH_*.json.
  return bench::run_e2e(p, cfg, iters, 1e-10).solve;
}

}  // namespace

SMG_BENCH(fig6_convergence_ablation, "Figure 6 (a)-(e)",
          bench::kSmoke | bench::kPaper) {
  bench::print_header("Convergence ablation across precision strategies",
                      "Figure 6 (a)-(e)");

  const std::vector<std::pair<std::string, int>> problems = {
      {"laplace27", 14},  {"laplace27e8", 14}, {"weather", 40},
      {"rhd", 80},        {"rhd3t", 120}};
  const std::vector<Config> configs = {
      {"Full64", config_full64()},
      {"K64P32D32", config_k64p32d32()},
      {"K64P32D16-none", config_d16_none()},
      {"K64P32D16-scale-setup", config_d16_scale_setup()},
      {"K64P32D16-setup-scale", config_d16_setup_scale()},
  };

  for (const auto& [name, iters] : problems) {
    const Problem p = make_problem(name, ctx.box(name));
    std::printf("\n--- %s (%s, %lld dofs) ---\n", name.c_str(),
                p.solver.c_str(), static_cast<long long>(p.A.nrows()));
    std::vector<SolveResult> results;
    for (const auto& c : configs) {
      results.push_back(run(p, c.cfg, iters));
    }

    // Residual-descent curves, one column per configuration.
    Table t({"iter", configs[0].label, configs[1].label, configs[2].label,
             configs[3].label, configs[4].label});
    std::size_t maxlen = 0;
    for (const auto& r : results) {
      maxlen = std::max(maxlen, r.history.size());
    }
    const std::size_t stride = maxlen > 24 ? (maxlen + 23) / 24 : 1;
    for (std::size_t i = 0; i < maxlen; i += stride) {
      std::vector<std::string> row{std::to_string(i)};
      for (const auto& r : results) {
        if (i < r.history.size() && std::isfinite(r.history[i])) {
          row.push_back(Table::sci(r.history[i], 1));
        } else if (i < static_cast<std::size_t>(iters) && r.breakdown) {
          row.push_back("NaN");
        } else {
          row.push_back("-");
        }
      }
      t.row(std::move(row));
    }
    t.print();

    Table s({"config", "status", "#iter", "final relres"});
    for (std::size_t c = 0; c < configs.size(); ++c) {
      s.row({configs[c].label, results[c].status(),
             std::to_string(results[c].iters),
             Table::sci(results[c].final_relres, 1)});
      // Deterministic solves at the recorded box: iteration counts (and
      // whether a config converges at all) are the paper's Fig. 6 claim —
      // gate them.  The '-none' strategy is *expected* to break down on the
      // out-of-range problems, so convergence itself is recorded as a
      // metric rather than a failure.
      ctx.value(name + "/" + configs[c].label + "/iters",
                static_cast<double>(results[c].iters), "iters",
                bench::Better::Lower, /*gate=*/true);
      ctx.value(name + "/" + configs[c].label + "/converged",
                results[c].converged ? 1.0 : 0.0, "bool",
                bench::Better::None, /*gate=*/true);
    }
    s.print();
  }
}
