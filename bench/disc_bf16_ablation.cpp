// Discussion §8: FP16 vs BF16 as the storage precision.
//
// Paper's observation: BF16 needs no scaling (FP32 range) but its 8-bit
// significand costs accuracy; #iter with BF16 is always >= FP16's, with a
// notable gap on rhd (paper: +19% FP16 vs +59% BF16 over Full64 on GPU).
#include "bench_common.hpp"
#include "harness/harness.hpp"
#include "kernels/blas1.hpp"
#include "util/stats.hpp"

using namespace smg;

namespace {

/// Relative deviation of one preconditioner application from the Full64
/// hierarchy on the same residual: isolates the storage-format quantization
/// error (FP16: ~2^-11 per entry; BF16: ~2^-8) that drives the paper's
/// BF16-costs-more-iterations observation on its harder problems.
double vcycle_perturbation(const Problem& p, MGConfig cfg,
                           MGHierarchy& href) {
  cfg.min_coarse_cells = 64;
  StructMat<double> A = p.A;
  MGHierarchy h(std::move(A), cfg);
  auto M = make_mg_precond<double>(h);
  auto Mref = make_mg_precond<double>(href);
  const std::size_t n = p.b.size();
  avec<double> e(n), eref(n);
  M->apply({p.b.data(), n}, {e.data(), n});
  Mref->apply({p.b.data(), n}, {eref.data(), n});
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    num += (e[i] - eref[i]) * (e[i] - eref[i]);
    den += eref[i] * eref[i];
  }
  return std::sqrt(num / den);
}

}  // namespace

SMG_BENCH(disc_bf16_ablation, "Discussion section 8 (BF16 paragraph)",
          bench::kPaper) {
  bench::print_header("FP16 vs BF16 storage precision",
                      "Discussion section 8 (BF16 paragraph)");

  Table t({"problem", "iters Full64", "iters FP16", "iters BF16",
           "FP16 extra", "BF16 extra", "V-cycle err FP16", "err BF16",
           "BF16 scaled?"});
  std::vector<double> ratio16, ratiob16, err16, errb16;
  for (const auto& name : problem_names()) {
    const Problem p = make_problem(name, ctx.box(name));
    MGConfig full = config_full64();
    full.min_coarse_cells = 64;
    MGConfig f16 = config_d16_setup_scale();
    f16.min_coarse_cells = 64;
    MGConfig b16 = f16;
    b16.storage_ladder = {Prec::BF16};

    const auto rf = bench::run_e2e(p, full, 400, 1e-9, true);
    const auto r16 = bench::run_e2e(p, f16, 400, 1e-9, true);
    const auto rb = bench::run_e2e(p, b16, 400, 1e-9, true);

    StructMat<double> Aref = p.A;
    MGHierarchy href(std::move(Aref), full);
    const double e16 = vcycle_perturbation(p, f16, href);
    const double eb16 = vcycle_perturbation(p, b16, href);
    err16.push_back(e16);
    errb16.push_back(eb16);

    // BF16 never triggers the scaling branch (range == FP32).
    StructMat<double> A = p.A;
    MGHierarchy hb(std::move(A), b16);
    bool any_scaled = false;
    for (int l = 0; l < hb.nlevels(); ++l) {
      any_scaled = any_scaled || hb.level(l).scaled;
    }
    if (any_scaled) {
      ctx.fail(name + ": BF16 hierarchy triggered the scaling branch "
                      "(range == FP32, must never scale)");
    }
    ctx.value(name + "/iters_fp16", static_cast<double>(r16.solve.iters),
              "iters", bench::Better::Lower, /*gate=*/true);
    ctx.value(name + "/iters_bf16", static_cast<double>(rb.solve.iters),
              "iters", bench::Better::Lower, /*gate=*/true);

    auto extra = [&](const bench::E2EResult& r) {
      return 100.0 * (static_cast<double>(r.solve.iters) / rf.solve.iters -
                      1.0);
    };
    ratio16.push_back(static_cast<double>(r16.solve.iters) / rf.solve.iters);
    ratiob16.push_back(static_cast<double>(rb.solve.iters) / rf.solve.iters);
    t.row({name, std::to_string(rf.solve.iters),
           std::to_string(r16.solve.iters) + " (" + r16.solve.status() + ")",
           std::to_string(rb.solve.iters) + " (" + rb.solve.status() + ")",
           Table::fmt(extra(r16), 0) + "%", Table::fmt(extra(rb), 0) + "%",
           Table::sci(e16, 1), Table::sci(eb16, 1),
           any_scaled ? "yes(BUG)" : "no"});
  }
  t.print();
  ctx.value("geomean_iter_inflation_fp16",
            geomean({ratio16.data(), ratio16.size()}), "x",
            bench::Better::Lower, /*gate=*/true);
  ctx.value("geomean_iter_inflation_bf16",
            geomean({ratiob16.data(), ratiob16.size()}), "x",
            bench::Better::Lower, /*gate=*/true);
  ctx.value("geomean_vcycle_err_fp16", geomean({err16.data(), err16.size()}),
            "relerr", bench::Better::Lower);
  ctx.value("geomean_vcycle_err_bf16",
            geomean({errb16.data(), errb16.size()}), "relerr",
            bench::Better::Lower);
  std::printf("\ngeomean iteration inflation over Full64: FP16 %.2fx,"
              " BF16 %.2fx\n",
              geomean({ratio16.data(), ratio16.size()}),
              geomean({ratiob16.data(), ratiob16.size()}));
  std::printf("geomean V-cycle perturbation vs Full64: FP16 %.1e, BF16"
              " %.1e (~%.0fx larger)\n",
              geomean({err16.data(), err16.size()}),
              geomean({errb16.data(), errb16.size()}),
              geomean({errb16.data(), errb16.size()}) /
                  geomean({err16.data(), err16.size()}));
  std::printf("(paper: FP16 <= BF16 in #iter on every problem; at this\n"
              "reproduction's problem hardness both formats cost no extra\n"
              "iterations, so the 8x quantization-accuracy gap is reported\n"
              "directly instead.)\n");
}
