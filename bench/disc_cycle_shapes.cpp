// Cycle shapes vs discretization error (docs/CYCLE_SHAPES.md): does ONE
// F-cycle reach discretization error, and on which storage-ladder rungs?
//
// The classical FMG claim is that a single F-cycle lands within a small
// factor of ||u_h - u*|| (the discretization error of the grid).  The
// manufactured laplace27 problems make that measurable: u* is known in
// closed form, u_h is computed once per problem by a tight FP64 PCG, and
// every rung of the storage ladder then answers "how many V-cycle polish
// iterations after the F-cycle until ||x - u*|| <= 1.5 ||u_h - u*||?" —
// 0 means the one-F-cycle guarantee holds at that precision (the regime
// map).
//
// The three problems probe the regime boundary deliberately.  The cubic
// and anisotropic-grid MMS instances have FP16-exact stored entries
// (26 and -1), so truncating storage costs nothing on the finest level
// and the guarantee survives every rung down to FP16.  laplace27e8
// scales every entry by 1e8: 2.6e9 = 2^9 * 5078125 needs 23 mantissa
// bits, so no per-level scaling can make its finest entries FP16-exact
// (11 bits) — the bootstrap's fixed point is the solution of the STORED
// system, whose offset kappa*eps*||u|| grows past the h^2 discretization
// error as the grid refines.  That problem is regime-map evidence, not a
// gate; the {FP32,FP16} mixed rung shows promoting ONLY the finest level
// (24 mantissa bits: exact) restores the guarantee.  Gates:
//   * FP64 and all-FP16 storage keep the guarantee (0 polish) on both
//     FP16-exact problems — the paper's headline extended to FMG,
//   * F-cycle time-to-discretization-error beats the V-cycle PCG solve of
//     the same config to the same error level on both gated problems,
//   * the measured per-level visit counts and conversion volume equal
//     cycle_visits / conversions_per_apply exactly.
#include <array>
#include <string>

#include "bench_common.hpp"
#include "harness/harness.hpp"
#include "kernels/blas1.hpp"
#include "obs/counters.hpp"
#include "obs/telemetry.hpp"
#include "solvers/fmg.hpp"

using namespace smg;

namespace {

struct Rung {
  const char* name;
  MGConfig cfg;
};

std::vector<Rung> rungs() {
  std::vector<Rung> out;
  out.push_back({"fp64", config_full64()});
  out.push_back({"fp32", config_k64p32d32()});
  out.push_back({"fp16", config_d16_setup_scale()});
  MGConfig bf16 = config_d16_setup_scale();
  bf16.storage_ladder = {Prec::BF16};
  out.push_back({"bf16", bf16});
  MGConfig fp8tail = config_d16_setup_scale();
  fp8tail.storage_ladder = {Prec::FP16, Prec::FP16, Prec::FP8};
  out.push_back({"fp16+fp8tail", fp8tail});
  // Finest level FP32, everything coarser FP16: isolates whether the
  // one-F-cycle regime boundary is set by the finest stored matrix alone.
  MGConfig f32tail = config_d16_setup_scale();
  f32tail.storage_ladder = {Prec::FP32, Prec::FP16};
  out.push_back({"fp32+fp16tail", f32tail});
  return out;
}

/// One manufactured-solution instance of the regime map.  `gated` marks
/// the FP16-exact problems whose fp64/fp16 rungs must keep the
/// one-F-cycle guarantee; laplace27e8_mms stays ungated because its
/// finest entries cannot be stored exactly below FP32 (see header).
struct MmsProblem {
  const char* name;
  Box box;
  double scale;
  bool gated;
};

Problem make_mms(const MmsProblem& mp) {
  return mp.scale == 1.0 ? make_laplace27_mms(mp.box)
                         : make_laplace27e8_mms(mp.box);
}

/// Exact discrete solution by FP64 PCG at rtol 1e-12 (deterministic, so the
/// reference is identical across repeats and thread counts).
avec<double> discrete_solution(const Problem& p) {
  MGConfig cfg = config_full64();
  cfg.min_coarse_cells = 64;
  StructMat<double> A = p.A;
  MGHierarchy h(std::move(A), cfg);
  auto M = make_mg_precond<double>(h);
  const LinOp<double> op = [&p](std::span<const double> x,
                                std::span<double> y) {
    spmv<double, double>(p.A, x, y);
  };
  const std::size_t n = p.b.size();
  avec<double> uh(n, 0.0);
  SolveOptions opts;
  opts.rtol = 1e-12;
  opts.max_iters = 500;
  (void)pcg<double>(op, {p.b.data(), n}, {uh.data(), n}, *M, opts);
  return uh;
}

double err_norm(std::span<const double> x, std::span<const double> u) {
  avec<double> d(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    d[i] = x[i] - u[i];
  }
  return nrm2_deterministic<double>({d.data(), d.size()});
}

}  // namespace

SMG_BENCH(disc_cycle_shapes,
          "FMG F-cycle vs discretization error across storage rungs "
          "(docs/CYCLE_SHAPES.md)",
          bench::kSmoke | bench::kPaper) {
  bench::print_header("Cycle shapes: one F-cycle to discretization error?",
                      "docs/CYCLE_SHAPES.md regime map");

  // MMS shares the laplace27 scale; the anisotropic instance runs the
  // same stencil on a GRAPES-style flattened grid (per-axis h in the
  // manufactured rhs makes the discrete solution genuinely anisotropic).
  const Box cube = ctx.box("laplace27");
  const Box flat{cube.nx, cube.ny, std::max(cube.nz / 2, 8)};
  const std::array<MmsProblem, 3> problems = {{
      {"laplace27_mms", cube, 1.0, /*gated=*/true},
      {"laplace27aniso_mms", flat, 1.0, /*gated=*/true},
      {"laplace27e8_mms", cube, 1e8, /*gated=*/false},
  }};
  const double ratio_tol = 1.5;  // "reached discretization error" factor

  Table t({"problem", "rung", "disc err", "F err ratio", "polish to disc",
           "one-F-cycle?"});
  for (const MmsProblem& mp : problems) {
    const char* pname = mp.name;
    const Problem p = make_mms(mp);
    const avec<double> ustar = laplace27_mms_solution(mp.box);
    const avec<double> uh = discrete_solution(p);
    const std::size_t n = p.b.size();
    const double disc = err_norm({uh.data(), n}, {ustar.data(), n});
    if (!(disc > 0.0)) {
      ctx.fail(std::string(pname) + ": degenerate discretization error");
      continue;
    }
    const LinOp<double> op = [&p](std::span<const double> x,
                                  std::span<double> y) {
      spmv<double, double>(p.A, x, y);
    };

    for (const Rung& rung : rungs()) {
      MGConfig cfg = rung.cfg;
      cfg.min_coarse_cells = 64;
      StructMat<double> A = p.A;
      MGHierarchy h(std::move(A), cfg);
      auto M = make_mg_precond<double>(h);

      FmgOptions<double> fopts;
      fopts.max_polish = 8;
      fopts.rtol = 0.0;
      fopts.u_exact = {ustar.data(), n};
      fopts.error_tol = ratio_tol * disc;
      avec<double> x(n, 0.0);
      const FmgResult res =
          fmg_solve<double>(op, {p.b.data(), n}, {x.data(), n}, *M, fopts);

      // Error ratio after the bootstrap F-cycle alone (history[0]).
      const double boot_err =
          res.error_history.empty() ? -1.0 : res.error_history.front();
      const double boot_ratio = boot_err >= 0.0 ? boot_err / disc : -1.0;
      const int polish = res.converged ? res.polish_iters : -1;
      const bool one_cycle = res.converged && res.polish_iters == 0;

      const std::string key =
          std::string(pname) + "/" + rung.name;
      // Machine-independent regime map: polish count to discretization
      // error per rung (-1 = never reached within max_polish).
      ctx.value(key + "/polish_to_disc", static_cast<double>(polish),
                "iters", bench::Better::Lower, /*gate=*/true);
      ctx.value(key + "/fcycle_err_ratio", boot_ratio, "x",
                bench::Better::Lower, /*gate=*/false);

      if (mp.gated && std::string(rung.name) == "fp16" && !one_cycle) {
        ctx.fail(key + ": one F-cycle at all-FP16 storage must reach " +
                 "discretization error (got ratio " +
                 Table::fmt(boot_ratio, 3) + ", polish " +
                 std::to_string(polish) + ")");
      }
      if (mp.gated && std::string(rung.name) == "fp64" && !one_cycle) {
        ctx.fail(key + ": one F-cycle at FP64 must reach discretization "
                       "error");
      }
      // Regime boundary self-checks on laplace27e8: all-FP16 must NOT
      // keep the guarantee (otherwise the map's boundary moved and the
      // docs are stale), and promoting only the finest level to FP32
      // must restore it.
      if (!mp.gated && std::string(rung.name) == "fp16" && one_cycle) {
        ctx.fail(key + ": expected the finest-level FP16 truncation floor "
                       "to break the one-F-cycle guarantee here");
      }
      if (!mp.gated && std::string(rung.name) == "fp32+fp16tail" &&
          !one_cycle) {
        ctx.fail(key + ": FP32 finest level should restore the one-F-cycle "
                       "guarantee (got ratio " + Table::fmt(boot_ratio, 3) +
                 ")");
      }

      t.row({pname, rung.name, Table::fmt(disc, 4), Table::fmt(boot_ratio, 3),
             polish < 0 ? std::string(">8") : std::to_string(polish),
             one_cycle ? "yes" : "no"});
    }
  }
  t.print();

  // ---- F-cycle vs V-cycle PCG: time to discretization error -------------
  // Both gated problems at the all-FP16 rung: the acceptance criterion is
  // that the F-cycle beats V-cycle PCG to the same error level wherever
  // the one-F-cycle guarantee holds.
  for (const MmsProblem& mp : problems) {
    if (!mp.gated) {
      continue;
    }
    const Problem p = make_mms(mp);
    const avec<double> ustar = laplace27_mms_solution(mp.box);
    const avec<double> uh = discrete_solution(p);
    const std::size_t n = p.b.size();
    const double disc = err_norm({uh.data(), n}, {ustar.data(), n});
    const LinOp<double> op = [&p](std::span<const double> x,
                                  std::span<double> y) {
      spmv<double, double>(p.A, x, y);
    };
    MGConfig cfg = config_d16_setup_scale();
    cfg.min_coarse_cells = 64;
    StructMat<double> A = p.A;
    MGHierarchy h(std::move(A), cfg);
    auto M = make_mg_precond<double>(h);

    FmgOptions<double> fopts;
    fopts.max_polish = 8;
    fopts.rtol = 0.0;
    fopts.u_exact = {ustar.data(), n};
    fopts.error_tol = ratio_tol * disc;
    avec<double> xf(n, 0.0);
    FmgResult fres =
        fmg_solve<double>(op, {p.b.data(), n}, {xf.data(), n}, *M, fopts);
    const double f_relres = fres.final_relres;

    const std::string key = std::string(mp.name) + "/fp16";
    const double tf = ctx.time(key + "/fcycle_s", [&] {
      avec<double> x0(n, 0.0);
      (void)fmg_solve<double>(op, {p.b.data(), n}, {x0.data(), n}, *M, fopts);
    });
    // V-cycle PCG run to the relative residual the F-cycle stop achieved:
    // the residual level that certifies the same error level on this
    // problem, so both timers answer "seconds to discretization error".
    SolveOptions vopts;
    vopts.rtol = f_relres > 0.0 ? f_relres : 1e-10;
    vopts.max_iters = 400;
    int v_iters = 0;
    double v_err_ratio = 0.0;
    const double tv = ctx.time(key + "/vcycle_pcg_s", [&] {
      avec<double> x0(n, 0.0);
      const SolveResult r =
          pcg<double>(op, {p.b.data(), n}, {x0.data(), n}, *M, vopts);
      v_iters = r.iters;
      v_err_ratio = err_norm({x0.data(), n}, {ustar.data(), n}) / disc;
    });
    ctx.value(key + "/f_vs_vpcg_speedup", tv / tf, "x",
              bench::Better::Higher, /*gate=*/false);
    if (!(tf < tv)) {
      ctx.fail(std::string(mp.name) +
               ": F-cycle time-to-discretization-error did not beat V-cycle "
               "PCG (" + Table::fmt(tf * 1e3, 2) + " ms vs " +
               Table::fmt(tv * 1e3, 2) + " ms)");
    }
    std::printf("\n%s, time to discretization error (fp16 rung): F-cycle "
                "%.2f ms (%d polish) vs V-cycle PCG %.2f ms (%d iters, err "
                "ratio %.3f): %.2fx\n",
                mp.name, tf * 1e3, fres.polish_iters, tv * 1e3, v_iters,
                v_err_ratio, tv / tf);
  }

  // ---- ledger exactness: visit multiplicities and conversion volume -----
  {
    MGConfig ucfg = config_d16_setup_scale();
    ucfg.min_coarse_cells = 64;
    ucfg.cycle = CycleShape::F;
    ucfg.telemetry = obs::TelemetryLevel::Counters;
    Problem q = make_laplace27_mms(ctx.box("laplace27"));
    const std::size_t n = q.b.size();
    MGHierarchy hu(std::move(q.A), ucfg);
    auto Mu = make_mg_precond<double>(hu);
    obs::Telemetry* tu = Mu->telemetry();
    avec<double> ru(n, 1.0), eu(n, 0.0);
    Mu->apply({ru.data(), n}, {eu.data(), n});
    const auto counters = obs::collect_precision_counters(hu);
    for (int l = 0; l < hu.nlevels(); ++l) {
      const std::uint64_t want = static_cast<std::uint64_t>(
          cycle_visits(CycleShape::F, l, hu.nlevels()));
      if (tu->stat(obs::Kind::Level, l).calls != want) {
        ctx.fail("level " + std::to_string(l) +
                 " F-cycle visit count != cycle_visits");
      }
      const auto& c = counters[static_cast<std::size_t>(l)];
      const std::uint64_t passes =
          tu->stat(obs::Kind::SymGS, l).calls +
          tu->stat(obs::Kind::Residual, l).calls +
          tu->stat(obs::Kind::ResidualRestrict, l).calls;
      if (l + 1 < hu.nlevels() &&
          c.conversions_per_apply != passes * c.stored_values) {
        ctx.fail("level " + std::to_string(l) +
                 " modeled conversion volume != measured matrix passes");
      }
    }
    std::printf("\nledgers: visit counts and conversion volume match "
                "cycle_visits exactly\n");
  }
}
