// Precision explorer: run any built-in problem under every precision
// configuration and report iterations, time, and memory — a command-line
// way to reproduce the paper's decision matrix for your own case.
//
// Run: ./precision_explorer [problem] [nx ny nz]
//   problems: laplace27 laplace27e8 rhd oil weather rhd3t oil4c solid3d
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/mg_precond.hpp"
#include "kernels/spmv.hpp"
#include "obs/report.hpp"
#include "problems/problem.hpp"
#include "solvers/cg.hpp"
#include "solvers/gmres.hpp"
#include "util/table.hpp"

using namespace smg;

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "rhd";
  Box box{24, 24, 24};
  if (argc == 5) {
    box = Box{std::atoi(argv[2]), std::atoi(argv[3]), std::atoi(argv[4])};
  }
  std::printf("== Precision explorer: %s on %dx%dx%d ==\n", name.c_str(),
              box.nx, box.ny, box.nz);
  const Problem p = make_problem(name, box);

  struct Entry {
    const char* label;
    MGConfig cfg;
  };
  const Entry entries[] = {
      {"Full64 (P64D64)", config_full64()},
      {"K64P32D32", config_k64p32d32()},
      {"K64P32D16-none", config_d16_none()},
      {"K64P32D16-scale-setup", config_d16_scale_setup()},
      {"K64P32D16-setup-scale", config_d16_setup_scale()},
      {"K64P32Dbf16", [] {
         MGConfig c = config_d16_setup_scale();
         c.storage_ladder = {Prec::BF16};
         return c;
       }()},
      {"K64P32D16 shift_levid=2", [] {
         MGConfig c = config_d16_setup_scale();
         c.storage_ladder = {Prec::FP16, Prec::FP16, Prec::FP32};
         return c;
       }()},
      {"K64P32D16 W-cycle", [] {
         MGConfig c = config_d16_setup_scale();
         c.cycle = CycleShape::W;
         return c;
       }()},
      {"K64P32D16 auto", [] {
         MGConfig c = config_d16_setup_scale();
         c.precision_policy = PrecisionPolicy::Auto;
         return c;
       }()},
      {"K64P32D16 guarded", [] {
         MGConfig c = config_d16_setup_scale();
         c.precision_policy = PrecisionPolicy::Guarded;
         return c;
       }()},
  };

  Table t({"config", "status", "iters", "setup s", "solve s", "MG s",
           "matrix MB"});
  for (const Entry& e : entries) {
    StructMat<double> A = p.A;
    Timer setup_t;
    MGHierarchy h(std::move(A), e.cfg);
    const double setup_s = setup_t.seconds();
    auto M = make_mg_precond<double>(h);
    const LinOp<double> op = [&p](std::span<const double> x,
                                  std::span<double> y) {
      spmv<double, double>(p.A, x, y);
    };
    const std::size_t n = p.b.size();
    avec<double> x(n, 0.0);
    SolveOptions opts;
    opts.rtol = 1e-9;
    opts.max_iters = 500;
    const SolveResult res =
        p.solver == "cg"
            ? pcg<double>(op, {p.b.data(), n}, {x.data(), n}, *M, opts)
            : pgmres<double>(op, {p.b.data(), n}, {x.data(), n}, *M, opts);
    t.row({e.label, res.status(), std::to_string(res.iters),
           Table::fmt(setup_s, 3), Table::fmt(res.solve_seconds, 3),
           Table::fmt(res.precond_seconds, 3),
           Table::fmt(h.stored_matrix_bytes() / 1e6, 2)});
  }
  t.print();

  // Per-level precision-event counters of the recommended configuration:
  // the safety ledger behind the table above (overflow headroom, magnitude
  // range, truncation events, conversion volume per apply).
  {
    StructMat<double> A = p.A;
    MGConfig cfg = config_d16_setup_scale();
    cfg.precision_policy = PrecisionPolicy::Auto;  // let the planner veto
    MGHierarchy h(std::move(A), cfg);
    std::printf("\nK64P32D16-setup-scale safety ledger (policy: %s):\n",
                std::string(to_string(h.policy())).c_str());
    obs::print_precision_counters(obs::collect_precision_counters(h));
    for (const AutopilotDecision& d : h.autopilot_log()) {
      std::printf("  autopilot: level %d %s -> %s (%s)\n", d.level,
                  std::string(to_string(d.trigger)).c_str(),
                  std::string(to_string(d.action)).c_str(),
                  d.reason.c_str());
    }
  }
  return 0;
}
