// The benchmark's workloads and the shared pieces its timed loops and
// traced-run probes are built from.  Everything here calls the solver only
// through its public API: MGHierarchy, make_mg_precond, pcg/pgmres,
// solve_many, HierarchyCache and the kernels/, core/ and perfmodel/
// building blocks.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/mg_hierarchy.hpp"
#include "problems/problem.hpp"
#include "solvers/precond.hpp"
#include "solvers/solve_many.hpp"
#include "stats.hpp"

namespace perfbench {

/// Krylov settings of every solve: the problem's Table-3 solver from a zero
/// guess to rtol 1e-9, with the fixed-blocking reductions so iteration
/// counts repeat exactly.
constexpr double kRtol = 1e-9;
constexpr int kMaxIters = 400;
smg::SolveOptions solve_options();

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

enum class Mode {
  Fresh,  ///< every repetition builds a hierarchy and solves once
  Reuse,  ///< every repetition builds once and solves several RHS on it
  Panel,  ///< panels of RHS columns via HierarchyCache + solve_many
};

struct WorkloadSpec {
  std::string name;
  std::vector<std::string> problems;
  smg::Box box{0, 0, 0};  ///< empty: each problem's default box
  smg::MGConfig cfg;
  Mode mode = Mode::Fresh;
  int solves_per_build = 1;  ///< Reuse: seeded solves per hierarchy
  int panel_k = 8;           ///< Panel: RHS columns per panel
  int panel_rounds = 2;      ///< Panel: panels per problem per cache epoch
  int min_rounds = 3;        ///< repetitions (epochs for Panel) at least
};

/// The paper's eight problems (Table 3).
const std::vector<std::string>& suite8_problems();

/// The four workloads, in BENCHMARK.json order.
std::vector<WorkloadSpec> workloads();
/// Throws std::invalid_argument for an unknown name.
WorkloadSpec workload(const std::string& name);

/// Host-scaled default box of a paper problem (the bench_common.hpp sizes,
/// pinned here so the benchmark's inputs do not drift with the benches).
smg::Box default_box(const std::string& problem);

/// One problem with its seeded right-hand sides.  Right-hand side j is
/// b_j = A x*_j with x*_j = seeded_solution(seed, stream(p, j)).
struct Prepared {
  smg::Problem prob;
  std::vector<smg::avec<double>> xstar;
  std::vector<smg::avec<double>> b;
  std::vector<smg::MultiVector<double>> panels;  ///< Panel mode only

  std::size_t n() const { return static_cast<std::size_t>(prob.A.nrows()); }
};

/// Generate problem `index` of a workload with `nrhs` seeded right-hand
/// sides (grouped into panels of `panel_k` columns when panel_k > 0).
Prepared prepare(const std::string& name, const smg::Box& box, int index,
                 std::uint64_t seed, int nrhs, int panel_k);

/// A hierarchy and its preconditioner, with the setup wall and CPU time.
struct Built {
  std::unique_ptr<smg::MGHierarchy> h;
  std::unique_ptr<smg::PrecondBase<double>> M;
  double hierarchy_s = 0.0;  ///< MGHierarchy constructor
  double precond_s = 0.0;    ///< make_mg_precond
  double cpu_s = 0.0;        ///< process CPU seconds of the constructor
  double setup_s() const { return hierarchy_s + precond_s; }
};

/// Build on a copy of `A` (the copy is not timed).  Opens "setup.hierarchy"
/// and "setup.precond" spans when the tracer is enabled.
Built build(const smg::StructMat<double>& A, const smg::MGConfig& cfg);

struct SolveOut {
  smg::SolveResult res;
  SolveCheck check;
  double seconds = 0.0;
};

/// Solve right-hand side j of `p` from a zero guess and check the answer.
/// When the tracer is enabled the solve opens "solve" with "precond.apply"
/// and "solver.op" children.
SolveOut solve_one(const Prepared& p, int j, smg::PrecondBase<double>& M);

struct PanelOut {
  smg::SolveManyResult res;
  std::vector<SolveCheck> checks;  ///< one per column
  double seconds = 0.0;
};

/// Solve panel `round` of `p` with solve_many and check every column.
/// When the tracer is enabled it opens "panel.solve" with "panel.apply" and
/// "panel.op" children.
PanelOut solve_panel(const Prepared& p, int round,
                     smg::PrecondBase<double>& M);

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< Chrome-trace path of the traced run
};

struct RunReport {
  Tally tally;
  std::vector<Metric> metrics;
};

/// Run one workload: the timed loop, and in the traced run the per-layer
/// probes.  Human-readable lines go to stdout as the run proceeds.
RunReport run_workload(const RunOptions& opt);

// --- traced-run probes (layers.cpp) ---

/// Per-layer metrics of the setup: one traced build per problem plus each
/// setup phase replayed on that hierarchy's own level inputs.
void probe_setup(const WorkloadSpec& spec,
                 const std::vector<Prepared>& problems,
                 std::vector<Built>& probe_builds, std::vector<Metric>& out);

/// Direct kernel calls on each problem's finest stored level, with
/// computed bytes, achieved GB/s and the share of `stream_gbs`.
void probe_kernels(const std::vector<Built>& probe_builds,
                   double stream_gbs, std::vector<Metric>& out);

/// The workload's solve phase re-run at 1, 2 and 4 OpenMP threads.
void probe_parallel(const WorkloadSpec& spec,
                    const std::vector<Prepared>& problems,
                    const std::vector<Built>& probe_builds,
                    std::vector<Metric>& out);

/// STREAM triad with arrays of at least 4x the last-level cache.  Returns
/// the triad GB/s.
double probe_stream(std::vector<Metric>& out);

/// The eight problems at 24^3 under decomp {2,1,1} at FP16 and FP64.
void probe_decomp(std::uint64_t seed, std::vector<Metric>& out);

/// Last-level cache bytes (sysconf; 32 MiB when unknown).
std::size_t llc_bytes();

}  // namespace perfbench
