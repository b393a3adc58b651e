#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <stdexcept>

#include "bench.hpp"
#include "core/hierarchy_cache.hpp"
#include "core/mg_precond.hpp"
#include "kernels/spmv.hpp"
#include "solvers/cg.hpp"
#include "solvers/gmres.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using clock_type = std::chrono::steady_clock;

double since(clock_type::time_point t0) {
  return std::chrono::duration<double>(clock_type::now() - t0).count();
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // KiB -> MB
}

/// Right-hand-side stream of (problem index, rhs index): distinct for every
/// pair a workload uses.
std::uint64_t stream_id(int problem, int rhs) {
  return static_cast<std::uint64_t>(problem) * 100000u +
         static_cast<std::uint64_t>(rhs);
}

const std::vector<std::string> kCg5 = {"laplace27", "laplace27e8", "rhd",
                                       "rhd3t", "solid3d"};

}  // namespace

const std::vector<std::string>& suite8_problems() {
  static const std::vector<std::string> names = {
      "laplace27", "laplace27e8", "rhd",   "oil",
      "weather",   "rhd3t",       "oil4c", "solid3d"};
  return names;
}

smg::SolveOptions solve_options() {
  smg::SolveOptions o;
  o.max_iters = kMaxIters;
  o.rtol = kRtol;
  o.deterministic_reductions = true;
  return o;
}

smg::Box default_box(const std::string& name) {
  if (name == "laplace27" || name == "laplace27e8") {
    return {44, 44, 44};
  }
  if (name == "rhd") {
    return {56, 56, 56};
  }
  if (name == "oil") {
    return {64, 64, 28};
  }
  if (name == "weather") {
    return {48, 48, 24};
  }
  if (name == "rhd3t") {
    return {28, 28, 28};
  }
  if (name == "oil4c") {
    return {24, 24, 24};
  }
  if (name == "solid3d") {
    return {22, 22, 22};
  }
  return {24, 24, 24};
}

std::vector<WorkloadSpec> workloads() {
  std::vector<WorkloadSpec> w;

  WorkloadSpec suite;
  suite.name = "suite8_fresh_fp16";
  suite.problems = suite8_problems();
  suite.cfg = smg::config_d16_setup_scale();
  suite.mode = Mode::Fresh;
  suite.min_rounds = 5;
  w.push_back(suite);

  WorkloadSpec lap16;
  lap16.name = "lap27_128_reuse_fp16";
  lap16.problems = {"laplace27"};
  lap16.box = {128, 128, 128};
  lap16.cfg = smg::config_d16_setup_scale();
  lap16.mode = Mode::Reuse;
  lap16.solves_per_build = 2;
  lap16.min_rounds = 3;
  w.push_back(lap16);

  WorkloadSpec lap64 = lap16;
  lap64.name = "lap27_128_reuse_fp64";
  lap64.cfg = smg::config_full64();
  w.push_back(lap64);

  WorkloadSpec panel;
  panel.name = "cg5_panel_k8_fp16";
  panel.problems = kCg5;
  panel.cfg = smg::config_d16_setup_scale();
  panel.mode = Mode::Panel;
  panel.panel_k = 8;
  panel.panel_rounds = 2;
  panel.min_rounds = 2;
  w.push_back(panel);
  return w;
}

WorkloadSpec workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == name) {
      return w;
    }
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

Prepared prepare(const std::string& name, const smg::Box& box, int index,
                 std::uint64_t seed, int nrhs, int panel_k) {
  Prepared p;
  p.prob = smg::make_problem(name, box.size() > 0 ? box : default_box(name));
  const std::int64_t n = p.prob.A.nrows();
  for (int j = 0; j < nrhs; ++j) {
    p.xstar.push_back(seeded_solution(seed, stream_id(index, j), n));
    p.b.push_back(make_rhs(p.prob.A, p.xstar.back()));
  }
  if (panel_k > 0) {
    for (int j0 = 0; j0 + panel_k <= nrhs; j0 += panel_k) {
      smg::MultiVector<double> B(n, panel_k);
      for (int c = 0; c < panel_k; ++c) {
        const auto& b = p.b[static_cast<std::size_t>(j0 + c)];
        B.insert_col(c, {b.data(), b.size()});
      }
      p.panels.push_back(std::move(B));
    }
  }
  return p;
}

Built build(const smg::StructMat<double>& A, const smg::MGConfig& cfg) {
  Built b;
  smg::StructMat<double> A0 = A;
  const double cpu0 = cpu_seconds();
  auto t0 = clock_type::now();
  {
    const Span s("setup.hierarchy");
    b.h = std::make_unique<smg::MGHierarchy>(std::move(A0), cfg);
  }
  b.hierarchy_s = since(t0);
  b.cpu_s = cpu_seconds() - cpu0;
  t0 = clock_type::now();
  {
    const Span s("setup.precond");
    b.M = smg::make_mg_precond<double>(*b.h);
  }
  b.precond_s = since(t0);
  return b;
}

SolveOut solve_one(const Prepared& p, int j, smg::PrecondBase<double>& M) {
  const std::size_t n = p.n();
  const auto& b = p.b[static_cast<std::size_t>(j)];
  smg::avec<double> x(n, 0.0);
  const smg::StructMat<double>& A = p.prob.A;
  smg::LinOp<double> op = [&A](std::span<const double> xin,
                               std::span<double> y) {
    smg::spmv<double, double>(A, xin, y);
  };
  const bool traced = tracer().enabled();
  TracedPrecond tm(M);
  smg::PrecondBase<double>& prec =
      traced ? static_cast<smg::PrecondBase<double>&>(tm) : M;
  if (traced) {
    op = traced_op(std::move(op), "solver.op");
    tracer().begin_solve();
  }
  const smg::SolveOptions opts = solve_options();
  SolveOut out;
  const auto t0 = clock_type::now();
  {
    const Span s("solve");
    out.res = p.prob.solver == "cg"
                  ? smg::pcg<double>(op, {b.data(), n}, {x.data(), n}, prec,
                                     opts)
                  : smg::pgmres<double>(op, {b.data(), n}, {x.data(), n},
                                        prec, opts);
  }
  out.seconds = since(t0);
  tracer().end_solve();
  const auto& xs = p.xstar[static_cast<std::size_t>(j)];
  out.check = check_solve(A, {b.data(), n}, {x.data(), n}, {xs.data(), n},
                          out.res, kRtol);
  return out;
}

PanelOut solve_panel(const Prepared& p, int round,
                     smg::PrecondBase<double>& M) {
  const smg::MultiVector<double>& B = p.panels[static_cast<std::size_t>(round)];
  smg::MultiVector<double> X(B.rows(), B.cols());
  smg::LinOpMany<double> op = smg::make_spmv_many_op(p.prob.A);
  const bool traced = tracer().enabled();
  TracedPrecond tm(M);
  smg::PrecondBase<double>& prec =
      traced ? static_cast<smg::PrecondBase<double>&>(tm) : M;
  if (traced) {
    op = traced_op_many(std::move(op), "panel.op");
    tracer().begin_solve();
  }
  smg::SolveManyOptions opts;
  opts.base = solve_options();
  PanelOut out;
  const auto t0 = clock_type::now();
  {
    const Span s("panel.solve");
    out.res = smg::solve_many<double>(op, B, X, prec, opts);
  }
  out.seconds = since(t0);
  tracer().end_solve();

  const std::size_t n = p.n();
  smg::avec<double> x(n), b(n);
  for (int c = 0; c < B.cols(); ++c) {
    X.extract_col(c, {x.data(), n});
    B.extract_col(c, {b.data(), n});
    const auto& xs =
        p.xstar[static_cast<std::size_t>(round * B.cols() + c)];
    out.checks.push_back(check_solve(p.prob.A, {b.data(), n}, {x.data(), n},
                                     {xs.data(), n},
                                     out.res.columns[static_cast<std::size_t>(c)],
                                     kRtol));
  }
  return out;
}

namespace {

/// Samples of the timed loop, per problem.  Untraced repetitions feed the
/// end-to-end metrics; in the traced run the traced repetitions feed
/// `traced_tts` (the tracing-overhead ratio) and the span aggregates.
struct LoopSamples {
  explicit LoopSamples(std::size_t np)
      : setup(np), solve(np), iters(np), fetch_solve(np), tts(np),
        traced_tts(np), useful(np), hier_bytes(np, 0.0) {}
  PerProblem setup;        ///< setup_s per build (per cache miss for Panel)
  PerProblem solve;        ///< per solve (per panel for Panel)
  PerProblem iters;        ///< Krylov iterations per solve (panel: max col)
  PerProblem fetch_solve;  ///< Panel: get_or_build + make_mg_precond + solve
  PerProblem tts;          ///< one repetition's setup + solves, untraced
  PerProblem traced_tts;   ///< the same, traced
  PerProblem useful;       ///< Panel: sum col iters / (k * max col iters)
  std::vector<double> hier_bytes;  ///< stored_matrix_bytes() per problem
  std::int64_t rhs_solved = 0;
  int traced_solves = 0;  ///< per problem, in traced repetitions
};

void note_failure(const std::string& problem, const SolveCheck& c,
                  const smg::SolveResult& r) {
  std::printf("FAILED %s: status=%s iters=%d true_relres=%.3e err=%.3e\n",
              problem.c_str(), r.status().c_str(), r.iters, c.true_relres,
              c.error_rel);
}

/// Fresh and Reuse: repetition r builds every problem's hierarchy (round
/// robin) and solves `solves_per_build` seeded right-hand sides on it.
void single_rhs_loop(const WorkloadSpec& spec, std::vector<Prepared>& probs,
                     const RunOptions& opt, LoopSamples& s, Tally& tally) {
  const int np = static_cast<int>(probs.size());
  const auto t0 = clock_type::now();
  for (const auto& [r, p] : round_robin(1000, np)) {
    if (p == 0 && !another_round(r, spec.min_rounds, since(t0), opt.seconds)) {
      break;
    }
    const bool traced = opt.trace && r % 2 == 1;
    tracer().set_enabled(traced);
    const auto pi = static_cast<std::size_t>(p);
    const Built b = build(probs[pi].prob.A, spec.cfg);
    s.hier_bytes[pi] = static_cast<double>(b.h->stored_matrix_bytes());
    double rep = b.setup_s();
    if (!traced) {
      s.setup[pi].push_back(b.setup_s());
    }
    for (int j = 0; j < spec.solves_per_build; ++j) {
      const SolveOut so = solve_one(probs[pi], j, *b.M);
      tally.add(so.check.passed);
      if (!so.check.passed) {
        note_failure(probs[pi].prob.name, so.check, so.res);
      }
      rep += so.seconds;
      if (traced) {
        ++s.traced_solves;
        continue;
      }
      s.solve[pi].push_back(so.seconds);
      s.iters[pi].push_back(so.res.iters);
      ++s.rhs_solved;
    }
    (traced ? s.traced_tts : s.tts)[pi].push_back(rep);
  }
  tracer().set_enabled(false);
  s.traced_solves = np > 0 ? s.traced_solves / np : 0;
}

/// Panel: each cache epoch clears the cache, then runs `panel_rounds`
/// rounds over the problems; a problem's first panel of an epoch misses
/// (full setup) and the rest hit.
void panel_loop(const WorkloadSpec& spec, std::vector<Prepared>& probs,
                const RunOptions& opt, LoopSamples& s, Tally& tally) {
  const int np = static_cast<int>(probs.size());
  smg::HierarchyCache cache(static_cast<std::size_t>(np));
  const auto t0 = clock_type::now();
  for (int e = 0; e < 1000; ++e) {
    if (!another_round(e, spec.min_rounds, since(t0), opt.seconds)) {
      break;
    }
    const bool traced = opt.trace && e % 2 == 1;
    tracer().set_enabled(traced);
    cache.clear();
    for (const auto& [k, p] : round_robin(spec.panel_rounds, np)) {
      const auto pi = static_cast<std::size_t>(p);
      const std::uint64_t misses = cache.misses();
      auto tf = clock_type::now();
      std::shared_ptr<smg::MGHierarchy> h;
      {
        Span look("cache.lookup");
        h = cache.get_or_build(probs[pi].prob.A, spec.cfg);
        look.rename(cache.misses() > misses ? "cache.miss" : "cache.hit");
      }
      const bool miss = cache.misses() > misses;
      s.hier_bytes[pi] = static_cast<double>(h->stored_matrix_bytes());
      std::unique_ptr<smg::PrecondBase<double>> M;
      {
        const Span sp("setup.precond");
        M = smg::make_mg_precond<double>(*h);
      }
      const double fetch = since(tf);
      const PanelOut po = solve_panel(probs[pi], k, *M);
      int maxit = 0;
      double sumit = 0.0;
      for (std::size_t c = 0; c < po.checks.size(); ++c) {
        tally.add(po.checks[c].passed);
        if (!po.checks[c].passed) {
          note_failure(probs[pi].prob.name, po.checks[c],
                       po.res.columns[c]);
        }
        maxit = std::max(maxit, po.res.columns[c].iters);
        sumit += po.res.columns[c].iters;
      }
      if (traced) {
        s.traced_tts[pi].push_back(fetch + po.seconds);
        ++s.traced_solves;
        s.useful[pi].push_back(
            maxit > 0 ? sumit / (static_cast<double>(po.checks.size()) * maxit)
                      : 1.0);
        continue;
      }
      if (miss) {
        s.setup[pi].push_back(fetch);
      } else {
        s.fetch_solve[pi].push_back(fetch + po.seconds);
      }
      s.solve[pi].push_back(po.seconds);
      s.iters[pi].push_back(maxit);
      s.tts[pi].push_back(fetch + po.seconds);
      s.rhs_solved += static_cast<std::int64_t>(po.checks.size());
    }
  }
  tracer().set_enabled(false);
  s.traced_solves = np > 0 ? s.traced_solves / np : 0;
}

/// Per-layer metrics of the timed loop's traced repetitions: spans with
/// index >= `from`, normalised per solve (per panel for Panel) and summed
/// over problems.
void loop_layer_metrics(const WorkloadSpec& spec, const LoopSamples& s,
                        std::size_t from, std::vector<Metric>& out) {
  const auto self = tracer().self_seconds(from);
  const auto incl = tracer().inclusive_seconds(from);
  const auto cnt = tracer().counts(from);
  const auto get = [](const auto& m, const char* k) {
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double per = s.traced_solves > 0 ? 1.0 / s.traced_solves : 0.0;
  const bool panel = spec.mode == Mode::Panel;

  out.push_back({"precond.apply_s", "s", get(self, "precond.apply") * per});
  out.push_back({"precond.applies", "count", get(cnt, "precond.apply") * per});
  const double solve_incl = get(incl, "solve") + get(incl, "panel.solve");
  const double apply_incl =
      get(incl, "precond.apply") + get(incl, "panel.apply");
  out.push_back({"precond.share", "ratio",
                 solve_incl > 0.0 ? apply_incl / solve_incl : 0.0});
  out.push_back({"solver.op_s", "s", get(self, "solver.op") * per});
  out.push_back({"solver.other_s", "s", get(self, "solve") * per});

  out.push_back({"panel.apply_s", "s", get(self, "panel.apply") * per});
  out.push_back({"panel.op_s", "s", get(self, "panel.op") * per});
  out.push_back({"panel.other_s", "s", get(self, "panel.solve") * per});
  double useful = 0.0;
  for (const auto& v : s.useful) {
    useful += median(v);
  }
  out.push_back({"panel.useful_frac", "ratio",
                 panel && !s.useful.empty()
                     ? useful / static_cast<double>(s.useful.size())
                     : 0.0});

  const double hits = get(cnt, "cache.hit");
  const double misses = get(cnt, "cache.miss");
  const double np = static_cast<double>(spec.problems.size());
  out.push_back({"cache.hit_s", "s",
                 hits > 0.0 ? get(self, "cache.hit") / hits * np : 0.0});
  out.push_back({"cache.miss_s", "s",
                 misses > 0.0 ? get(self, "cache.miss") / misses * np : 0.0});
  out.push_back({"cache.hit_ratio", "ratio",
                 hits + misses > 0.0 ? hits / (hits + misses) : 0.0});

  const double untraced = sum_of_medians(s.tts);
  out.push_back({"trace.overhead", "ratio",
                 untraced > 0.0 ? sum_of_medians(s.traced_tts) / untraced - 1.0
                                : 0.0});
}

}  // namespace

RunReport run_workload(const RunOptions& opt) {
  const WorkloadSpec spec = workload(opt.workload);
  RunReport rep;
  std::vector<Metric> layer;

  // STREAM first: its arrays are the largest allocation of the traced run
  // and are released before the workload's own data exists.
  double stream_gbs = 0.0;
  if (opt.trace) {
    stream_gbs = probe_stream(layer);
  }

  const int np = static_cast<int>(spec.problems.size());
  const int nrhs = spec.mode == Mode::Panel
                       ? spec.panel_k * spec.panel_rounds
                       : spec.solves_per_build;
  std::vector<Prepared> probs;
  for (int p = 0; p < np; ++p) {
    probs.push_back(prepare(spec.problems[static_cast<std::size_t>(p)],
                            spec.box, p, opt.seed, nrhs,
                            spec.mode == Mode::Panel ? spec.panel_k : 0));
  }

  LoopSamples s(static_cast<std::size_t>(np));
  const std::size_t loop_from = tracer().spans().size();
  const auto t_loop = clock_type::now();
  if (spec.mode == Mode::Panel) {
    panel_loop(spec, probs, opt, s, rep.tally);
  } else {
    single_rhs_loop(spec, probs, opt, s, rep.tally);
  }
  const double loop_s = since(t_loop);
  double hier_mb = 0.0;
  for (const double b : s.hier_bytes) {
    hier_mb += b / 1e6;
  }

  const double setup_s = sum_of_medians(s.setup);
  const double solve_s = sum_of_medians(s.solve);
  double solves_per_s = 0.0;
  if (spec.mode == Mode::Panel) {
    const double t = sum_of_medians(s.fetch_solve);
    solves_per_s = t > 0.0 ? spec.panel_k * np / t : 0.0;
  } else {
    solves_per_s = solve_s > 0.0 ? np / solve_s : 0.0;
  }
  std::printf(
      "workload %s: %d problem(s), loop %.2f s, %lld RHS solved untraced, "
      "%lld/%lld solves passed\n",
      spec.name.c_str(), np, loop_s, static_cast<long long>(s.rhs_solved),
      static_cast<long long>(rep.tally.attempted - rep.tally.failed),
      static_cast<long long>(rep.tally.attempted));
  for (int p = 0; p < np; ++p) {
    const auto pi = static_cast<std::size_t>(p);
    const auto range = [](const std::vector<double>& v) {
      return v.empty() ? std::pair{0.0, 0.0}
                       : std::pair{*std::min_element(v.begin(), v.end()),
                                   *std::max_element(v.begin(), v.end())};
    };
    const auto [smin, smax] = range(s.setup[pi]);
    const auto [vmin, vmax] = range(s.solve[pi]);
    std::printf("  %-12s n=%-8lld setup %.4f s [%.4f-%.4f] x%zu  solve %.4f s "
                "[%.4f-%.4f] x%zu  iters %g\n",
                spec.problems[pi].c_str(),
                static_cast<long long>(probs[pi].prob.A.nrows()),
                median(s.setup[pi]), smin, smax, s.setup[pi].size(),
                median(s.solve[pi]), vmin, vmax, s.solve[pi].size(),
                median(s.iters[pi]));
  }

  if (!opt.trace) {
    rep.metrics = {
        {"setup_s", "s", setup_s},
        {"solve_s", "s", solve_s},
        {"tts_s", "s", setup_s + solve_s},
        {"solves_per_s", "1/s", solves_per_s},
        {"iters", "count", sum_of_medians(s.iters)},
        {"ok_frac", "ratio", rep.tally.ok_frac()},
        {"peak_rss_mb", "MB", peak_rss_mb()},
        {"hier_mb", "MB", hier_mb},
    };
    return rep;
  }

  loop_layer_metrics(spec, s, loop_from, layer);

  // The probes run on one fresh build per problem; the loop has released
  // its own builds, so the 128^3 probe never holds two hierarchies.
  std::vector<Built> probe_builds;
  probe_setup(spec, probs, probe_builds, layer);
  probe_kernels(probe_builds, stream_gbs, layer);
  probe_parallel(spec, probs, probe_builds, layer);
  probe_builds.clear();
  probs.clear();
  probe_decomp(opt.seed, layer);

  if (!opt.trace_out.empty() && !tracer().write_chrome_json(opt.trace_out)) {
    std::printf("warning: could not write trace to %s\n",
                opt.trace_out.c_str());
  }
  rep.metrics = std::move(layer);
  return rep;
}

}  // namespace perfbench
