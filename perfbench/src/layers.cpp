// Traced-run probes: the per-layer numbers that the timed loop cannot see
// from the outside (setup phases, single kernel sweeps, thread scaling,
// STREAM, the decomposed engine).
#include <omp.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "bench.hpp"
#include "core/coarsen.hpp"
#include "core/dense_lu.hpp"
#include "core/scaling.hpp"
#include "core/smoother.hpp"
#include "core/transfer.hpp"
#include "kernels/blas1.hpp"
#include "kernels/fused.hpp"
#include "kernels/spmv.hpp"
#include "kernels/symgs.hpp"
#include "perfmodel/bytes.hpp"
#include "perfmodel/stream.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using clock_type = std::chrono::steady_clock;

double since(clock_type::time_point t0) {
  return std::chrono::duration<double>(clock_type::now() - t0).count();
}

constexpr double kMiB = 1024.0 * 1024.0;

/// Median wall time of `reps` calls of f after one warm-up call.
template <class F>
double time_median(int reps, const char* span, F&& f) {
  f();
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const Span s(span);
    const auto t0 = clock_type::now();
    f();
    t.push_back(since(t0));
  }
  return median(t);
}

/// Replay every setup phase of `h` on the hierarchy's own level inputs,
/// each inside its own span.
void replay_phases(const smg::MGHierarchy& h) {
  const smg::MGConfig& cfg = h.config();
  const int nlev = h.nlevels();
  for (int l = 0; l < nlev; ++l) {
    const smg::Level& lev = h.level(l);
    const smg::StructMat<double>& A = lev.A_full;
    if (l + 1 < nlev) {
      smg::Coarsening c;
      {
        const Span s("setup.select");
        c = cfg.aniso_coarsening
                ? smg::Coarsening::make(A.box(), cfg.min_dim,
                                        smg::coupling_strengths(A),
                                        cfg.coarsen_threshold)
                : smg::Coarsening::make(A.box(), cfg.min_dim);
      }
      const Span s("setup.galerkin");
      const smg::StructMat<double> coarse = smg::galerkin_coarsen(A, c);
    }
    if (cfg.smoother == smg::SmootherType::SymGS) {
      const Span s("setup.wavefront");
      const smg::WavefrontSchedule wf = smg::plan_smoother_wavefront(
          A.box(), A.stencil(), cfg.layout, cfg.smoother_parallel);
    }
    {
      const Span s("setup.smoother");
      smg::avec<double> inv = smg::compute_invdiag(A);
      if (cfg.truncate_smoother) {
        smg::truncate_smoother_data(inv, lev.storage);
      }
    }
    smg::StructMat<double> scaled;
    if (lev.scaled) {
      const Span s("setup.scale");
      scaled = A;
      smg::scale_matrix(scaled, cfg.scale_safety, smg::format_max(lev.storage));
    }
    const Span s("setup.truncate");
    smg::TruncateReport tr;
    const smg::AnyMat stored = smg::AnyMat::from(lev.scaled ? scaled : A,
                                                 lev.storage, cfg.layout, &tr);
  }
  const Span s("setup.coarse_lu");
  const smg::DenseLU lu(h.level(nlev - 1).A_full);
}

template <class Dst>
smg::avec<Dst> converted(const smg::avec<double>& v) {
  smg::avec<Dst> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    out[i] = static_cast<Dst>(v[i]);
  }
  return out;
}

struct KernelTimes {
  double seconds[6] = {};
  double bytes[6] = {};
};
constexpr const char* kKernels[6] = {"spmv", "symgs", "resrestrict",
                                     "prolong", "dot", "axpy"};

/// Time the six kernels on the finest stored level of `h` with compute
/// precision CT, accumulating into `kt`.
template <class CT>
void time_finest(const smg::MGHierarchy& h, KernelTimes& kt) {
  constexpr int kReps = 7;
  const smg::Level& lev = h.level(0);
  const smg::MGConfig& cfg = h.config();
  const std::size_t m = static_cast<std::size_t>(lev.A_full.nrows());
  const int bs = lev.A_full.block_size();
  const smg::Prec vec = cfg.compute;
  const double nnz = static_cast<double>(lev.A_stored.nnz_logical());
  const double md = static_cast<double>(m);

  smg::avec<CT> x(m), y(m), f(m), u(m);
  for (std::size_t i = 0; i < m; ++i) {
    x[i] = static_cast<CT>(1.0 + 1e-3 * static_cast<double>(i % 97));
    f[i] = static_cast<CT>(0.5 - 1e-3 * static_cast<double>(i % 89));
  }
  const smg::avec<CT> q2 = converted<CT>(lev.q2);
  const smg::avec<CT> inv = converted<CT>(lev.invdiag);
  const CT* q2p = q2.empty() ? nullptr : q2.data();
  const smg::WavefrontSchedule* wf =
      lev.smoother_wf.valid() ? &lev.smoother_wf : nullptr;
  const std::span<const CT> xs{x.data(), m}, fs{f.data(), m};
  const std::span<const CT> invs{inv.data(), inv.size()};

  lev.A_stored.visit([&](const auto& A) {
    kt.seconds[0] += time_median(kReps, "kern.spmv", [&] {
      smg::spmv(A, xs, std::span<CT>{y.data(), m}, q2p);
    });
    kt.bytes[0] += smg::spmv_bytes(nnz, md, lev.storage, vec, lev.scaled);
    kt.seconds[1] += time_median(kReps, "kern.symgs", [&] {
      smg::gs_forward(A, fs, std::span<CT>{u.data(), m}, invs, q2p, wf);
      smg::gs_backward(A, fs, std::span<CT>{u.data(), m}, invs, q2p, wf);
    });
    kt.bytes[1] += 2.0 * smg::symgs_sweep_bytes(nnz, md, lev.storage, vec,
                                                lev.scaled);
    if (h.nlevels() > 1) {
      const smg::Coarsening& c = lev.to_coarse;
      const std::size_t mc = static_cast<std::size_t>(c.coarse.size() * bs);
      smg::avec<CT> fc(mc, CT{0}), ec(mc, CT{1});
      kt.seconds[2] += time_median(kReps, "kern.resrestrict", [&] {
        smg::residual_restrict(A, fs, xs, q2p, c,
                               std::span<CT>{fc.data(), mc});
      });
      kt.bytes[2] += smg::residual_restrict_bytes(
          nnz, md, static_cast<double>(mc), lev.storage, vec, lev.scaled);
      kt.seconds[3] += time_median(kReps, "kern.prolong", [&] {
        smg::prolong_add(c, bs, std::span<const CT>{ec.data(), mc},
                         std::span<CT>{u.data(), m});
      });
      kt.bytes[3] +=
          smg::prolong_bytes(md, static_cast<double>(mc), vec);
    }
  });

  // Krylov BLAS1 runs in FP64 whatever the preconditioner precision.
  smg::avec<double> a(m, 1.0), b(m, 0.5);
  volatile double sink = 0.0;
  kt.seconds[4] += time_median(kReps, "kern.dot", [&] {
    sink = sink + smg::dot_deterministic<double>({a.data(), m}, {b.data(), m});
  });
  kt.bytes[4] += 2.0 * 8.0 * md;
  kt.seconds[5] += time_median(kReps, "kern.axpy", [&] {
    smg::axpy<double>(1e-9, {a.data(), m}, {b.data(), m});
  });
  kt.bytes[5] += 3.0 * 8.0 * md;
}

}  // namespace

std::size_t llc_bytes() {
  const long v = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return v > 0 ? static_cast<std::size_t>(v) : std::size_t{32} << 20;
}

double probe_stream(std::vector<Metric>& out) {
  const std::size_t llc = llc_bytes();
  const std::size_t n = (4 * llc + sizeof(double) - 1) / sizeof(double);
  const smg::StreamResult r = smg::measure_stream(n, 3);
  const double array_mib = static_cast<double>(r.bytes) / kMiB;
  const double llc_mib = static_cast<double>(llc) / kMiB;
  std::printf("STREAM triad %.2f GB/s, copy %.2f GB/s (arrays %.0f MiB each, "
              "LLC %.0f MiB)\n",
              r.triad_gbs, r.copy_gbs, array_mib, llc_mib);
  out.push_back({"stream.triad_gbs", "GB/s", r.triad_gbs});
  return r.triad_gbs;
}

void probe_setup(const WorkloadSpec& spec,
                 const std::vector<Prepared>& problems,
                 std::vector<Built>& probe_builds, std::vector<Metric>& out) {
  tracer().set_enabled(true);
  const std::size_t from = tracer().spans().size();
  double hier = 0.0, prec = 0.0, cpu = 0.0;
  for (const Prepared& p : problems) {
    Built b = build(p.prob.A, spec.cfg);
    hier += b.hierarchy_s;
    prec += b.precond_s;
    cpu += b.cpu_s;
    replay_phases(*b.h);
    probe_builds.push_back(std::move(b));
  }
  tracer().set_enabled(false);

  const auto self = tracer().self_seconds(from);
  const auto get = [&](const char* k) {
    const auto it = self.find(k);
    return it == self.end() ? 0.0 : it->second;
  };
  out.push_back({"setup.hierarchy_s", "s", hier});
  out.push_back({"setup.precond_s", "s", prec});
  double phases = 0.0;
  for (const char* ph : {"select", "galerkin", "scale", "truncate", "smoother",
                         "wavefront", "coarse_lu"}) {
    const std::string span = std::string("setup.") + ph;
    const double v = get(span.c_str());
    phases += v;
    out.push_back({span + "_s", "s", v});
  }
  out.push_back({"setup.unattributed_s", "s", hier - phases});
  out.push_back({"setup.cpu_per_wall", "ratio", hier > 0.0 ? cpu / hier : 0.0});
  std::printf("setup probe: hierarchy %.4f s = replayed phases %.4f s + "
              "unattributed %.4f s; CPU/wall %.2f\n",
              hier, phases, hier - phases, hier > 0.0 ? cpu / hier : 0.0);
}

void probe_kernels(const std::vector<Built>& probe_builds, double stream_gbs,
                   std::vector<Metric>& out) {
  tracer().set_enabled(true);
  KernelTimes kt;
  for (const Built& b : probe_builds) {
    if (b.h->config().compute == smg::Prec::FP64) {
      time_finest<double>(*b.h, kt);
    } else {
      time_finest<float>(*b.h, kt);
    }
  }
  tracer().set_enabled(false);
  const double llc_mib = static_cast<double>(llc_bytes()) / kMiB;
  for (int k = 0; k < 6; ++k) {
    const std::string name = std::string("kern.") + kKernels[k];
    const double gbs =
        kt.seconds[k] > 0.0 ? kt.bytes[k] / kt.seconds[k] / 1e9 : 0.0;
    const double pct = stream_gbs > 0.0 ? 100.0 * gbs / stream_gbs : 0.0;
    out.push_back({name + "_s", "s", kt.seconds[k]});
    out.push_back({name + ".gbs", "GB/s", gbs});
    out.push_back({name + ".pct_stream", "%", pct});
    std::printf("  %-18s %.6f s  %.2f GB/s computed from perfmodel bytes, "
                "%.1f%% of STREAM triad %.2f GB/s (arrays %.0f MiB, LLC "
                "%.0f MiB)\n",
                name.c_str(), kt.seconds[k], gbs, pct, stream_gbs,
                4.0 * llc_mib, llc_mib);
  }
}

void probe_parallel(const WorkloadSpec& spec,
                    const std::vector<Prepared>& problems,
                    const std::vector<Built>& probe_builds,
                    std::vector<Metric>& out) {
  const int restore = omp_get_max_threads();
  double t[3] = {};
  const int threads[3] = {1, 2, 4};
  for (int i = 0; i < 3; ++i) {
    omp_set_num_threads(threads[i]);
    for (std::size_t p = 0; p < problems.size(); ++p) {
      std::vector<double> reps;
      for (int r = 0; r < 2; ++r) {
        reps.push_back(spec.mode == Mode::Panel
                           ? solve_panel(problems[p], 0, *probe_builds[p].M)
                                 .seconds
                           : solve_one(problems[p], 0, *probe_builds[p].M)
                                 .seconds);
      }
      t[i] += *std::min_element(reps.begin(), reps.end());
    }
  }
  omp_set_num_threads(restore);
  out.push_back({"par.solve_speedup_2v1", "ratio", t[1] > 0 ? t[0] / t[1] : 0});
  out.push_back({"par.solve_speedup_4v1", "ratio", t[2] > 0 ? t[0] / t[2] : 0});
  std::printf("thread scaling of the solve phase: 1T %.4f s, 2T %.4f s, "
              "4T %.4f s\n",
              t[0], t[1], t[2]);
}

void probe_decomp(std::uint64_t seed, std::vector<Metric>& out) {
  const std::vector<std::string>& suite = suite8_problems();
  for (const bool fp16 : {true, false}) {
    smg::MGConfig cfg =
        fp16 ? smg::config_d16_setup_scale() : smg::config_full64();
    cfg.decomp = {2, 1, 1};
    const char* tag = fp16 ? "fp16" : "fp64";
    Tally t;
    std::printf("decomposed engine {2,1,1} at 24^3, %s:", tag);
    for (std::size_t i = 0; i < suite.size(); ++i) {
      const Prepared p = prepare(suite[i], smg::Box{24, 24, 24},
                                 static_cast<int>(i), seed, 1, 0);
      Built b = build(p.prob.A, cfg);
      const SolveOut so = solve_one(p, 0, *b.M);
      t.add(so.check.passed);
      out.push_back({"decomp.iters." + suite[i] + "." + tag, "count",
                     static_cast<double>(so.res.iters)});
      std::printf(" %s=%d%s", suite[i].c_str(), so.res.iters,
                  so.check.passed ? "" : "(FAILED)");
    }
    std::printf("\n");
    out.push_back({std::string("decomp.ok_frac.") + tag, "ratio", t.ok_frac()});
  }
}

}  // namespace perfbench
