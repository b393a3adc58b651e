// Self-tests of the benchmark's bookkeeping: repetition order, median sums,
// solve tallies, metric names, and seed determinism of inputs and
// iteration counts.  Run: perfbench_tests (exit 0 when every check passes).
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench.hpp"

namespace {

int g_failed = 0;
int g_checks = 0;

void check(bool ok, const char* what, int line) {
  ++g_checks;
  if (!ok) {
    ++g_failed;
    std::printf("FAIL line %d: %s\n", line, what);
  }
}
#define CHECK(c) check((c), #c, __LINE__)

using namespace perfbench;

void test_round_robin() {
  const auto order = round_robin(3, 4);
  CHECK(order.size() == 12);
  // Every round visits every problem once, in order, before the next round.
  for (std::size_t i = 0; i < order.size(); ++i) {
    CHECK(order[i].first == static_cast<int>(i / 4));
    CHECK(order[i].second == static_cast<int>(i % 4));
  }
  CHECK(round_robin(0, 4).empty());
  CHECK(round_robin(2, 0).empty());
  // Time-bounded rounds: the minimum always runs, then a round starts only
  // if a round of the mean length so far still fits the budget.
  CHECK(another_round(0, 3, 100.0, 10.0));
  CHECK(another_round(2, 3, 100.0, 10.0));
  CHECK(another_round(3, 3, 6.0, 10.0));   // 6 + 2 <= 10
  CHECK(!another_round(3, 3, 9.0, 10.0));  // 9 + 3 > 10
  CHECK(!another_round(0, 0, 0.0, 10.0));
}

void test_median_sums() {
  CHECK(median({}) == 0.0);
  CHECK(median({3.0}) == 3.0);
  CHECK(median({5.0, 1.0, 3.0}) == 3.0);
  CHECK(median({4.0, 1.0, 3.0, 2.0}) == 2.5);
  // A stall on one sample of one problem does not move that problem's
  // median, so it does not move the sum either.
  const PerProblem steady = {{1.0, 1.0, 1.0}, {2.0, 2.0, 2.0}};
  const PerProblem stalled = {{1.0, 9.0, 1.0}, {2.0, 2.0, 2.0}};
  CHECK(sum_of_medians(steady) == 3.0);
  CHECK(sum_of_medians(stalled) == 3.0);
  CHECK(sum_of_medians({{}, {4.0}}) == 4.0);
}

smg::SolveResult result(bool converged, bool breakdown, int iters) {
  smg::SolveResult r;
  r.converged = converged;
  r.breakdown = breakdown;
  r.iters = iters;
  return r;
}

void test_tally_and_check() {
  Tally t;
  CHECK(t.ok_frac() == 0.0);
  t.add(true);
  t.add(true);
  t.add(false);
  t.add(true);
  CHECK(t.attempted == 4 && t.failed == 1);
  CHECK(t.ok_frac() == 0.75);

  // The answer check on a real problem: the exact solution passes, and a
  // capped or broken-down solve fails even with the exact answer in hand.
  const smg::Problem p = smg::make_problem("laplace27", smg::Box{8, 8, 8});
  const auto xs = seeded_solution(7, 0, p.A.nrows());
  const auto b = make_rhs(p.A, xs);
  const std::size_t n = xs.size();
  const std::span<const double> bs{b.data(), n}, xss{xs.data(), n};
  const SolveCheck exact =
      check_solve(p.A, bs, xss, xss, result(true, false, 5), kRtol);
  CHECK(exact.passed && exact.true_relres <= 1e-14 && exact.error_rel == 0.0);
  CHECK(!check_solve(p.A, bs, xss, xss, result(false, false, kMaxIters), kRtol)
             .passed);
  CHECK(!check_solve(p.A, bs, xss, xss, result(true, true, 3), kRtol).passed);

  // A "converged" solve whose true residual misses rtol fails.
  smg::avec<double> off(xs);
  off[n / 2] += 1.0;
  const SolveCheck wrong = check_solve(p.A, bs, {off.data(), n}, xss,
                                       result(true, false, 5), kRtol);
  CHECK(!wrong.passed && wrong.true_relres > kRtol && wrong.error_rel > 0.0);

  // Non-finite answers fail.
  off[0] = std::nan("");
  CHECK(!check_solve(p.A, bs, {off.data(), n}, xss, result(true, false, 5),
                     kRtol)
             .passed);

  Tally counted;
  for (const bool passed :
       {exact.passed, wrong.passed,
        check_solve(p.A, bs, xss, xss, result(false, false, 400), kRtol)
            .passed}) {
    counted.add(passed);
  }
  CHECK(counted.attempted == 3 && counted.failed == 2);
}

void test_metric_names() {
  CHECK(valid_metric_name("setup_s"));
  CHECK(valid_metric_name("kern.spmv.pct_stream"));
  CHECK(valid_metric_name("decomp.iters.laplace27e8.fp16"));
  CHECK(valid_metric_name("9lives-a_b.c"));
  CHECK(!valid_metric_name(""));
  CHECK(!valid_metric_name("_leading"));
  CHECK(!valid_metric_name(".leading"));
  CHECK(!valid_metric_name("has space"));
  CHECK(!valid_metric_name("slash/unit"));
  CHECK(!valid_metric_name(std::string(65, 'a')));
  CHECK(valid_metric_name(std::string(64, 'a')));
  // Every end-to-end metric name passes the rule.
  for (const char* n :
       {"setup_s", "solve_s", "tts_s", "solves_per_s", "iters", "ok_frac",
        "peak_rss_mb", "hier_mb"}) {
    CHECK(valid_metric_name(n));
  }
}

void test_seed_determinism() {
  // Same seed: bitwise-identical right-hand sides; different seed: not.
  const Prepared a = prepare("rhd", smg::Box{12, 12, 12}, 2, 42, 2, 0);
  const Prepared b = prepare("rhd", smg::Box{12, 12, 12}, 2, 42, 2, 0);
  const Prepared c = prepare("rhd", smg::Box{12, 12, 12}, 2, 43, 2, 0);
  const std::size_t bytes = a.n() * sizeof(double);
  for (int j = 0; j < 2; ++j) {
    CHECK(std::memcmp(a.b[j].data(), b.b[j].data(), bytes) == 0);
    CHECK(std::memcmp(a.xstar[j].data(), b.xstar[j].data(), bytes) == 0);
    CHECK(std::memcmp(a.b[j].data(), c.b[j].data(), bytes) != 0);
  }
  CHECK(std::memcmp(a.b[0].data(), a.b[1].data(), bytes) != 0);

  // Same seed: identical iteration counts from two independent builds, for
  // a CG and a GMRES problem and for a panel.
  for (const char* name : {"laplace27", "weather"}) {
    const Prepared p = prepare(name, smg::Box{16, 16, 16}, 0, 42, 1, 0);
    Built b1 = build(p.prob.A, smg::config_d16_setup_scale());
    Built b2 = build(p.prob.A, smg::config_d16_setup_scale());
    const SolveOut s1 = solve_one(p, 0, *b1.M);
    const SolveOut s2 = solve_one(p, 0, *b2.M);
    CHECK(s1.check.passed && s2.check.passed);
    CHECK(s1.res.iters == s2.res.iters);
    CHECK(s1.res.history == s2.res.history);
  }
  const Prepared p = prepare("laplace27", smg::Box{16, 16, 16}, 0, 42, 4, 4);
  Built bp = build(p.prob.A, smg::config_d16_setup_scale());
  const PanelOut p1 = solve_panel(p, 0, *bp.M);
  const PanelOut p2 = solve_panel(p, 0, *bp.M);
  for (std::size_t c = 0; c < p1.checks.size(); ++c) {
    CHECK(p1.checks[c].passed);
    CHECK(p1.res.columns[c].iters == p2.res.columns[c].iters);
  }
}

}  // namespace

int main() {
  test_round_robin();
  test_median_sums();
  test_tally_and_check();
  test_metric_names();
  test_seed_determinism();
  std::printf("%d/%d checks passed\n", g_checks - g_failed, g_checks);
  return g_failed == 0 ? 0 : 1;
}
