// Service-metrics registry tests (src/obs/metrics.hpp).
//
// The load-bearing contracts:
//   * counters/histograms merge EXACTLY across concurrent writers (the
//     per-thread shards lose nothing),
//   * histogram percentiles land within one bucket of the true quantile,
//   * the registry dedupes (name, labels) to one stable handle,
//   * record helpers are no-ops when metrics are off,
//   * enabling metrics does not change solve results BITWISE (the
//     instrumentation is bookkeeping only), and
//   * request IDs are assigned monotonically, pinnable via SolveOptions,
//     and contiguous per column under solve_many.
//
// NOTE: the metrics switch and registry are process-global and sticky;
// tests that need the off state flip it off explicitly (allowed from
// tests) and run before asserting deltas, never absolute values.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include "core/mg_precond.hpp"
#include "kernels/spmv.hpp"
#include "obs/metrics.hpp"
#include "problems/problem.hpp"
#include "solvers/cg.hpp"
#include "solvers/solve_many.hpp"

namespace smg {
namespace {

using obs::MetricsRegistry;

LinOp<double> op_of(const StructMat<double>& A) {
  return [&A](std::span<const double> x, std::span<double> y) {
    spmv<double, double>(A, x, y);
  };
}

TEST(MetricsLevel, ParseAcceptsTheDocumentedSpellings) {
  using obs::MetricsLevel;
  using obs::parse_metrics;
  EXPECT_EQ(parse_metrics("on", MetricsLevel::Off), MetricsLevel::On);
  EXPECT_EQ(parse_metrics("ON", MetricsLevel::Off), MetricsLevel::On);
  EXPECT_EQ(parse_metrics("1", MetricsLevel::Off), MetricsLevel::On);
  EXPECT_EQ(parse_metrics("true", MetricsLevel::Off), MetricsLevel::On);
  EXPECT_EQ(parse_metrics("off", MetricsLevel::On), MetricsLevel::Off);
  EXPECT_EQ(parse_metrics("0", MetricsLevel::On), MetricsLevel::Off);
  EXPECT_EQ(parse_metrics("false", MetricsLevel::On), MetricsLevel::Off);
  // Unknown spellings keep the fallback.
  EXPECT_EQ(parse_metrics("bogus", MetricsLevel::On), MetricsLevel::On);
  EXPECT_EQ(parse_metrics("", MetricsLevel::Off), MetricsLevel::Off);
}

TEST(MetricsRegistryTest, DedupesByNameAndLabels) {
  MetricsRegistry& r = MetricsRegistry::global();
  obs::Counter& a = r.counter("test_dedupe_total", "h", {{"k", "v"}});
  obs::Counter& b = r.counter("test_dedupe_total", "h", {{"k", "v"}});
  obs::Counter& c = r.counter("test_dedupe_total", "h", {{"k", "w"}});
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &c);
  obs::Histogram& h1 =
      r.histogram("test_dedupe_seconds", "h", obs::kLatencySpec);
  obs::Histogram& h2 =
      r.histogram("test_dedupe_seconds", "h", obs::kLatencySpec);
  EXPECT_EQ(&h1, &h2);
}

TEST(MetricsRegistryTest, CounterMergesExactlyAcrossThreads) {
  obs::Counter& c =
      MetricsRegistry::global().counter("test_counter_mt_total", "h");
  const double before = c.value();
  constexpr int kThreads = 8;
  constexpr int kAdds = 10000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&c] {
      for (int i = 0; i < kAdds; ++i) {
        c.inc();
      }
    });
  }
  for (std::thread& t : ts) {
    t.join();
  }
  EXPECT_EQ(c.value() - before, static_cast<double>(kThreads * kAdds));
}

TEST(MetricsRegistryTest, GaugeSetAndAdd) {
  obs::Gauge& g = MetricsRegistry::global().gauge("test_gauge", "h");
  g.set(3.5);
  EXPECT_EQ(g.value(), 3.5);
  g.add(1.5);
  EXPECT_EQ(g.value(), 5.0);
  g.set(-2.0);
  EXPECT_EQ(g.value(), -2.0);
}

TEST(HistogramTest, ExactCountsAndBucketLayout) {
  obs::Histogram h(obs::HistogramSpec{1.0, 2.0, 4});  // bounds 1,2,4,8,+Inf
  ASSERT_EQ(h.bounds().size(), 4u);
  EXPECT_EQ(h.bounds().front(), 1.0);
  EXPECT_EQ(h.bounds().back(), 8.0);
  h.observe(0.5);   // <= 1
  h.observe(1.0);   // <= 1 (upper bounds are inclusive)
  h.observe(1.5);   // <= 2
  h.observe(6.0);   // <= 8
  h.observe(100.0); // +Inf overflow
  const std::vector<std::uint64_t> counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 5u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 0u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(counts[4], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 6.0 + 100.0);
}

TEST(HistogramTest, NonFiniteObservationsLandInOverflow) {
  obs::Histogram h(obs::HistogramSpec{1.0, 2.0, 4});
  h.observe(std::nan(""));
  h.observe(std::numeric_limits<double>::infinity());
  const std::vector<std::uint64_t> counts = h.bucket_counts();
  EXPECT_EQ(counts.back(), 2u);
  EXPECT_EQ(h.count(), 2u);
}

TEST(HistogramTest, QuantileWithinOneBucketOfTruth) {
  // 1000 observations uniform over (0, 1]: true q-quantile is ~q.  The
  // log-bucket estimate must land inside the same bucket as the truth,
  // i.e. within a factor of the bucket growth.
  obs::Histogram h(obs::HistogramSpec{1e-3, 2.0, 12});
  for (int i = 1; i <= 1000; ++i) {
    h.observe(static_cast<double>(i) / 1000.0);
  }
  for (const double q : {0.5, 0.9, 0.99}) {
    const double est = h.quantile(q);
    // The truth q lies in bucket (lo, hi]; the estimate interpolates
    // inside that bucket, so |est - q| < bucket width at q.
    EXPECT_GT(est, q / 2.0) << "q=" << q;
    EXPECT_LE(est, q * 2.0) << "q=" << q;
  }
  // Degenerate quantiles.
  EXPECT_EQ(obs::Histogram(obs::kLatencySpec).quantile(0.5), 0.0);
}

TEST(HistogramTest, ConcurrentObservationsMergeExactly) {
  obs::Histogram h(obs::kLatencySpec);
  constexpr int kThreads = 8;
  constexpr int kObs = 5000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&h, t] {
      for (int i = 0; i < kObs; ++i) {
        // Exactly representable values so the sum check is exact.
        h.observe(t % 2 == 0 ? 0.5 : 0.25);
      }
    });
  }
  for (std::thread& t : ts) {
    t.join();
  }
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads * kObs));
  EXPECT_DOUBLE_EQ(h.sum(), kObs * (4 * 0.5 + 4 * 0.25));
  std::uint64_t total = 0;
  for (const std::uint64_t c : h.bucket_counts()) {
    total += c;
  }
  EXPECT_EQ(total, h.count());
}

TEST(MetricsSwitch, RecordHelpersNoOpWhenOff) {
  obs::enable_metrics(true);  // make sure the series exist to read
  obs::Counter& solves = MetricsRegistry::global().counter(
      "smg_solves_total", "Finished solves by solver and status",
      {{"solver", "cg"}, {"status", "converged"}});
  const double before = solves.value();
  obs::enable_metrics(false);
  EXPECT_FALSE(obs::metrics_enabled());
  obs::record_solve_metrics("cg", 0.01, 5, "converged", 0);
  obs::record_cache_hit();
  obs::record_cache_miss();
  obs::record_precond_apply(0.001);
  obs::record_autopilot_event("non_finite");
  EXPECT_EQ(solves.value(), before);
  obs::enable_metrics(true);
  obs::record_solve_metrics("cg", 0.01, 5, "converged", 0);
  EXPECT_EQ(solves.value(), before + 1.0);
}

/// One small CG solve; returns the converged iterate.
std::vector<double> solve_once() {
  Problem p = make_laplace27(Box{12, 12, 12});
  const StructMat<double> A = p.A;
  MGConfig cfg = config_d16_setup_scale();
  cfg.min_coarse_cells = 64;
  MGHierarchy h(std::move(p.A), cfg);
  auto M = make_mg_precond<double>(h);
  const std::size_t n = p.b.size();
  std::vector<double> x(n, 0.0);
  SolveOptions opts;
  opts.rtol = 1e-10;
  const SolveResult res =
      pcg<double>(op_of(A), {p.b.data(), n}, {x.data(), n}, *M, opts);
  EXPECT_TRUE(res.converged) << res.status();
  return x;
}

TEST(MetricsBitwise, EnablingMetricsDoesNotChangeSolveResults) {
  obs::enable_metrics(false);
  const std::vector<double> x_off = solve_once();
  obs::enable_metrics(true);
  const std::vector<double> x_on = solve_once();
  ASSERT_EQ(x_off.size(), x_on.size());
  ASSERT_FALSE(x_off.empty());
  EXPECT_EQ(std::memcmp(x_off.data(), x_on.data(),
                        x_off.size() * sizeof(double)),
            0)
      << "metrics=On solve differs bitwise from metrics=Off";
}

TEST(MetricsInstrumentation, SolveRecordsLatencyAndStatusSeries) {
  obs::enable_metrics(true);
  MetricsRegistry& r = MetricsRegistry::global();
  obs::Counter& solves =
      r.counter("smg_solves_total", "Finished solves by solver and status",
                {{"solver", "cg"}, {"status", "converged"}});
  obs::Histogram& latency = r.histogram(
      "smg_solve_latency_seconds", "Per-solve wall seconds",
      obs::kLatencySpec, {{"solver", "cg"}});
  obs::Histogram& iters =
      r.histogram("smg_solve_iterations", "Iterations per solve",
                  obs::kIterationSpec, {{"solver", "cg"}});
  const double solves_before = solves.value();
  const std::uint64_t lat_before = latency.count();
  const std::uint64_t it_before = iters.count();
  (void)solve_once();
  EXPECT_EQ(solves.value(), solves_before + 1.0);
  EXPECT_EQ(latency.count(), lat_before + 1);
  EXPECT_EQ(iters.count(), it_before + 1);
  EXPECT_GT(latency.sum(), 0.0);
}

TEST(RequestIds, AcquireIsMonotoneAndContiguous) {
  const std::uint64_t a = obs::acquire_request_ids(1);
  const std::uint64_t b = obs::acquire_request_ids(5);
  const std::uint64_t c = obs::acquire_request_ids(1);
  EXPECT_GE(a, 1u);  // 0 means "unassigned" everywhere
  EXPECT_EQ(b, a + 1);
  EXPECT_EQ(c, b + 5);
}

TEST(RequestIds, ScopeTagsTheThreadAndRestores) {
  EXPECT_EQ(obs::current_request(), 0u);
  {
    const obs::RequestScope outer(42);
    EXPECT_EQ(obs::current_request(), 42u);
    {
      const obs::RequestScope inner(43);
      EXPECT_EQ(obs::current_request(), 43u);
    }
    EXPECT_EQ(obs::current_request(), 42u);
  }
  EXPECT_EQ(obs::current_request(), 0u);
}

TEST(RequestIds, SolveAssignsAndPinsIds) {
  Problem p = make_laplace27(Box{10, 10, 10});
  const StructMat<double> A = p.A;
  MGConfig cfg = config_d16_setup_scale();
  cfg.min_coarse_cells = 64;
  MGHierarchy h(std::move(p.A), cfg);
  auto M = make_mg_precond<double>(h);
  const std::size_t n = p.b.size();
  SolveOptions opts;
  opts.rtol = 1e-8;

  std::vector<double> x(n, 0.0);
  const SolveResult r1 =
      pcg<double>(op_of(A), {p.b.data(), n}, {x.data(), n}, *M, opts);
  std::fill(x.begin(), x.end(), 0.0);
  const SolveResult r2 =
      pcg<double>(op_of(A), {p.b.data(), n}, {x.data(), n}, *M, opts);
  EXPECT_GE(r1.request_id, 1u);
  EXPECT_GT(r2.request_id, r1.request_id);  // auto IDs advance

  // An explicit ID is honored verbatim.
  opts.request_id = 9999;
  std::fill(x.begin(), x.end(), 0.0);
  const SolveResult r3 =
      pcg<double>(op_of(A), {p.b.data(), n}, {x.data(), n}, *M, opts);
  EXPECT_EQ(r3.request_id, 9999u);
}

TEST(RequestIds, SolveManyAssignsContiguousPerColumnIds) {
  Problem p = make_laplace27(Box{10, 10, 10});
  const StructMat<double> A = p.A;
  MGConfig cfg = config_d16_setup_scale();
  cfg.min_coarse_cells = 64;
  MGHierarchy h(std::move(p.A), cfg);
  auto M = make_mg_precond<double>(h);
  const std::size_t n = p.b.size();
  constexpr int k = 4;
  MultiVector<double> B(static_cast<std::int64_t>(n), k);
  MultiVector<double> X(static_cast<std::int64_t>(n), k);
  for (int c = 0; c < k; ++c) {
    B.insert_col(c, std::span<const double>{p.b.data(), n});
  }
  SolveManyOptions mopts;
  mopts.base.rtol = 1e-8;
  const SolveManyResult many =
      solve_many<double>(make_spmv_many_op<double>(A), B, X, *M, mopts);
  ASSERT_EQ(many.columns.size(), static_cast<std::size_t>(k));
  const std::uint64_t first = many.columns[0].request_id;
  EXPECT_GE(first, 1u);
  for (int c = 0; c < k; ++c) {
    EXPECT_EQ(many.columns[static_cast<std::size_t>(c)].request_id,
              first + static_cast<std::uint64_t>(c));
  }

  // Batching (rhs_batch 2 -> two batches) keeps the block contiguous.
  MultiVector<double> X2(static_cast<std::int64_t>(n), k);
  mopts.rhs_batch = 2;
  const SolveManyResult batched =
      solve_many<double>(make_spmv_many_op<double>(A), B, X2, *M, mopts);
  ASSERT_EQ(batched.columns.size(), static_cast<std::size_t>(k));
  EXPECT_EQ(batched.batches, 2);
  const std::uint64_t bfirst = batched.columns[0].request_id;
  for (int c = 0; c < k; ++c) {
    EXPECT_EQ(batched.columns[static_cast<std::size_t>(c)].request_id,
              bfirst + static_cast<std::uint64_t>(c));
  }
}

}  // namespace
}  // namespace smg
