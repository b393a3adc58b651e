// google-benchmark microbenchmarks for the raw kernels backing Fig. 7.
#include <benchmark/benchmark.h>

#include "core/smoother.hpp"
#include "core/transfer.hpp"
#include "fp/convert.hpp"
#include "kernels/blas1.hpp"
#include "kernels/spmv.hpp"
#include "kernels/symgs.hpp"
#include "util/rng.hpp"

namespace smg {
namespace {

StructMat<double> make_matrix(const Box& box, Pattern pat) {
  StructMat<double> A(box, Stencil::make(pat), 1, Layout::SOA);
  Rng rng(7);
  const int center = A.stencil().center();
  for (std::int64_t cell = 0; cell < A.ncells(); ++cell) {
    for (int d = 0; d < A.ndiag(); ++d) {
      A.at(cell, d) = d == center ? 2.0 * A.ndiag() : rng.uniform(-1.0, 1.0);
    }
  }
  A.clear_out_of_box();
  return A;
}

void BM_WidenHalf(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  avec<half> src(n, half(1.5f));
  avec<float> dst(n);
  for (auto _ : state) {
    widen(src.data(), dst.data(), n);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * 6);
}
BENCHMARK(BM_WidenHalf)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

template <class ST, Layout layout>
void BM_Spmv(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto Ad = make_matrix(Box{n, n, n}, Pattern::P3d27);
  const auto A = convert<ST>(Ad, layout);
  const std::size_t rows = static_cast<std::size_t>(A.nrows());
  avec<float> x(rows, 1.0f), y(rows);
  for (auto _ : state) {
    spmv<ST, float>(A, {x.data(), rows}, {y.data(), rows});
    benchmark::DoNotOptimize(y.data());
  }
  const std::int64_t bytes =
      static_cast<std::int64_t>(A.value_bytes()) +
      2 * static_cast<std::int64_t>(rows) * 4;
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          bytes);
}
BENCHMARK(BM_Spmv<float, Layout::SOA>)->Arg(32)->Arg(64);
BENCHMARK(BM_Spmv<half, Layout::SOA>)->Arg(32)->Arg(64);
BENCHMARK(BM_Spmv<half, Layout::AOS>)->Arg(32)->Arg(64);

template <class ST>
void BM_GsForward(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto Ad = make_matrix(Box{n, n, n}, Pattern::P3d14);
  const auto invd = compute_invdiag(Ad);
  avec<float> invdf(invd.size());
  copy_convert<float, double>({invd.data(), invd.size()},
                              {invdf.data(), invdf.size()});
  const auto A = convert<ST>(Ad, Layout::SOA);
  const std::size_t rows = static_cast<std::size_t>(A.nrows());
  avec<float> f(rows, 1.0f), u(rows, 0.0f);
  for (auto _ : state) {
    gs_forward<ST, float>(A, {f.data(), rows}, {u.data(), rows},
                          {invdf.data(), invdf.size()});
    benchmark::DoNotOptimize(u.data());
  }
  const std::int64_t bytes =
      static_cast<std::int64_t>(A.value_bytes()) +
      3 * static_cast<std::int64_t>(rows) * 4;
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          bytes);
}
BENCHMARK(BM_GsForward<float>)->Arg(32)->Arg(64);
BENCHMARK(BM_GsForward<half>)->Arg(32)->Arg(64);

void BM_Restrict(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Coarsening c = Coarsening::make(Box{n, n, n}, 5);
  avec<float> fine(static_cast<std::size_t>(c.fine.size()), 1.0f);
  avec<float> coarse(static_cast<std::size_t>(c.coarse.size()));
  for (auto _ : state) {
    restrict_to_coarse<float>(c, 1, {fine.data(), fine.size()},
                              {coarse.data(), coarse.size()});
    benchmark::DoNotOptimize(coarse.data());
  }
}
BENCHMARK(BM_Restrict)->Arg(32)->Arg(64);

void BM_Dot(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  avec<double> x(n, 1.0), y(n, 2.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dot_deterministic<double>({x.data(), n}, {y.data(), n}));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * 16);
}
BENCHMARK(BM_Dot)->Arg(1 << 16)->Arg(1 << 20);

}  // namespace
}  // namespace smg

// Own main instead of benchmark_main: ReportUnrecognizedArguments makes an
// unknown flag a hard error (exit 1), matching the harness CLI contract the
// other bench binaries get from harness/standalone_main.cpp.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
