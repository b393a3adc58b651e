#include "stats.hpp"

#include <algorithm>
#include <cmath>

#include "kernels/spmv.hpp"
#include "util/rng.hpp"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::vector<std::pair<int, int>> round_robin(int rounds, int nproblems) {
  std::vector<std::pair<int, int>> order;
  for (int r = 0; r < rounds; ++r) {
    for (int p = 0; p < nproblems; ++p) {
      order.emplace_back(r, p);
    }
  }
  return order;
}

bool another_round(int done, int min_rounds, double elapsed, double budget) {
  if (done < min_rounds) {
    return true;
  }
  return done > 0 && elapsed + elapsed / done <= budget;
}

double sum_of_medians(const PerProblem& samples) {
  double s = 0.0;
  for (const std::vector<double>& v : samples) {
    s += median(v);
  }
  return s;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) {
    return false;
  }
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) {
    return false;
  }
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

SolveCheck check_solve(const smg::StructMat<double>& A,
                       std::span<const double> b, std::span<const double> x,
                       std::span<const double> xstar,
                       const smg::SolveResult& res, double rtol) {
  const std::size_t n = b.size();
  smg::avec<double> ax(n, 0.0);
  smg::spmv<double, double>(A, x, {ax.data(), n});
  double rr = 0.0, bb = 0.0, ee = 0.0, xx = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double r = b[i] - ax[i];
    rr += r * r;
    bb += b[i] * b[i];
    const double e = x[i] - xstar[i];
    ee += e * e;
    xx += xstar[i] * xstar[i];
  }
  SolveCheck c;
  c.true_relres = std::sqrt(rr) / (bb > 0.0 ? std::sqrt(bb) : 1.0);
  c.error_rel = std::sqrt(ee) / (xx > 0.0 ? std::sqrt(xx) : 1.0);
  c.passed = res.converged && !res.breakdown &&
             std::isfinite(c.true_relres) && c.true_relres <= rtol;
  return c;
}

smg::avec<double> seeded_solution(std::uint64_t seed, std::uint64_t stream,
                                  std::int64_t n) {
  std::uint64_t mix = seed ^ (0x9E3779B97F4A7C15ull * (stream + 1));
  smg::Rng rng(smg::splitmix64(mix));
  smg::avec<double> x(static_cast<std::size_t>(n));
  for (double& v : x) {
    v = rng.uniform(-1.0, 1.0);
  }
  return x;
}

smg::avec<double> make_rhs(const smg::StructMat<double>& A,
                           std::span<const double> xstar) {
  smg::avec<double> b(xstar.size(), 0.0);
  smg::spmv<double, double>(A, xstar, {b.data(), b.size()});
  return b;
}

}  // namespace perfbench
