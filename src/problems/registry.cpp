#include <algorithm>
#include <cmath>
#include <limits>

#include "kernels/blas1.hpp"
#include "kernels/spmv.hpp"
#include "problems/field_util.hpp"
#include "problems/problem.hpp"
#include "util/common.hpp"

namespace smg {

Problem make_problem(std::string_view name, const Box& box) {
  if (name == "laplace27") {
    return make_laplace27(box);
  }
  if (name == "laplace27e8") {
    return make_laplace27e8(box);
  }
  if (name == "rhd") {
    return make_rhd(box);
  }
  if (name == "rhd3t") {
    return make_rhd3t(box);
  }
  if (name == "oil") {
    return make_oil(box);
  }
  if (name == "oil4c") {
    return make_oil4c(box);
  }
  if (name == "weather") {
    return make_weather(box);
  }
  if (name == "solid3d") {
    return make_solid3d(box);
  }
  SMG_CHECK(false, "unknown problem name");
}

std::vector<std::string> problem_names() {
  return {"laplace27", "laplace27e8", "rhd",   "oil",
          "weather",   "rhd3t",       "oil4c", "solid3d"};
}

std::vector<double> value_magnitudes(const StructMat<double>& A) {
  std::vector<double> mags;
  mags.reserve(static_cast<std::size_t>(A.nnz_logical()));
  const Box& box = A.box();
  const Stencil& st = A.stencil();
  const int bs = A.block_size();
  for (int k = 0; k < box.nz; ++k) {
    for (int j = 0; j < box.ny; ++j) {
      for (int i = 0; i < box.nx; ++i) {
        const std::int64_t cell = box.idx(i, j, k);
        for (int d = 0; d < st.ndiag(); ++d) {
          const Offset& o = st.offset(d);
          if (!box.contains(i + o.dx, j + o.dy, k + o.dz)) {
            continue;
          }
          for (int br = 0; br < bs; ++br) {
            for (int bc = 0; bc < bs; ++bc) {
              const double v = std::abs(A.at(cell, d, br, bc));
              if (v > 0.0) {
                mags.push_back(v);
              }
            }
          }
        }
      }
    }
  }
  return mags;
}

std::vector<double> anisotropy_samples(const StructMat<double>& A) {
  std::vector<double> out;
  const Box& box = A.box();
  const Stencil& st = A.stencil();
  const int bs = A.block_size();
  out.reserve(static_cast<std::size_t>(A.ncells()));
  for (int k = 0; k < box.nz; ++k) {
    for (int j = 0; j < box.ny; ++j) {
      for (int i = 0; i < box.nx; ++i) {
        const std::int64_t cell = box.idx(i, j, k);
        // Directional coupling strength: Frobenius mass of entries whose
        // offset points (at least partly) along each axis.
        double s[3] = {0.0, 0.0, 0.0};
        for (int d = 0; d < st.ndiag(); ++d) {
          const Offset& o = st.offset(d);
          if (o.is_center() ||
              !box.contains(i + o.dx, j + o.dy, k + o.dz)) {
            continue;
          }
          double mass = 0.0;
          for (int br = 0; br < bs; ++br) {
            for (int bc = 0; bc < bs; ++bc) {
              const double v = A.at(cell, d, br, bc);
              mass += v * v;
            }
          }
          mass = std::sqrt(mass);
          if (o.dx != 0) {
            s[0] += mass;
          }
          if (o.dy != 0) {
            s[1] += mass;
          }
          if (o.dz != 0) {
            s[2] += mass;
          }
        }
        const double smax = std::max({s[0], s[1], s[2]});
        const double smin = std::min({s[0], s[1], s[2]});
        if (smin > 0.0 && smax > 0.0) {
          out.push_back(std::log10(smax / smin));
        }
      }
    }
  }
  return out;
}

namespace {

/// Count of eigenvalues of the symmetric tridiagonal (d, e) below x
/// (Sturm sequence).
int sturm_count(const std::vector<double>& d, const std::vector<double>& e,
                double x) {
  int count = 0;
  double q = d[0] - x;
  if (q < 0.0) {
    ++count;
  }
  for (std::size_t i = 1; i < d.size(); ++i) {
    const double denom = (q == 0.0) ? 1e-300 : q;
    q = d[i] - x - e[i - 1] * e[i - 1] / denom;
    if (q < 0.0) {
      ++count;
    }
  }
  return count;
}

double bisect_eig(const std::vector<double>& d, const std::vector<double>& e,
                  int index, double lo, double hi) {
  for (int it = 0; it < 200 && hi - lo > 1e-12 * std::max(1.0, std::abs(hi));
       ++it) {
    const double mid = 0.5 * (lo + hi);
    if (sturm_count(d, e, mid) > index) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace

double estimate_cond(const StructMat<double>& A, int iters) {
  const std::size_t n = static_cast<std::size_t>(A.nrows());
  const int m = std::min<int>(iters, static_cast<int>(n));

  // Lanczos with full reorthogonalization (m is small).
  std::vector<avec<double>> V;
  avec<double> w(n);
  std::vector<double> alpha, beta;

  V.emplace_back(n);
  {
    Rng rng(0xC0DE17ull);
    for (auto& v : V[0]) {
      v = rng.uniform(-1.0, 1.0);
    }
    const double nrm = nrm2_deterministic<double>({V[0].data(), n});
    scal<double>(1.0 / nrm, {V[0].data(), n});
  }

  for (int k = 0; k < m; ++k) {
    spmv<double, double>(A, {V.back().data(), n}, {w.data(), n});
    const double a =
        dot_deterministic<double>({w.data(), n}, {V.back().data(), n});
    alpha.push_back(a);
    axpy<double>(-a, {V.back().data(), n}, {w.data(), n});
    if (k > 0) {
      axpy<double>(-beta.back(), {V[V.size() - 2].data(), n}, {w.data(), n});
    }
    // Full reorthogonalization for numerical reliability.
    for (const auto& v : V) {
      const double c =
          dot_deterministic<double>({w.data(), n}, {v.data(), n});
      axpy<double>(-c, {v.data(), n}, {w.data(), n});
    }
    const double b = nrm2_deterministic<double>({w.data(), n});
    if (b < 1e-14 * std::abs(a) || k == m - 1) {
      break;
    }
    beta.push_back(b);
    V.emplace_back(n);
    for (std::size_t i = 0; i < n; ++i) {
      V.back()[i] = w[i] / b;
    }
  }

  // Gershgorin bounds for the tridiagonal, then bisect the extremes.
  const std::size_t t = alpha.size();
  if (t == 0) {
    return 0.0;
  }
  double lo = alpha[0], hi = alpha[0];
  for (std::size_t i = 0; i < t; ++i) {
    const double el = (i > 0) ? std::abs(beta[i - 1]) : 0.0;
    const double er = (i < beta.size()) ? std::abs(beta[i]) : 0.0;
    lo = std::min(lo, alpha[i] - el - er);
    hi = std::max(hi, alpha[i] + el + er);
  }
  const double lmin = bisect_eig(alpha, beta, 0, lo, hi);
  const double lmax = bisect_eig(alpha, beta, static_cast<int>(t) - 1, lo, hi);
  if (lmin <= 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  return lmax / lmin;
}

}  // namespace smg
