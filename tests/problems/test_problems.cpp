// Problem generator tests: each synthetic problem must reproduce the
// numerical features Table 3 documents for its real-world counterpart.
#include <gtest/gtest.h>

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iomanip>

#include "core/scaling.hpp"
#include "fp/half.hpp"
#include "problems/problem.hpp"
#include "util/stats.hpp"

namespace smg {
namespace {

const Box kBox{12, 12, 10};

Problem get(const std::string& name) { return make_problem(name, kBox); }

TEST(Problems, RegistryListsAllEight) {
  const auto names = problem_names();
  EXPECT_EQ(names.size(), 8u);
  for (const auto& n : names) {
    const Problem p = make_problem(n, Box{6, 6, 6});
    EXPECT_EQ(p.name, n);
    EXPECT_EQ(p.b.size(), static_cast<std::size_t>(p.A.nrows()));
  }
}

struct FeatureCase {
  const char* name;
  int pattern_size;
  int bs;
  bool out_of_fp16;
  const char* solver;
};

class ProblemFeatures : public ::testing::TestWithParam<FeatureCase> {};

TEST_P(ProblemFeatures, MatchesTable3) {
  const auto& fc = GetParam();
  const Problem p = get(fc.name);
  EXPECT_EQ(p.A.stencil().ndiag(), fc.pattern_size);
  EXPECT_EQ(p.A.block_size(), fc.bs);
  EXPECT_EQ(p.solver, fc.solver);
  EXPECT_EQ(max_abs_value(p.A) > static_cast<double>(kHalfMax),
            fc.out_of_fp16)
      << "max |a| = " << max_abs_value(p.A);
}

INSTANTIATE_TEST_SUITE_P(
    Table3, ProblemFeatures,
    ::testing::Values(FeatureCase{"laplace27", 27, 1, false, "cg"},
                      FeatureCase{"laplace27e8", 27, 1, true, "cg"},
                      FeatureCase{"rhd", 7, 1, true, "cg"},
                      FeatureCase{"oil", 7, 1, false, "gmres"},
                      FeatureCase{"weather", 19, 1, true, "gmres"},
                      FeatureCase{"rhd3t", 7, 3, true, "cg"},
                      FeatureCase{"oil4c", 7, 4, true, "gmres"},
                      FeatureCase{"solid3d", 15, 3, true, "cg"}));

TEST(Problems, RhdSpansManyDecades) {
  // Fig. 1: rhd values run from far below to far above the FP16 window.
  const Problem p = get("rhd");
  const auto mags = value_magnitudes(p.A);
  const double lo = *std::min_element(mags.begin(), mags.end());
  const double hi = *std::max_element(mags.begin(), mags.end());
  EXPECT_LT(lo, 1e-4);
  EXPECT_GT(hi, 1e6);
  EXPECT_GT(std::log10(hi / lo), 10.0);  // > 10 decades of span
}

TEST(Problems, SymmetryMatchesSolverChoice) {
  for (const auto& name : problem_names()) {
    const Problem p = make_problem(name, Box{7, 6, 5});
    const Box& box = p.A.box();
    const Stencil& st = p.A.stencil();
    const int bs = p.A.block_size();
    double max_asym = 0.0, max_val = 0.0;
    for (int k = 0; k < box.nz; ++k) {
      for (int j = 0; j < box.ny; ++j) {
        for (int i = 0; i < box.nx; ++i) {
          for (int d = 0; d < st.ndiag(); ++d) {
            const Offset& o = st.offset(d);
            if (!box.contains(i + o.dx, j + o.dy, k + o.dz)) {
              continue;
            }
            const int dt = st.find(-o.dx, -o.dy, -o.dz);
            ASSERT_GE(dt, 0);
            const std::int64_t c1 = box.idx(i, j, k);
            const std::int64_t c2 = box.idx(i + o.dx, j + o.dy, k + o.dz);
            for (int br = 0; br < bs; ++br) {
              for (int bc = 0; bc < bs; ++bc) {
                const double a = p.A.at(c1, d, br, bc);
                const double b = p.A.at(c2, dt, bc, br);
                max_asym = std::max(max_asym, std::abs(a - b));
                max_val = std::max(max_val, std::abs(a));
              }
            }
          }
        }
      }
    }
    if (p.solver == "cg") {
      EXPECT_LE(max_asym, 1e-9 * max_val) << name << " must be symmetric";
    } else {
      EXPECT_GT(max_asym, 1e-6 * max_val) << name << " should be nonsymmetric";
    }
  }
}

TEST(Problems, AllDiagonalsPositive) {
  // M-matrix prerequisite for Theorem 4.1's square roots.
  for (const auto& name : problem_names()) {
    const Problem p = make_problem(name, Box{6, 6, 6});
    const int center = p.A.stencil().center();
    for (std::int64_t cell = 0; cell < p.A.ncells(); ++cell) {
      for (int br = 0; br < p.A.block_size(); ++br) {
        EXPECT_GT(p.A.at(cell, center, br, br), 0.0)
            << name << " cell " << cell << " comp " << br;
      }
    }
  }
}

TEST(Problems, AnisotropyClassesOrdered) {
  // Fig. 5: the High problems must measure clearly above the Low/None ones.
  auto median_aniso = [](const Problem& p) {
    auto s = anisotropy_samples(p.A);
    return percentile(std::vector<double>(s.begin(), s.end()), 50.0);
  };
  const double lap = median_aniso(get("laplace27"));
  const double rhd = median_aniso(get("rhd"));
  const double oil = median_aniso(get("oil"));
  const double weather = median_aniso(get("weather"));
  EXPECT_LT(lap, 0.05);      // isotropic
  EXPECT_GT(oil, 1.5);       // k_z/k_xy = 1e-3 -> ~3 decades
  EXPECT_GT(weather, 1.5);   // aspect-ratio driven
  EXPECT_LT(rhd, oil);       // "Low" vs "High"
}

TEST(Problems, GeneratorsAreDeterministic) {
  const Problem p1 = get("oil4c");
  const Problem p2 = get("oil4c");
  ASSERT_EQ(p1.A.values().size(), p2.A.values().size());
  for (std::size_t i = 0; i < p1.A.values().size(); ++i) {
    EXPECT_EQ(p1.A.values()[i], p2.A.values()[i]);
  }
  for (std::size_t i = 0; i < p1.b.size(); ++i) {
    EXPECT_EQ(p1.b[i], p2.b[i]);
  }
}

TEST(Problems, CondEstimateOrdersLaplaceVsRhd) {
  const double c_lap = estimate_cond(get("laplace27").A, 40);
  const double c_rhd = estimate_cond(get("rhd").A, 40);
  EXPECT_GT(c_lap, 1.0);
  // Table 3: laplace27 ~3e3 vs rhd ~1e8 (our estimates need only the order).
  EXPECT_GT(c_rhd, 10.0 * c_lap);
}

TEST(Problems, CondEstimateIsThreadCountInvariant) {
  // The Lanczos recurrence reduces with the fixed-order dot, so its Ritz
  // values (and the estimate) are bitwise equal at any thread count.  The
  // 32^3 box spans eight 4096-row reduction blocks, so 1 and 4 threads sum
  // different blocks.
  const int saved = omp_get_max_threads();
  for (const char* name : {"laplace27", "rhd"}) {
    const Problem p = make_problem(name, Box{32, 32, 32});
    omp_set_num_threads(1);
    const double c1 = estimate_cond(p.A);
    omp_set_num_threads(4);
    const double c4 = estimate_cond(p.A);
    EXPECT_EQ(std::memcmp(&c1, &c4, sizeof(double)), 0)
        << name << ": " << std::setprecision(17) << c1 << " at 1 thread vs "
        << c4 << " at 4";
  }
  omp_set_num_threads(saved);
}

TEST(Problems, ValueMagnitudesSkipZeros) {
  const Problem p = get("laplace27");
  const auto mags = value_magnitudes(p.A);
  for (double v : mags) {
    EXPECT_GT(v, 0.0);
  }
  // 27-point on 12x12x10 minus boundary truncation.
  EXPECT_EQ(mags.size(),
            static_cast<std::size_t>(p.A.nnz_logical()));
}

}  // namespace
}  // namespace smg
