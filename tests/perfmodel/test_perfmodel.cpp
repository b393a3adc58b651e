// Performance-model tests: Table 2 byte accounting and the STREAM probe.
#include <gtest/gtest.h>

#include "perfmodel/bytes.hpp"
#include "perfmodel/stream.hpp"

namespace smg {
namespace {

TEST(Bytes, SgDiaBoundsMatchTable2) {
  EXPECT_DOUBLE_EQ(sgdia_bytes_per_nnz(Prec::FP64), 8.0);
  EXPECT_DOUBLE_EQ(sgdia_bytes_per_nnz(Prec::FP32), 4.0);
  EXPECT_DOUBLE_EQ(sgdia_bytes_per_nnz(Prec::FP16), 2.0);
  EXPECT_DOUBLE_EQ(speedup_bound_sgdia(Prec::FP64, Prec::FP32), 2.0);
  EXPECT_DOUBLE_EQ(speedup_bound_sgdia(Prec::FP32, Prec::FP16), 2.0);
  EXPECT_DOUBLE_EQ(speedup_bound_sgdia(Prec::FP64, Prec::FP16), 4.0);
}

TEST(Bytes, CsrBoundsAreBelowTable2Caps) {
  // Table 2 with delta = 15%: int32 CSR fp32->fp16 < 1.3, fp64->fp16 < 2;
  // int64 CSR fp64->fp16 < 1.6.
  const double delta = 0.15;
  EXPECT_LT(speedup_bound_csr(Prec::FP64, Prec::FP32, 4, delta), 1.5);
  // (8 + 4*0.15)/(6 + 4*0.15) = 1.303: the paper's "<1.3" is rounded.
  EXPECT_LT(speedup_bound_csr(Prec::FP32, Prec::FP16, 4, delta), 1.31);
  EXPECT_LT(speedup_bound_csr(Prec::FP64, Prec::FP16, 4, delta), 2.0);
  EXPECT_LT(speedup_bound_csr(Prec::FP64, Prec::FP32, 8, delta), 1.31);
  EXPECT_LT(speedup_bound_csr(Prec::FP32, Prec::FP16, 8, delta), 1.2);
  EXPECT_LT(speedup_bound_csr(Prec::FP64, Prec::FP16, 8, delta), 1.6);
  // And all CSR bounds trail the SG-DIA 4x cap.
  EXPECT_LT(speedup_bound_csr(Prec::FP64, Prec::FP16, 4, delta),
            speedup_bound_sgdia(Prec::FP64, Prec::FP16));
}

TEST(Bytes, PercentMatrixGrowsWithStencilSize) {
  // §3.1: 3d7 -> 0.78, 3d19 -> 0.88 (hmm ~0.90), 3d27 -> ~0.93; the paper
  // quotes 0.78/0.88/0.90 counting patterns 3d7/3d19/3d27.
  const double p7 = percent_matrix(stencil_nnz_per_row(Pattern::P3d7, 1), 1);
  const double p19 = percent_matrix(stencil_nnz_per_row(Pattern::P3d19, 1), 1);
  const double p27 = percent_matrix(stencil_nnz_per_row(Pattern::P3d27, 1), 1);
  EXPECT_NEAR(p7, 7.0 / 9.0, 1e-12);
  EXPECT_GT(p19, p7);
  EXPECT_GT(p27, p19);
  EXPECT_GT(p27, 0.9);
}

TEST(Bytes, FusedDownstrokeSavesExactlyTheResidualWriteAndRead) {
  // DESIGN.md §7: fusing residual→restrict eliminates exactly the residual
  // vector's store (in the residual) and load (in the restriction) — no
  // more, no less.  33^3 fine grid, 17^3 coarse, 27-point stencil.
  const double mf = 33.0 * 33.0 * 33.0;
  const double mc = 17.0 * 17.0 * 17.0;
  const double nnz = mf * stencil_nnz_per_row(Pattern::P3d27, 1);
  for (Prec mat : {Prec::FP64, Prec::FP32, Prec::FP16}) {
    for (Prec vec : {Prec::FP64, Prec::FP32}) {
      for (bool scaled : {false, true}) {
        const double unfused =
            downstroke_bytes(nnz, mf, mc, mat, vec, scaled, false);
        const double fused =
            downstroke_bytes(nnz, mf, mc, mat, vec, scaled, true);
        EXPECT_DOUBLE_EQ(unfused - fused,
                         2.0 * mf * static_cast<double>(bytes_of(vec)))
            << to_string(mat) << "/" << to_string(vec) << " scaled=" << scaled;
        // The convenience wrapper and the parts must agree.
        EXPECT_DOUBLE_EQ(unfused, residual_bytes(nnz, mf, mat, vec, scaled) +
                                      restrict_bytes(mf, mc, vec));
        EXPECT_DOUBLE_EQ(fused, residual_restrict_bytes(nnz, mf, mc, mat,
                                                        vec, scaled));
      }
    }
  }
  // Sanity: the q2 read costs one more vector pass, prolongation is a
  // read-modify-write of the fine iterate.
  EXPECT_DOUBLE_EQ(residual_bytes(nnz, mf, Prec::FP16, Prec::FP32, true) -
                       residual_bytes(nnz, mf, Prec::FP16, Prec::FP32, false),
                   4.0 * mf);
  EXPECT_DOUBLE_EQ(prolong_bytes(mf, mc, Prec::FP32), 4.0 * (2.0 * mf + mc));
}

TEST(Bytes, ManyRhsModelsReduceToSingleAtKOne) {
  // Satellite contract: every *_many model at k = 1 is EXACTLY (bitwise)
  // its single-RHS counterpart — the panel path may not re-derive the
  // baseline accounting.
  const double mf = 33.0 * 33.0 * 33.0;
  const double mc = 17.0 * 17.0 * 17.0;
  const double nnz = mf * stencil_nnz_per_row(Pattern::P3d27, 1);
  for (Prec mat : {Prec::FP64, Prec::FP32, Prec::FP16}) {
    for (Prec vec : {Prec::FP64, Prec::FP32}) {
      for (bool scaled : {false, true}) {
        EXPECT_EQ(spmv_many_bytes(nnz, mf, mat, vec, scaled, 1),
                  spmv_bytes(nnz, mf, mat, vec, scaled));
        EXPECT_EQ(symgs_sweep_many_bytes(nnz, mf, mat, vec, scaled, 1),
                  symgs_sweep_bytes(nnz, mf, mat, vec, scaled));
        EXPECT_EQ(jacobi_sweep_many_bytes(nnz, mf, mat, vec, scaled, 1),
                  jacobi_sweep_bytes(nnz, mf, mat, vec, scaled));
        EXPECT_EQ(residual_many_bytes(nnz, mf, mat, vec, scaled, 1),
                  residual_bytes(nnz, mf, mat, vec, scaled));
        EXPECT_EQ(residual_restrict_many_bytes(nnz, mf, mc, mat, vec, scaled,
                                               1),
                  residual_restrict_bytes(nnz, mf, mc, mat, vec, scaled));
        for (bool fused : {false, true}) {
          EXPECT_EQ(downstroke_many_bytes(nnz, mf, mc, mat, vec, scaled,
                                          fused, 1),
                    downstroke_bytes(nnz, mf, mc, mat, vec, scaled, fused));
        }
      }
    }
  }
  for (Prec vec : {Prec::FP64, Prec::FP32}) {
    EXPECT_EQ(restrict_many_bytes(mf, mc, vec, 1), restrict_bytes(mf, mc, vec));
    EXPECT_EQ(prolong_many_bytes(mf, mc, vec, 1), prolong_bytes(mf, mc, vec));
  }
}

TEST(Bytes, ManyRhsAmortizesMatrixTraffic) {
  // k solves through the panel kernels move strictly fewer bytes than k
  // single-RHS passes — the saving is exactly (k-1) matrix (+q2/inv_diag)
  // streams — and the per-solve traffic decreases monotonically in k,
  // approaching the vector-only floor.
  const double mf = 33.0 * 33.0 * 33.0;
  const double mc = 17.0 * 17.0 * 17.0;
  const double nnz = mf * stencil_nnz_per_row(Pattern::P3d27, 1);
  const double matbytes = nnz * static_cast<double>(bytes_of(Prec::FP16));
  for (int k : {2, 4, 8, 16}) {
    // spmv: saving is exactly (k-1) matrix streams (unscaled case).
    EXPECT_DOUBLE_EQ(
        k * spmv_bytes(nnz, mf, Prec::FP16, Prec::FP64, false) -
            spmv_many_bytes(nnz, mf, Prec::FP16, Prec::FP64, false, k),
        (k - 1) * matbytes);
    // GS sweep: matrix + inv_diag amortize.
    EXPECT_DOUBLE_EQ(
        k * symgs_sweep_bytes(nnz, mf, Prec::FP16, Prec::FP64, false) -
            symgs_sweep_many_bytes(nnz, mf, Prec::FP16, Prec::FP64, false, k),
        (k - 1) * (matbytes + mf * 8.0));
    // Transfers are pure vector streams: no amortization, linear in k.
    EXPECT_DOUBLE_EQ(restrict_many_bytes(mf, mc, Prec::FP32, k),
                     k * restrict_bytes(mf, mc, Prec::FP32));
    EXPECT_DOUBLE_EQ(prolong_many_bytes(mf, mc, Prec::FP32, k),
                     k * prolong_bytes(mf, mc, Prec::FP32));
  }
  // Per-solve downstroke traffic strictly decreases with k.
  double prev = downstroke_bytes(nnz, mf, mc, Prec::FP16, Prec::FP64, true,
                                 true);
  for (int k : {2, 4, 8, 16}) {
    const double per = downstroke_many_bytes(nnz, mf, mc, Prec::FP16,
                                             Prec::FP64, true, true, k) /
                       k;
    EXPECT_LT(per, prev) << k;
    prev = per;
  }
}

TEST(Stream, MeasuresPlausibleBandwidth) {
  const StreamResult r = measure_stream(std::size_t{1} << 20, 3);
  EXPECT_GT(r.triad_gbs, 0.5);    // anything slower than 0.5 GB/s is broken
  EXPECT_LT(r.triad_gbs, 5000.0); // sanity cap
  EXPECT_GT(r.copy_gbs, 0.5);
}

}  // namespace
}  // namespace smg
