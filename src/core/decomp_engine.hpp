// Sharded (box-decomposed) backend of run_cycle (core/cycle.hpp,
// DESIGN.md §11).
//
// Implements the level operations of boxed levels — levels split into
// sub-boxes with ghost rings (grid/box_decomp.hpp): per-box copies of each
// level's stored matrix and vectors, halo exchanges (grid/halo.hpp) before
// every ghost-reading kernel, one persistent pool worker per box
// (util/thread_pool.hpp) with NUMA first-touch placement of per-box storage
// — each box's matrix and vectors are allocated and filled inside its
// owning worker's task, so first-touch puts the pages on that worker's node.
// Levels below the agglomeration boundary (one box) are sent to the
// single-vector VectorOps on MGPrecond's own level storage.
//
// The per-box kernels are the *unmodified* single-box kernels, made correct
// on interior+ghost extents by the ghost-identity-row construction:
//   * ghost rows of the local matrix are identity (diag 1, offdiag 0 —
//     exactly representable in every storage precision) and local invdiag
//     has identity blocks there;
//   * local q2 is the true global q2 at every local cell, ghosts included —
//     the kernels compute y_i = q2_i * sum_j Â_ij * q2_j * x_j, so interior
//     rows need the ghost neighbours' real q2_j;
//   * before each sweep the local rhs of ghost rows is refreshed so the
//     sweep reproduces u_ghost bitwise: f_g := u_g for SymGS (its update
//     invdiag * (f - q2_i * sum_offdiag) never sees the diagonal), and
//     f_g := q2_g * (q2_g * u_g) for Jacobi (its residual form includes the
//     q2-scaled diagonal).
// Sweeping the whole local box therefore leaves ghosts at their exchanged
// values and interior rows see exactly the coupling of the global sweep.
//
// Identity contracts (tested in tests/core/test_decomp_engine.cpp):
//   * decomp {1,1,1} never constructs this engine — MGPrecond runs the
//     single-vector backend, bitwise identical by construction;
//   * with the Jacobi smoother and raw (compute-precision) halos, the
//     decomposed cycle is bitwise identical to the undecomposed one at any
//     box count, scaled levels included: Jacobi, residual, and the
//     transfers are pointwise/gather kernels whose per-dof arithmetic order
//     the per-box loops replicate;
//   * decomposed SymGS is block-Jacobi between boxes (per-box sequential
//     sweeps, Jacobi-style coupling at box boundaries via the exchanged
//     halos) — legitimately different iterates, same asymptotic rate.
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "core/mg_hierarchy.hpp"
#include "grid/box_decomp.hpp"
#include "grid/halo.hpp"
#include "obs/metrics.hpp"
#include "util/aligned.hpp"
#include "util/thread_pool.hpp"

namespace smg {

template <class CT>
class VectorOps;

template <class CT>
class DecompEngine {
 public:
  /// `nb` is the finest-level box grid (coarser levels derive from it, see
  /// perfmodel/halo.hpp decomp_chain); `halo_fp16` selects the FP16-packed
  /// wire format.  The engine is only worth constructing when the finest
  /// level actually decomposes — check with `active()`.
  DecompEngine(const MGHierarchy* h, std::array<int, 3> nb, bool halo_fp16);

  /// True when at least the finest level runs boxed.
  bool active() const noexcept {
    return !levels_.empty() && levels_.front().boxed;
  }

  /// u_0 = MG(f_0) on `plain`'s finest level vectors (MGPrecond has
  /// already applied the finest-wrapped Q^{-1/2}): scatter f_0 into the
  /// boxes, run_cycle with this engine as the backend, gather u_0.
  void apply(VectorOps<CT>& plain, CycleShape shape);

  /// Rebuild level l's per-box matrix/invdiag/q2 copies after the autopilot
  /// rescaled or promoted the hierarchy level (no-op on unboxed levels).
  void refresh_level(int l);

  /// run_cycle level operations: boxed levels run per box here, unboxed
  /// levels go to the single-vector backend of the current apply.
  int nu1() const noexcept { return h_->config().nu1; }
  int nu2() const noexcept { return h_->config().nu2; }
  void zero(int l);
  void smooth(int l, bool forward);
  void downstroke(int l);
  void coarse_solve(int l);
  void restrict_rhs(int l);
  void prolong_add(int l);

 private:
  /// Per-box level state.  All vectors are local-dof indexed
  /// (interior + ghosts); built inside the owning pool worker.
  struct BoxData {
    AnyMat A;          ///< local matrix, ghost rows identity
    avec<CT> u, f, r;  ///< iterate, rhs, residual/Jacobi buffer
    avec<CT> invdiag;  ///< identity blocks at ghost cells
    avec<CT> q2;       ///< empty unless the level is scaled (global q2)
  };

  struct DLevel {
    BoxDecomp decomp;
    bool boxed = false;
    HaloPlan plan;                ///< empty when !boxed
    HaloExchange hx;              ///< shared by the u, f and r exchanges
    std::vector<BoxData> boxes;   ///< empty when !boxed
    /// Cached service-metrics handles (null when metrics were off at
    /// construction): per-exchange updates must not take the registry
    /// lock.  The model gauge is set once from the perfmodel halo ledger.
    obs::HaloLevelMetrics metrics;
  };

  void build_level(int l);
  /// (Re)build one box's local matrix/invdiag/q2 — runs on the owning pool
  /// worker so first-touch places the storage on its NUMA node.
  void build_box(int l, int b);
  bool boxed(int l) const noexcept {
    return levels_[static_cast<std::size_t>(l)].boxed;
  }
  /// Exchange every box's `field` halo on level `lev`, recording the
  /// pack/unpack spans and the level's halo-byte telemetry.
  void exchange(int lev, avec<CT> BoxData::*field);
  /// Identity-row rhs refresh of one box's ghost rows (see header comment).
  void refresh_ghost_rhs(int lev, int b);
  /// Restrict boxed level `l`'s per-box `field` (its ghosts exchanged when
  /// the coarse level is boxed too) into the coarse rhs.
  void restrict_field(int l, avec<CT> BoxData::*field);
  /// Copy the interior dofs of every box's `field` from (`to_boxes`) or to
  /// the global level-`lev` vector `global`.
  void copy_interiors(int lev, avec<CT> BoxData::*field, CT* global,
                      bool to_boxes);

  const MGHierarchy* h_;
  ThreadPool* pool_;
  MemcpyExchanger ex_;  ///< in-process transport backend
  std::vector<DLevel> levels_;
  std::size_t wire_bytes_ = sizeof(CT);
  /// Global interior gather scratch for the transfers across the
  /// agglomeration boundary (sized to the last boxed level).
  avec<CT> gather_;
  VectorOps<CT>* plain_ = nullptr;  ///< unboxed-level backend during apply
};

extern template class DecompEngine<float>;
extern template class DecompEngine<double>;

}  // namespace smg
