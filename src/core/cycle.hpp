// The multigrid cycle recursion, written once (DESIGN.md §8,
// docs/CYCLE_SHAPES.md).  run_cycle decides which levels are visited, in
// which order, for V, W and F cycles, and opens each visit's LevelScope and
// Kind::Level span; a backend supplies the level operations:
//
//   int nu1(), nu2()        pre-/post-smoothing sweep counts
//   zero(l)                 u_l := 0
//   smooth(l, forward)      one forward (pre) or backward (post) sweep
//   downstroke(l)           f_{l+1} := R (f_l - A_l u_l)
//   coarse_solve(l)         u_l := A_l^{-1} f_l        (l = nlevels - 1)
//   restrict_rhs(l)         f_{l+1} := R f_l          (F-cycle injection)
//   prolong_add(l)          u_l += P u_{l+1}
//
// Backends: VectorOps (core/mg_precond.hpp, one vector per level), the
// panel ops behind MGPrecond::apply_many (k columns per level), and
// DecompEngine (core/decomp_engine.hpp, boxed levels with halo exchange,
// unboxed levels delegated to VectorOps).
#pragma once

#include "core/config.hpp"
#include "obs/telemetry.hpp"

namespace smg {

namespace detail {

/// One visit of level `l` and, recursively, of everything below it.  W
/// revisits the child (except the coarsest, cycle_visits' clamp); F uses
/// V sub-cycles.
template <class Ops>
void cycle_visit(Ops& ops, CycleShape shape, int last, int l,
                 bool zero_guess) {
  const obs::LevelScope level_scope(l);
  const obs::ScopedSpan level_span(obs::Kind::Level);
  if (l == last) {
    ops.coarse_solve(l);
    return;
  }
  if (zero_guess) {
    ops.zero(l);
  }
  for (int s = 0; s < ops.nu1(); ++s) {
    ops.smooth(l, /*forward=*/true);
  }
  ops.downstroke(l);
  cycle_visit(ops, shape, last, l + 1, /*zero_guess=*/true);
  if (shape == CycleShape::W && l + 1 < last) {
    cycle_visit(ops, shape, last, l + 1, /*zero_guess=*/false);
  }
  ops.prolong_add(l);
  for (int s = 0; s < ops.nu2(); ++s) {
    ops.smooth(l, /*forward=*/false);
  }
}

}  // namespace detail

/// u_0 = MG(f_0) from a zero initial guess, `f_0` already in the backend's
/// finest rhs.  V/W: one recursive visit of level 0.  F (FMG): inject the
/// rhs level by level to the coarsest (with a zero guess the residual IS
/// the rhs, so no matrix pass), solve there, then per level prolong the
/// coarser solution as the initial guess and run one V sub-cycle.
template <class Ops>
void run_cycle(Ops& ops, CycleShape shape, int nlevels) {
  const int last = nlevels - 1;
  if (shape != CycleShape::F) {
    detail::cycle_visit(ops, shape, last, 0, /*zero_guess=*/true);
    return;
  }
  for (int l = 0; l < last; ++l) {
    const obs::LevelScope level_scope(l);
    ops.restrict_rhs(l);
  }
  detail::cycle_visit(ops, shape, last, last, /*zero_guess=*/true);
  for (int l = last - 1; l >= 0; --l) {
    {
      const obs::LevelScope level_scope(l);
      ops.zero(l);
      ops.prolong_add(l);
    }
    detail::cycle_visit(ops, shape, last, l, /*zero_guess=*/false);
  }
}

}  // namespace smg
