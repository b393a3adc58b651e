#include "obs/counters.hpp"

namespace smg::obs {

std::vector<LevelPrecisionCounters> collect_precision_counters(
    const MGHierarchy& h) {
  const MGConfig& cfg = h.config();
  std::vector<LevelPrecisionCounters> out;
  out.reserve(static_cast<std::size_t>(h.nlevels()));
  // Visits of each level per apply (cycle_visits, core/config.hpp): 1 for a
  // V-cycle, doubling per W recursion, l+1 under the F-cycle's per-level V
  // sub-cycle roots.  The F counts are NOT powers of two — any doubling
  // loop here would overcount.
  std::vector<std::uint64_t> visits(static_cast<std::size_t>(h.nlevels()), 1);
  for (int l = 0; l < h.nlevels(); ++l) {
    visits[static_cast<std::size_t>(l)] = static_cast<std::uint64_t>(
        cycle_visits(cfg.cycle, l, h.nlevels()));
  }
  // Autopilot repair ledger: count the decisions that targeted each level.
  std::vector<std::uint32_t> rescales(static_cast<std::size_t>(h.nlevels()),
                                      0);
  std::vector<std::uint32_t> promotions(static_cast<std::size_t>(h.nlevels()),
                                        0);
  for (const AutopilotDecision& d : h.autopilot_log()) {
    if (d.level < 0 || d.level >= h.nlevels()) {
      continue;
    }
    if (d.action == AutopilotAction::Rescale) {
      ++rescales[static_cast<std::size_t>(d.level)];
    } else if (d.action == AutopilotAction::Promote) {
      ++promotions[static_cast<std::size_t>(d.level)];
    }
  }
  bool narrow_above = false;  // some finer rung of the ladder is narrow
  for (int l = 0; l < h.nlevels(); ++l) {
    const Level& lev = h.level(l);
    const Prec rung = cfg.storage_at(l);
    LevelPrecisionCounters c;
    c.level = l;
    c.rows = lev.A_full.nrows();
    const int bs = lev.A_full.block_size();
    c.stored_values = static_cast<std::uint64_t>(lev.A_full.ncells()) *
                      static_cast<std::uint64_t>(lev.A_full.ndiag()) *
                      static_cast<std::uint64_t>(bs) *
                      static_cast<std::uint64_t>(bs);
    c.matrix_bytes = lev.A_stored.value_bytes();
    c.storage = lev.storage;
    c.shifted = rung == cfg.compute && narrow_above;
    narrow_above = narrow_above || is_narrow_storage(rung);
    c.scaled = lev.scaled;
    c.g = lev.g;
    c.gmax = lev.gmax;
    c.min_abs = lev.stored_min_abs;
    c.max_abs = lev.stored_max_abs;
    if (lev.scaled && lev.g > 0.0) {
      c.headroom = lev.gmax / lev.g;
    } else if (lev.stored_max_abs > 0.0) {
      c.headroom = format_max(lev.storage) / lev.stored_max_abs;
    }
    c.overflowed = lev.trunc.overflowed;
    c.flushed_to_zero = lev.trunc.underflowed;
    c.subnormal = lev.trunc.subnormal;
    if (is_narrow_storage(lev.storage)) {
      // Matrix passes per V-cycle: nu1 + nu2 smoothing sweeps everywhere
      // except the coarsest level (dense FP64 solve), plus the downstroke
      // residual on every level that has a coarser one.
      const bool coarsest = l + 1 == h.nlevels();
      const std::uint64_t passes =
          coarsest ? 0
                   : static_cast<std::uint64_t>(cfg.nu1 + cfg.nu2) + 1;
      c.conversions_per_apply =
          passes * visits[static_cast<std::size_t>(l)] * c.stored_values;
    }
    c.rescales = rescales[static_cast<std::size_t>(l)];
    c.promotions = promotions[static_cast<std::size_t>(l)];
    out.push_back(c);
  }
  return out;
}

std::vector<LevelPrecisionDelta> counter_delta(
    const std::vector<LevelPrecisionCounters>& before,
    const std::vector<LevelPrecisionCounters>& after) {
  const std::size_t n = before.size() < after.size() ? before.size()
                                                     : after.size();
  std::vector<LevelPrecisionDelta> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const LevelPrecisionCounters& b = before[i];
    const LevelPrecisionCounters& a = after[i];
    LevelPrecisionDelta d;
    d.level = a.level;
    d.storage_before = b.storage;
    d.storage_after = a.storage;
    d.storage_changed = a.storage != b.storage;
    d.rescales = a.rescales - b.rescales;
    d.promotions = a.promotions - b.promotions;
    d.rescaled = d.rescales > 0 || a.g != b.g;
    d.overflowed = static_cast<std::int64_t>(a.overflowed) -
                   static_cast<std::int64_t>(b.overflowed);
    d.flushed_to_zero = static_cast<std::int64_t>(a.flushed_to_zero) -
                       static_cast<std::int64_t>(b.flushed_to_zero);
    d.subnormal = static_cast<std::int64_t>(a.subnormal) -
                  static_cast<std::int64_t>(b.subnormal);
    out.push_back(d);
  }
  return out;
}

}  // namespace smg::obs
