// Telemetry reporting: joins measured span times with the perfmodel's byte
// counts to turn "this kernel took X ms" into "this kernel achieved Y GB/s,
// Z% of the bandwidth model" — the per-level ledger Figs. 7-8 of the paper
// report.  Three outputs:
//   * print_report  — fixed-width tables on a stream (util/table.hpp),
//   * to_json       — machine-readable document, schema "smg-telemetry-v4",
//   * to_chrome_trace — trace-event JSON loadable in chrome://tracing or
//                       Perfetto (one complete "X" event per recorded span).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/counters.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"

namespace smg::obs {

/// One (kernel kind, MG level) aggregate joined with the byte model.
struct KernelRow {
  Kind kind = Kind::SpMV;
  int level = -1;  ///< MG level; -1 = outside the V-cycle (solver side)
  double seconds = 0.0;
  std::uint64_t calls = 0;
  /// Modeled compulsory main-memory traffic of one call; 0 when no byte
  /// model applies (blas1, coarse_solve, structural spans).
  double model_bytes_per_call = 0.0;
  double achieved_gbs = 0.0;  ///< model bytes moved / measured seconds
  double efficiency = 0.0;    ///< achieved_gbs / reference_gbs (0 if no ref)
};

struct SolverReport {
  double solve_seconds = 0.0;
  std::uint64_t iterations = 0;
  double precond_seconds = 0.0;
  std::uint64_t precond_calls = 0;
  /// Panel (multi-RHS) preconditioner applications and the columns they
  /// carried; 0 outside throughput mode (solve_many).
  std::uint64_t panel_applies = 0;
  std::uint64_t panel_columns = 0;
  std::uint64_t max_panel_width = 0;
  /// Achievable-bandwidth reference (e.g. measured STREAM triad GB/s);
  /// 0 disables the efficiency column.
  double reference_gbs = 0.0;
  std::uint64_t dropped = 0;
  std::vector<KernelRow> kernels;  ///< rows with calls > 0, level-major
  std::vector<LevelPrecisionCounters> levels;
  /// Precision-autopilot state (core/autopilot.hpp): the resolved policy and
  /// every decision the planner/governor took, in order.  Empty under
  /// PrecisionPolicy::Fixed.
  PrecisionPolicy policy = PrecisionPolicy::Fixed;
  std::vector<AutopilotDecision> autopilot;
  /// Realized per-level storage ladder (config().expand_ladder at report
  /// build time): one rung per level, shifts and auto-planned rungs already
  /// applied.
  std::vector<Prec> storage_ladder;
  /// Request-ID window seen by the telemetry sink: the smallest and largest
  /// solve request IDs recorded and how many solves reported one.  All zero
  /// when no solve ran under this sink.
  std::uint64_t request_first = 0;
  std::uint64_t request_last = 0;
  std::uint64_t request_count = 0;
  /// Service-metrics registry snapshot (obs/metrics.hpp) taken at report
  /// build time; `enabled` false (and `series` empty) when the metrics
  /// switch is off.
  MetricsSnapshot metrics;
};

/// Join the telemetry ledger with the hierarchy's byte model.  Uses the
/// hierarchy config's storage/compute/krylov precisions to price each
/// kernel; `reference_gbs` (optional) scales the efficiency column.
SolverReport build_report(const Telemetry& t, const MGHierarchy& h,
                          double reference_gbs = 0.0);
/// As above with the solver-side (Krylov) precision, used to price the
/// level "-1" SpMV/residual rows (default FP64).
SolverReport build_report(const Telemetry& t, const MGHierarchy& h,
                          double reference_gbs, Prec krylov);

/// Human-readable tables: solve summary, per-level kernel bandwidth,
/// per-level precision counters.
void print_report(const SolverReport& r, std::ostream& os);
void print_report(const SolverReport& r);  ///< to std::cout

/// Precision-counter table alone (examples/precision_explorer).
void print_precision_counters(const std::vector<LevelPrecisionCounters>& c,
                              std::ostream& os);
void print_precision_counters(const std::vector<LevelPrecisionCounters>& c);

/// Machine-readable report, schema "smg-telemetry-v4" (v2 added
/// "precision_policy", "autopilot" and the per-level repair counters; v3
/// added the "requests" ID window, the "metrics" registry snapshot, and the
/// realized per-level "storage_ladder"; v4 dropped the per-level "halo"
/// rows with the box-decomposed engine they described).
std::string to_json(const SolverReport& r);

/// Chrome trace-event document ({"traceEvents":[...]}, ph "X", µs units);
/// empty trace when the telemetry level is below Full.
std::string to_chrome_trace(const Telemetry& t);

/// Write `text` to `path`; false on I/O failure.
bool write_text_file(const std::string& path, const std::string& text);

/// Honor SMG_TELEMETRY_JSON / SMG_TELEMETRY_TRACE: when set, write the JSON
/// report / Chrome trace to those paths.  Returns the number of files
/// written.
int emit_from_env(const SolverReport& r, const Telemetry& t);

}  // namespace smg::obs
