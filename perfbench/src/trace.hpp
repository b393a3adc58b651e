// In-memory span tracer of the benchmark's traced run.
//
// Spans are opened by the benchmark's own code around each call into a
// solver layer (hierarchy constructor, make_mg_precond, Krylov solve,
// preconditioner apply, operator apply, cache lookup, kernels).  Each span
// records its name, start, end, the span that caused it (the innermost span
// open when it began) and the solve ID current at the time.  Spans stay in
// memory until the run ends; write_chrome_json then writes them out.
//
// Tracing is single-threaded by construction: every span is opened and
// closed on the benchmark's main thread, around calls that run their own
// OpenMP regions inside.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "solvers/precond.hpp"
#include "solvers/solve_many.hpp"
#include "solvers/solver_types.hpp"

namespace perfbench {

struct SpanRecord {
  std::string name;
  double start = 0.0;  ///< seconds since the tracer was created
  double end = 0.0;
  int parent = -1;     ///< index of the causing span, -1 for a root
  std::uint64_t solve = 0;  ///< solve ID, 0 outside any solve
};

class Tracer {
 public:
  Tracer() : t0_(clock::now()) {}

  /// Spans are only recorded while enabled.
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Begin a new solve: later spans carry a fresh solve ID until
  /// end_solve().
  void begin_solve() { solve_ = ++last_solve_; }
  void end_solve() { solve_ = 0; }

  /// Open a span; returns its index, or -1 when disabled.
  int open(std::string name);
  void close(int id);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Self time per span name: each span's duration minus the part of it
  /// its direct children cover, summed over the spans of that name with
  /// index >= `from` (children always follow their parent).
  std::map<std::string, double> self_seconds(std::size_t from = 0) const;
  /// Summed durations per span name, children included.
  std::map<std::string, double> inclusive_seconds(std::size_t from = 0) const;
  /// Number of spans per name.
  std::map<std::string, std::int64_t> counts(std::size_t from = 0) const;
  /// Rename span `id` (a lookup whose outcome is known only afterwards).
  void rename(int id, std::string name);

  /// Chrome trace-event JSON ("X" events; args carry parent and solve).
  bool write_chrome_json(const std::string& path) const;

 private:
  using clock = std::chrono::steady_clock;
  double now() const {
    return std::chrono::duration<double>(clock::now() - t0_).count();
  }

  clock::time_point t0_;
  bool enabled_ = false;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
  std::uint64_t solve_ = 0;
  std::uint64_t last_solve_ = 0;
};

/// The process-wide tracer.
Tracer& tracer();

/// RAII span on the process-wide tracer.
class Span {
 public:
  explicit Span(const char* name) : id_(tracer().open(name)) {}
  ~Span() { tracer().close(id_); }
  void rename(const char* name) { tracer().rename(id_, name); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int id_;
};

/// PrecondBase decorator that opens "precond.apply" around apply() and
/// "panel.apply" around apply_many(); everything else forwards.
class TracedPrecond final : public smg::PrecondBase<double> {
 public:
  explicit TracedPrecond(smg::PrecondBase<double>& inner) : inner_(inner) {}

  void apply(std::span<const double> r, std::span<double> e) override;
  void apply_many(const smg::MultiVector<double>& r,
                  smg::MultiVector<double>& e) override;
  double apply_seconds() const override { return inner_.apply_seconds(); }
  void reset_timing() override { inner_.reset_timing(); }
  smg::obs::Telemetry* telemetry() override { return inner_.telemetry(); }
  bool self_healing() const override { return inner_.self_healing(); }
  bool report_health(smg::HealthEvent e) override {
    return inner_.report_health(e);
  }
  smg::CycleShape cycle_shape() const override {
    return inner_.cycle_shape();
  }
  bool set_cycle_shape(smg::CycleShape s) override {
    return inner_.set_cycle_shape(s);
  }

 private:
  smg::PrecondBase<double>& inner_;
};

/// Wrap an operator so each application opens `name` (a string literal).
smg::LinOp<double> traced_op(smg::LinOp<double> op, const char* name);
smg::LinOpMany<double> traced_op_many(smg::LinOpMany<double> op,
                                      const char* name);

}  // namespace perfbench
