// Solver telemetry: zero-overhead-when-off instrumentation spans.
//
// The paper's whole argument is a performance-and-accuracy ledger (per-level
// kernel times, bytes moved, truncation safety); this subsystem records the
// runtime half of that ledger.  Three levels:
//
//   Off      — nothing is recorded beyond the preconditioner's always-on
//              apply-seconds accumulator (the pre-existing PrecondBase
//              timing).  Every span degenerates to one global-pointer load
//              and a predicted branch per *kernel dispatch* (never per
//              element), so the hot loops are bitwise- and performance-
//              identical to an uninstrumented build.
//   Counters — aggregate per-(thread, MG level, kind) span accumulators:
//              seconds + call counts, padded slabs so concurrent threads
//              never share a cache line.
//   Full     — Counters plus per-occurrence trace events exportable as a
//              Chrome trace-event timeline (chrome://tracing / Perfetto).
//
// Span taxonomy (inclusive times):
//   solve > iteration > precond_apply > level > kernel{symgs, jacobi, spmv,
//   residual, residual_restrict, restrict, prolong, blas1, coarse_solve}
//
// Kernel-kind spans are opened at the *dispatch* wrappers in kernels/*.hpp
// and core/transfer.hpp; a thread-local depth guard suppresses nested
// kernel spans (e.g. the scaled-residual fallback that calls spmv inside
// residual) so kernel-kind times never double count.
//
// A Telemetry instance is installed as the process-wide "current" sink
// (obs::InstallGuard); MGPrecondAdapter installs its own instance for the
// duration of each apply, and the Krylov solvers install the adapter's
// instance for the whole solve so solver-side spans join the same ledger.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string_view>
#include <vector>

namespace smg::obs {

enum class TelemetryLevel : int {
  Off = 0,
  Counters = 1,
  Full = 2,
};

constexpr std::string_view to_string(TelemetryLevel l) noexcept {
  switch (l) {
    case TelemetryLevel::Off:
      return "off";
    case TelemetryLevel::Counters:
      return "counters";
    case TelemetryLevel::Full:
      return "full";
  }
  return "?";
}

/// Parse "off" / "counters" / "full" (case-insensitive); `fallback` on
/// anything else.
TelemetryLevel parse_telemetry(std::string_view s,
                               TelemetryLevel fallback) noexcept;

/// Level actually used: the SMG_TELEMETRY environment variable overrides the
/// configured level when set to a valid value.
TelemetryLevel effective_level(TelemetryLevel configured) noexcept;

enum class Kind : int {
  Solve = 0,         ///< whole Krylov solve
  Iteration,         ///< one Krylov iteration
  PrecondApply,      ///< one MG preconditioner application
  Level,             ///< one visit of an MG level (inclusive of kernels)
  CoarseSolve,       ///< coarsest-level dense direct solve
  SymGS,             ///< one Gauss-Seidel sweep (forward or backward)
  Jacobi,            ///< one fused weighted-Jacobi sweep
  SpMV,              ///< y = A x
  Residual,          ///< r = b - A x
  ResidualRestrict,  ///< fused downstroke f_c = R (f - A u)
  Restrict,          ///< f_c = R r_f (unfused path)
  Prolong,           ///< u_f += P e_c
  Blas1,             ///< vector kernels in the Krylov loop (dot/axpy/...)
  kCount,
};

constexpr int kNumKinds = static_cast<int>(Kind::kCount);

constexpr std::string_view to_string(Kind k) noexcept {
  switch (k) {
    case Kind::Solve:
      return "solve";
    case Kind::Iteration:
      return "iteration";
    case Kind::PrecondApply:
      return "precond_apply";
    case Kind::Level:
      return "level";
    case Kind::CoarseSolve:
      return "coarse_solve";
    case Kind::SymGS:
      return "symgs";
    case Kind::Jacobi:
      return "jacobi";
    case Kind::SpMV:
      return "spmv";
    case Kind::Residual:
      return "residual";
    case Kind::ResidualRestrict:
      return "residual_restrict";
    case Kind::Restrict:
      return "restrict";
    case Kind::Prolong:
      return "prolong";
    case Kind::Blas1:
      return "blas1";
    case Kind::kCount:
      break;
  }
  return "?";
}

struct SpanStat {
  double seconds = 0.0;
  std::uint64_t calls = 0;
};

struct TraceEvent {
  Kind kind = Kind::Solve;
  int level = -1;  ///< MG level, -1 = outside the V-cycle
  int tid = 0;     ///< recording thread's slab slot
  double t0 = 0.0;
  double t1 = 0.0;           ///< seconds since the telemetry origin
  std::uint64_t req = 0;     ///< request ID the recording thread served
};

class Telemetry {
 public:
  static constexpr int kMaxLevels = 32;
  static constexpr int kMaxThreads = 64;
  static constexpr std::size_t kMaxTraceEvents = std::size_t{1} << 20;

  explicit Telemetry(TelemetryLevel level, int nlevels);

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  TelemetryLevel level() const noexcept { return level_; }
  /// Spans and counters are recorded (Counters or Full).
  bool enabled() const noexcept { return level_ >= TelemetryLevel::Counters; }
  /// Per-occurrence trace events are recorded (Full only).
  bool tracing() const noexcept { return level_ == TelemetryLevel::Full; }
  int nlevels() const noexcept { return nlevels_; }

  /// Seconds since this instance's construction (the trace time base).
  double now() const noexcept {
    return std::chrono::duration<double>(clock::now() - origin_).count();
  }

  /// Accumulate a closed span.  `level` is the MG level (-1 outside).
  void record(Kind k, int level, double t0, double t1) noexcept;

  /// Always-on preconditioner-apply accumulator (PrecondBase::apply_seconds
  /// folds onto this; it works at every telemetry level including Off).
  void record_apply(double t0, double t1) noexcept;
  double apply_seconds() const noexcept { return apply_seconds_; }
  std::uint64_t apply_calls() const noexcept { return apply_calls_; }

  /// Panel (multi-RHS) preconditioner applies: one call per apply_many with
  /// its column count, so throughput ledgers can report the amortization
  /// (columns per matrix pass).  Always on, like record_apply.
  void record_panel_apply(int k) noexcept;
  std::uint64_t panel_applies() const noexcept { return panel_applies_; }
  std::uint64_t panel_columns() const noexcept { return panel_columns_; }
  int max_panel_width() const noexcept { return max_panel_width_; }

  /// Request IDs this instance served: the solvers note each solve's ID so
  /// the report can say which ID range a ledger covers.  Always on (one
  /// call per solve) and thread-safe (solve_many_async shares an adapter).
  void note_request(std::uint64_t id) noexcept;
  std::uint64_t request_first() const noexcept {
    return request_first_.load(std::memory_order_relaxed);
  }
  std::uint64_t request_last() const noexcept {
    return request_last_.load(std::memory_order_relaxed);
  }
  std::uint64_t request_count() const noexcept {
    return request_count_.load(std::memory_order_relaxed);
  }

  /// Vector-precision conversions (KT<->CT truncate/recover) per apply;
  /// set once by the adapter, 0 when the Krylov and compute types match.
  void set_vec_conversions_per_apply(std::uint64_t n) noexcept {
    vec_conversions_per_apply_ = n;
  }
  std::uint64_t vec_conversions_per_apply() const noexcept {
    return vec_conversions_per_apply_;
  }

  /// Clear all accumulators, counters, and trace events.
  void reset() noexcept;

  /// Aggregate of one (kind, MG level) cell over all threads; level -1 is
  /// the outside-the-cycle bucket.
  SpanStat stat(Kind k, int level) const noexcept;
  /// Aggregate of one kind over all levels and threads.
  SpanStat total(Kind k) const noexcept;

  /// Time-sorted copy of all trace events (empty unless Full).
  std::vector<TraceEvent> trace_events() const;
  /// Spans/events not recorded because the thread-slot or event caps hit.
  std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  using clock = std::chrono::steady_clock;

  /// One cache-line-aligned per-thread accumulator slab: threads never
  /// write to each other's slab, so span recording is free of false
  /// sharing and needs no atomics.
  struct alignas(64) Slab {
    SpanStat stats[kMaxLevels + 1][kNumKinds] = {};
    std::vector<TraceEvent> events;
  };

  TelemetryLevel level_;
  int nlevels_;
  clock::time_point origin_;
  std::vector<Slab> slabs_;  ///< empty when Off
  double apply_seconds_ = 0.0;
  std::uint64_t apply_calls_ = 0;
  std::uint64_t panel_applies_ = 0;
  std::uint64_t panel_columns_ = 0;
  int max_panel_width_ = 0;
  std::uint64_t vec_conversions_per_apply_ = 0;
  std::atomic<std::uint64_t> request_first_{0};
  std::atomic<std::uint64_t> request_last_{0};
  std::atomic<std::uint64_t> request_count_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

namespace detail {

/// Process-wide slot of the calling thread (stable for its lifetime).
int thread_slot() noexcept;

inline Telemetry*& current_slot() noexcept {
  static Telemetry* g_current = nullptr;
  return g_current;
}

inline int& level_slot() noexcept {
  thread_local int tl_level = -1;
  return tl_level;
}

inline int& kernel_depth() noexcept {
  thread_local int tl_depth = 0;
  return tl_depth;
}

}  // namespace detail

/// The installed telemetry sink, or nullptr (spans no-op).
inline Telemetry* current() noexcept { return detail::current_slot(); }

/// MG level the calling thread is currently inside (-1 outside the cycle).
inline int current_mg_level() noexcept { return detail::level_slot(); }

/// Install `t` as the current sink for this scope; restores the previous
/// sink on destruction.  A null `t` is a no-op (keeps the existing sink),
/// so call sites can pass PrecondBase::telemetry() unconditionally.
class InstallGuard {
 public:
  explicit InstallGuard(Telemetry* t) noexcept {
    if (t != nullptr) {
      prev_ = detail::current_slot();
      detail::current_slot() = t;
      active_ = true;
    }
  }
  ~InstallGuard() {
    if (active_) {
      detail::current_slot() = prev_;
    }
  }
  InstallGuard(const InstallGuard&) = delete;
  InstallGuard& operator=(const InstallGuard&) = delete;

 private:
  Telemetry* prev_ = nullptr;
  bool active_ = false;
};

/// Marks the calling thread as inside MG level `lev` (restored on exit);
/// spans opened underneath attribute to that level.
class LevelScope {
 public:
  explicit LevelScope(int lev) noexcept : prev_(detail::level_slot()) {
    detail::level_slot() = lev;
  }
  ~LevelScope() { detail::level_slot() = prev_; }
  LevelScope(const LevelScope&) = delete;
  LevelScope& operator=(const LevelScope&) = delete;

 private:
  int prev_;
};

/// RAII span for the structural kinds (solve, iteration, precond_apply,
/// level).  No-op unless a sink is installed and at least Counters.
class ScopedSpan {
 public:
  explicit ScopedSpan(Kind k) noexcept : k_(k) {
    Telemetry* t = current();
    if (t != nullptr && t->enabled()) {
      t_ = t;
      t0_ = t->now();
    }
  }
  ~ScopedSpan() {
    if (t_ != nullptr) {
      t_->record(k_, current_mg_level(), t0_, t_->now());
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Telemetry* t_ = nullptr;
  Kind k_;
  double t0_ = 0.0;
};

/// RAII span for kernel kinds.  Identical to ScopedSpan plus a per-thread
/// depth guard: a kernel span opened inside another kernel span records
/// nothing, so composite kernels (scaled residual via spmv, nrm2 via dot)
/// never double count in the per-kind sums.
class KernelSpan {
 public:
  explicit KernelSpan(Kind k) noexcept : k_(k) {
    Telemetry* t = current();
    if (t == nullptr || !t->enabled()) {
      return;
    }
    if (detail::kernel_depth()++ > 0) {
      nested_ = true;
      return;
    }
    t_ = t;
    t0_ = t->now();
  }
  ~KernelSpan() {
    if (t_ != nullptr) {
      --detail::kernel_depth();
      t_->record(k_, current_mg_level(), t0_, t_->now());
    } else if (nested_) {
      --detail::kernel_depth();
    }
  }
  KernelSpan(const KernelSpan&) = delete;
  KernelSpan& operator=(const KernelSpan&) = delete;

 private:
  Telemetry* t_ = nullptr;
  Kind k_;
  bool nested_ = false;
  double t0_ = 0.0;
};

}  // namespace smg::obs
