// Service metrics: process-global, lock-free registry for long-running use.
//
// The telemetry subsystem (telemetry.hpp) is per-run and report-oriented:
// one Telemetry instance per preconditioner, reset between experiments,
// joined with the perfmodel into a one-shot JSON report.  A throughput
// service needs the other half of observability — process-lifetime
// counters, gauges, and latency histograms that answer "what are the
// p50/p99 solve latencies, the hierarchy-cache hit rate, and the autopilot
// repair rate over the last million requests" — scraped while solves are
// in flight.
//
// Design:
//   * One process-global MetricsRegistry.  Registration (name + labels →
//     stable handle) takes a mutex; it happens on cold paths only (first
//     touch of a series, engine construction).  Hot-path updates are
//     lock-free: each metric owns kMetricShards cache-line-aligned shards
//     of relaxed atomics indexed by the calling thread's process-wide slot
//     (obs::detail::thread_slot(), shared with telemetry), merged on
//     scrape.  Scrapes are wait-free for writers and TSan-clean.
//   * Histograms use fixed log-scale buckets (upper bounds lowest *
//     factor^i plus a +Inf overflow bucket).  Exact counts merge across
//     shards; p50/p90/p99 come from the merged cumulative distribution
//     with linear interpolation inside the landing bucket, so the error is
//     bounded by one bucket width.
//   * Zero overhead when off: every record helper starts with
//     metrics_enabled() — one relaxed atomic load and a predicted branch —
//     and instrumented solves are bitwise-identical to metrics=Off solves
//     (test-gated, same contract as telemetry=Off).  The switch is sticky
//     process-wide: MGPrecondAdapter flips it on when its config (after
//     the SMG_METRICS env override) asks for metrics.
//
// Exposition (Prometheus/OpenMetrics text, JSON snapshot, background
// flusher) lives in exposition.hpp; the exported metric names are
// documented in docs/METRICS.md.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace smg::obs {

enum class MetricsLevel : int {
  Off = 0,
  On = 1,
};

constexpr std::string_view to_string(MetricsLevel m) noexcept {
  return m == MetricsLevel::On ? "on" : "off";
}

/// Parse "off"/"on" (also "0"/"1", "false"/"true", case-insensitive);
/// `fallback` on anything else.
MetricsLevel parse_metrics(std::string_view s, MetricsLevel fallback) noexcept;

/// Level actually used: the SMG_METRICS environment variable overrides the
/// configured level when set to a valid value (same contract as
/// SMG_TELEMETRY vs MGConfig::telemetry).
MetricsLevel effective_metrics(MetricsLevel configured) noexcept;

namespace detail {

/// The sticky process-wide recording switch.  Initialized once from
/// SMG_METRICS (so standalone tools record without constructing an
/// adapter), then flipped on by any component whose effective config asks
/// for metrics.
std::atomic<bool>& metrics_flag() noexcept;

}  // namespace detail

/// True when the process records service metrics.  One relaxed atomic load
/// plus a predicted branch — the only cost instrumented hot paths pay when
/// metrics are off.
inline bool metrics_enabled() noexcept {
  return detail::metrics_flag().load(std::memory_order_relaxed);
}

/// Flip the process-wide switch.  Turning it on pre-registers the core
/// metric families (docs/METRICS.md) so scrapes expose zero-valued series
/// before the first solve.  Sticky: components enable, never disable —
/// pass false only from tests.
void enable_metrics(bool on) noexcept;

/// Number of per-thread shards per metric.  Matches Telemetry::kMaxThreads;
/// threads beyond the shard count wrap (atomics keep the counts exact,
/// wrapped threads merely share a line).
inline constexpr int kMetricShards = 64;

namespace detail {

/// This thread's shard index (thread_slot() folded into range).
int metric_slot() noexcept;

}  // namespace detail

/// Monotonically increasing counter.  add() is lock-free and wait-free:
/// one relaxed fetch_add on the calling thread's shard.
class Counter {
 public:
  void add(double v) noexcept {
    shards_[static_cast<std::size_t>(detail::metric_slot())].v.fetch_add(
        v, std::memory_order_relaxed);
  }
  void inc() noexcept { add(1.0); }

  /// Merged value over all shards (scrape path).
  double value() const noexcept;

  void reset() noexcept;

 private:
  struct alignas(64) Shard {
    std::atomic<double> v{0.0};
  };
  std::array<Shard, kMetricShards> shards_{};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(double d) noexcept { v_.fetch_add(d, std::memory_order_relaxed); }
  double value() const noexcept { return v_.load(std::memory_order_relaxed); }
  void reset() noexcept { set(0.0); }

 private:
  std::atomic<double> v_{0.0};
};

/// Log-scale bucket layout: finite upper bounds lowest * factor^i for
/// i in [0, buckets), plus an implicit +Inf overflow bucket.
struct HistogramSpec {
  double lowest = 1e-6;  ///< upper bound of the first bucket
  double factor = 2.0;   ///< geometric growth per bucket (> 1)
  int buckets = 40;      ///< finite buckets (+Inf bucket appended)
};

/// Latency spec: 1 µs .. ~9.2 min in ×2 steps.
inline constexpr HistogramSpec kLatencySpec{1e-6, 2.0, 40};
/// Iteration-count spec: 1 .. 32768 in ×2 steps.
inline constexpr HistogramSpec kIterationSpec{1.0, 2.0, 16};

/// Fixed-bucket histogram with per-thread shards.  observe() is lock-free:
/// a binary search over the (immutable) bounds plus two relaxed atomic
/// updates on the calling thread's shard.
class Histogram {
 public:
  explicit Histogram(const HistogramSpec& spec);

  void observe(double v) noexcept;

  const HistogramSpec& spec() const noexcept { return spec_; }
  /// Finite bucket upper bounds (size spec().buckets).
  const std::vector<double>& bounds() const noexcept { return bounds_; }

  /// Merged per-bucket counts, size bounds().size() + 1 (last is +Inf).
  std::vector<std::uint64_t> bucket_counts() const;
  std::uint64_t count() const noexcept;
  double sum() const noexcept;

  /// q-quantile (q in [0, 1]) of the merged distribution: cumulative walk
  /// to the landing bucket, linear interpolation inside it.  Exact to
  /// within one bucket of the true quantile; 0 when empty.
  double quantile(double q) const noexcept;

  void reset() noexcept;

 private:
  struct alignas(64) Shard {
    std::unique_ptr<std::atomic<std::uint64_t>[]> counts;  ///< buckets + 1
    std::atomic<double> sum{0.0};
    std::atomic<std::uint64_t> n{0};
  };

  int bucket_index(double v) const noexcept;

  HistogramSpec spec_;
  std::vector<double> bounds_;
  std::array<Shard, kMetricShards> shards_;
};

/// Label set of one series, in emission order.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

enum class MetricType : int { Counter, Gauge, Histogram };

constexpr std::string_view to_string(MetricType t) noexcept {
  switch (t) {
    case MetricType::Counter:
      return "counter";
    case MetricType::Gauge:
      return "gauge";
    case MetricType::Histogram:
      return "histogram";
  }
  return "?";
}

/// Point-in-time copy of one series (see snapshot()).
struct MetricSnapshot {
  std::string name;
  std::string help;
  MetricType type = MetricType::Counter;
  MetricLabels labels;
  double value = 0.0;  ///< counter / gauge only
  // Histogram only:
  std::vector<double> le;               ///< finite bucket upper bounds
  std::vector<std::uint64_t> buckets;   ///< per-bucket counts, le.size() + 1
  std::uint64_t count = 0;
  double sum = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

struct MetricsSnapshot {
  bool enabled = false;
  std::vector<MetricSnapshot> series;  ///< registration order
};

/// The process-global registry.  Handles returned by counter()/gauge()/
/// histogram() are valid for the process lifetime; re-registering the same
/// (name, labels) returns the existing series (the type and, for
/// histograms, the spec must match — enforced).
class MetricsRegistry {
 public:
  static MetricsRegistry& global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name, std::string_view help,
                   MetricLabels labels = {});
  Gauge& gauge(std::string_view name, std::string_view help,
               MetricLabels labels = {});
  Histogram& histogram(std::string_view name, std::string_view help,
                       const HistogramSpec& spec, MetricLabels labels = {});

  /// Consistent point-in-time copy of every registered series, in
  /// registration order (families stay contiguous when registered
  /// together).  Wait-free for concurrent writers.
  MetricsSnapshot snapshot() const;

  /// Zero every series, keeping registrations (tests).
  void reset() noexcept;

  std::size_t size() const;

 private:
  struct Entry;
  Entry& find_or_create(std::string_view name, std::string_view help,
                        MetricType type, MetricLabels&& labels,
                        const HistogramSpec* spec);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_;
};

/// Snapshot of the global registry with the enabled flag filled in.
MetricsSnapshot snapshot_metrics();

// ---------------------------------------------------------------------------
// Instrumentation helpers.  Every exported metric name lives here (and in
// docs/METRICS.md); call sites never spell names.  All helpers no-op when
// !metrics_enabled().

/// Label value for SolveResult status: "converged", "breakdown", "maxiter".
constexpr std::string_view solve_status_label(bool converged,
                                              bool breakdown) noexcept {
  return converged ? std::string_view{"converged"}
                   : (breakdown ? std::string_view{"breakdown"}
                                : std::string_view{"maxiter"});
}

/// One finished solve (or one column of a batched solve): latency +
/// iterations histograms and the solves/heals counters, labeled by solver
/// ("cg", "gmres", "solve_many") and status.
void record_solve_metrics(std::string_view solver, double seconds,
                          int iterations, std::string_view status,
                          int heals) noexcept;

/// HierarchyCache events (any instance; the counters are process-wide).
void record_cache_hit() noexcept;
void record_cache_miss() noexcept;
void record_cache_eviction() noexcept;
/// One hierarchy build (a cache miss's setup cost).
void record_cache_setup(double seconds) noexcept;
/// Current entry count of the most recently touched cache.
void set_cache_entries(std::size_t entries) noexcept;

/// One preconditioner apply (the setup-vs-apply split's apply half).
void record_precond_apply(double seconds) noexcept;
/// One panel apply of `columns` right-hand sides.
void record_precond_panel(int columns) noexcept;

/// Autopilot health: one observed HealthEvent ("non_finite",
/// "stagnation") and one executed repair ("rescale", "promote", plus
/// "retry" when a solver retries from the last good iterate).
void record_autopilot_event(std::string_view event) noexcept;
void record_autopilot_repair(std::string_view action) noexcept;

/// Pre-register the core families so exposition shows them at zero before
/// the first solve (called by enable_metrics(true)).
void register_core_metrics();

// ---------------------------------------------------------------------------
// Request IDs: a monotonically increasing per-process solve identifier,
// threaded through SolveOptions into telemetry trace events so one slow
// solve's Chrome trace can be pulled out of a batched, sharded run.

/// Reserve a contiguous block of `n` request IDs; returns the first.
/// IDs start at 1 (0 means "unassigned" everywhere).
std::uint64_t acquire_request_ids(std::uint64_t n) noexcept;

namespace detail {

inline std::uint64_t& request_slot() noexcept {
  thread_local std::uint64_t tl_request = 0;
  return tl_request;
}

}  // namespace detail

/// Request ID the calling thread is currently serving (0 outside a solve).
inline std::uint64_t current_request() noexcept {
  return detail::request_slot();
}

/// Tags the calling thread with a request ID for the scope's duration;
/// telemetry spans recorded underneath carry it into the trace.
class RequestScope {
 public:
  explicit RequestScope(std::uint64_t id) noexcept
      : prev_(detail::request_slot()) {
    detail::request_slot() = id;
  }
  ~RequestScope() { detail::request_slot() = prev_; }
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

 private:
  std::uint64_t prev_;
};

}  // namespace smg::obs
