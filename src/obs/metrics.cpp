#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>

#include "obs/telemetry.hpp"
#include "util/common.hpp"

namespace smg::obs {

namespace {

bool ieq(std::string_view a, std::string_view b) noexcept {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const char ca = a[i] >= 'A' && a[i] <= 'Z' ? char(a[i] - 'A' + 'a') : a[i];
    const char cb = b[i] >= 'A' && b[i] <= 'Z' ? char(b[i] - 'A' + 'a') : b[i];
    if (ca != cb) {
      return false;
    }
  }
  return true;
}

}  // namespace

MetricsLevel parse_metrics(std::string_view s, MetricsLevel fallback) noexcept {
  if (ieq(s, "off") || ieq(s, "0") || ieq(s, "false")) {
    return MetricsLevel::Off;
  }
  if (ieq(s, "on") || ieq(s, "1") || ieq(s, "true")) {
    return MetricsLevel::On;
  }
  return fallback;
}

MetricsLevel effective_metrics(MetricsLevel configured) noexcept {
  const char* env = std::getenv("SMG_METRICS");
  if (env != nullptr) {
    return parse_metrics(env, configured);
  }
  return configured;
}

namespace detail {

std::atomic<bool>& metrics_flag() noexcept {
  static std::atomic<bool> g_enabled{false};
  // Env-driven enable goes through the same path as enable_metrics(true):
  // flip the flag AND pre-register the core families, so a process that
  // only sets SMG_METRICS=on still exposes zero-valued series.
  static const bool g_env_init = [] {
    const char* env = std::getenv("SMG_METRICS");
    if (env != nullptr &&
        parse_metrics(env, MetricsLevel::Off) == MetricsLevel::On) {
      g_enabled.store(true, std::memory_order_relaxed);
      register_core_metrics();
    }
    return true;
  }();
  (void)g_env_init;
  return g_enabled;
}

int metric_slot() noexcept {
  thread_local const int tl_slot = thread_slot() % kMetricShards;
  return tl_slot;
}

}  // namespace detail

void enable_metrics(bool on) noexcept {
  const bool was = detail::metrics_flag().exchange(on);
  if (on && !was) {
    register_core_metrics();
  }
}

// --------------------------------------------------------------------------
// Counter

double Counter::value() const noexcept {
  double v = 0.0;
  for (const Shard& s : shards_) {
    v += s.v.load(std::memory_order_relaxed);
  }
  return v;
}

void Counter::reset() noexcept {
  for (Shard& s : shards_) {
    s.v.store(0.0, std::memory_order_relaxed);
  }
}

// --------------------------------------------------------------------------
// Histogram

Histogram::Histogram(const HistogramSpec& spec) : spec_(spec) {
  SMG_CHECK(spec.buckets > 0 && spec.lowest > 0.0 && spec.factor > 1.0,
            "invalid HistogramSpec");
  bounds_.resize(static_cast<std::size_t>(spec.buckets));
  double b = spec.lowest;
  for (double& bound : bounds_) {
    bound = b;
    b *= spec.factor;
  }
  const std::size_t nb = bounds_.size() + 1;  // + overflow bucket
  for (Shard& s : shards_) {
    s.counts = std::make_unique<std::atomic<std::uint64_t>[]>(nb);
    for (std::size_t i = 0; i < nb; ++i) {
      s.counts[i].store(0, std::memory_order_relaxed);
    }
  }
}

int Histogram::bucket_index(double v) const noexcept {
  // First bound >= v; NaN and overflow land in the +Inf bucket.
  if (std::isnan(v)) {
    return static_cast<int>(bounds_.size());
  }
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  return static_cast<int>(it - bounds_.begin());
}

void Histogram::observe(double v) noexcept {
  Shard& s = shards_[static_cast<std::size_t>(detail::metric_slot())];
  s.counts[static_cast<std::size_t>(bucket_index(v))].fetch_add(
      1, std::memory_order_relaxed);
  s.sum.fetch_add(v, std::memory_order_relaxed);
  s.n.fetch_add(1, std::memory_order_relaxed);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1, 0);
  for (const Shard& s : shards_) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] += s.counts[i].load(std::memory_order_relaxed);
    }
  }
  return out;
}

std::uint64_t Histogram::count() const noexcept {
  std::uint64_t n = 0;
  for (const Shard& s : shards_) {
    n += s.n.load(std::memory_order_relaxed);
  }
  return n;
}

double Histogram::sum() const noexcept {
  double v = 0.0;
  for (const Shard& s : shards_) {
    v += s.sum.load(std::memory_order_relaxed);
  }
  return v;
}

double Histogram::quantile(double q) const noexcept {
  const std::vector<std::uint64_t> counts = bucket_counts();
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) {
    total += c;
  }
  if (total == 0) {
    return 0.0;
  }
  q = std::min(1.0, std::max(0.0, q));
  // Rank of the target observation (1-based, ceil so q=1 is the max).
  const std::uint64_t rank =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(
                                     std::ceil(q * static_cast<double>(total))));
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) {
      continue;
    }
    if (cum + counts[i] >= rank) {
      if (i >= bounds_.size()) {
        // Overflow bucket: the last finite bound is the best statement.
        return bounds_.back();
      }
      const double lo = i == 0 ? 0.0 : bounds_[i - 1];
      const double hi = bounds_[i];
      const double frac = static_cast<double>(rank - cum) /
                          static_cast<double>(counts[i]);
      return lo + (hi - lo) * frac;
    }
    cum += counts[i];
  }
  return bounds_.back();
}

void Histogram::reset() noexcept {
  const std::size_t nb = bounds_.size() + 1;
  for (Shard& s : shards_) {
    for (std::size_t i = 0; i < nb; ++i) {
      s.counts[i].store(0, std::memory_order_relaxed);
    }
    s.sum.store(0.0, std::memory_order_relaxed);
    s.n.store(0, std::memory_order_relaxed);
  }
}

// --------------------------------------------------------------------------
// Registry

struct MetricsRegistry::Entry {
  std::string name;
  std::string help;
  MetricType type;
  MetricLabels labels;
  std::unique_ptr<Counter> counter;
  std::unique_ptr<Gauge> gauge;
  std::unique_ptr<Histogram> histogram;
};

namespace {

/// Canonical series key: name plus the rendered label pairs.
std::string series_key(std::string_view name, const MetricLabels& labels) {
  std::string key(name);
  for (const auto& [k, v] : labels) {
    key += '\x1f';
    key += k;
    key += '\x1e';
    key += v;
  }
  return key;
}

}  // namespace

MetricsRegistry& MetricsRegistry::global() {
  // Leaked on purpose: instrumented statics (and detached flush threads)
  // may outlive any destruction order we could pick.
  static MetricsRegistry* g = new MetricsRegistry();
  return *g;
}

MetricsRegistry::Entry& MetricsRegistry::find_or_create(
    std::string_view name, std::string_view help, MetricType type,
    MetricLabels&& labels, const HistogramSpec* spec) {
  const std::string key = series_key(name, labels);
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& e : entries_) {
    if (series_key(e->name, e->labels) == key) {
      SMG_CHECK(e->type == type, "metric re-registered with another type");
      if (type == MetricType::Histogram) {
        SMG_CHECK(spec != nullptr &&
                      e->histogram->spec().buckets == spec->buckets &&
                      e->histogram->spec().lowest == spec->lowest &&
                      e->histogram->spec().factor == spec->factor,
                  "histogram re-registered with another spec");
      }
      return *e;
    }
  }
  auto e = std::make_unique<Entry>();
  e->name = std::string(name);
  e->help = std::string(help);
  e->type = type;
  e->labels = std::move(labels);
  switch (type) {
    case MetricType::Counter:
      e->counter = std::make_unique<Counter>();
      break;
    case MetricType::Gauge:
      e->gauge = std::make_unique<Gauge>();
      break;
    case MetricType::Histogram:
      e->histogram = std::make_unique<Histogram>(*spec);
      break;
  }
  entries_.push_back(std::move(e));
  return *entries_.back();
}

Counter& MetricsRegistry::counter(std::string_view name, std::string_view help,
                                  MetricLabels labels) {
  return *find_or_create(name, help, MetricType::Counter, std::move(labels),
                         nullptr)
              .counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name, std::string_view help,
                              MetricLabels labels) {
  return *find_or_create(name, help, MetricType::Gauge, std::move(labels),
                         nullptr)
              .gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::string_view help,
                                      const HistogramSpec& spec,
                                      MetricLabels labels) {
  return *find_or_create(name, help, MetricType::Histogram, std::move(labels),
                         &spec)
              .histogram;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  snap.enabled = metrics_enabled();
  const std::lock_guard<std::mutex> lock(mu_);
  snap.series.reserve(entries_.size());
  for (const auto& e : entries_) {
    MetricSnapshot m;
    m.name = e->name;
    m.help = e->help;
    m.type = e->type;
    m.labels = e->labels;
    switch (e->type) {
      case MetricType::Counter:
        m.value = e->counter->value();
        break;
      case MetricType::Gauge:
        m.value = e->gauge->value();
        break;
      case MetricType::Histogram: {
        const Histogram& h = *e->histogram;
        m.le = h.bounds();
        m.buckets = h.bucket_counts();
        m.count = 0;
        m.sum = h.sum();
        for (std::uint64_t c : m.buckets) {
          m.count += c;
        }
        m.p50 = h.quantile(0.50);
        m.p90 = h.quantile(0.90);
        m.p99 = h.quantile(0.99);
        break;
      }
    }
    snap.series.push_back(std::move(m));
  }
  return snap;
}

void MetricsRegistry::reset() noexcept {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& e : entries_) {
    switch (e->type) {
      case MetricType::Counter:
        e->counter->reset();
        break;
      case MetricType::Gauge:
        e->gauge->reset();
        break;
      case MetricType::Histogram:
        e->histogram->reset();
        break;
    }
  }
}

std::size_t MetricsRegistry::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

MetricsSnapshot snapshot_metrics() { return MetricsRegistry::global().snapshot(); }

// --------------------------------------------------------------------------
// Instrumentation helpers.  Metric names are spelled here once; the table
// in docs/METRICS.md mirrors this section.

namespace {

constexpr const char* kSolvesHelp = "Finished solves by solver and status";
constexpr const char* kLatencyHelp = "Per-solve wall seconds";
constexpr const char* kItersHelp = "Iterations to termination per solve";
constexpr const char* kHealsHelp = "Self-healing retries consumed by solves";

struct SolveSeries {
  Histogram* latency;
  Histogram* iterations;
  Counter* heals;
};

SolveSeries solve_series(std::string_view solver) {
  MetricsRegistry& r = MetricsRegistry::global();
  const MetricLabels labels{{"solver", std::string(solver)}};
  return SolveSeries{
      &r.histogram("smg_solve_latency_seconds", kLatencyHelp, kLatencySpec,
                   labels),
      &r.histogram("smg_solve_iterations", kItersHelp, kIterationSpec, labels),
      &r.counter("smg_solve_heals_total", kHealsHelp, labels),
  };
}

}  // namespace

void record_solve_metrics(std::string_view solver, double seconds,
                          int iterations, std::string_view status,
                          int heals) noexcept {
  if (!metrics_enabled()) {
    return;
  }
  MetricsRegistry& r = MetricsRegistry::global();
  r.counter("smg_solves_total", kSolvesHelp,
            {{"solver", std::string(solver)}, {"status", std::string(status)}})
      .inc();
  const SolveSeries s = solve_series(solver);
  s.latency->observe(seconds);
  s.iterations->observe(static_cast<double>(iterations));
  if (heals > 0) {
    s.heals->add(static_cast<double>(heals));
  }
}

namespace {

constexpr const char* kCacheHitsHelp = "HierarchyCache lookups served";
constexpr const char* kCacheMissesHelp = "HierarchyCache lookups that built";
constexpr const char* kCacheEvictHelp = "HierarchyCache LRU evictions";
constexpr const char* kCacheEntriesHelp =
    "Entries in the most recently touched HierarchyCache";
constexpr const char* kSetupSecondsHelp =
    "Seconds spent building MG hierarchies (cache misses)";
constexpr const char* kSetupsHelp = "MG hierarchy builds (cache misses)";

}  // namespace

void record_cache_hit() noexcept {
  if (!metrics_enabled()) {
    return;
  }
  static Counter& c = MetricsRegistry::global().counter(
      "smg_hierarchy_cache_hits_total", kCacheHitsHelp);
  c.inc();
}

void record_cache_miss() noexcept {
  if (!metrics_enabled()) {
    return;
  }
  static Counter& c = MetricsRegistry::global().counter(
      "smg_hierarchy_cache_misses_total", kCacheMissesHelp);
  c.inc();
}

void record_cache_eviction() noexcept {
  if (!metrics_enabled()) {
    return;
  }
  static Counter& c = MetricsRegistry::global().counter(
      "smg_hierarchy_cache_evictions_total", kCacheEvictHelp);
  c.inc();
}

void record_cache_setup(double seconds) noexcept {
  if (!metrics_enabled()) {
    return;
  }
  static Counter& n = MetricsRegistry::global().counter(
      "smg_hierarchy_setups_total", kSetupsHelp);
  static Counter& s = MetricsRegistry::global().counter(
      "smg_hierarchy_setup_seconds_total", kSetupSecondsHelp);
  n.inc();
  s.add(seconds);
}

void set_cache_entries(std::size_t entries) noexcept {
  if (!metrics_enabled()) {
    return;
  }
  static Gauge& g = MetricsRegistry::global().gauge(
      "smg_hierarchy_cache_entries", kCacheEntriesHelp);
  g.set(static_cast<double>(entries));
}

namespace {

constexpr const char* kApplySecondsHelp =
    "Seconds inside MG preconditioner applies";
constexpr const char* kAppliesHelp = "MG preconditioner applies";
constexpr const char* kPanelsHelp = "Panel (multi-RHS) preconditioner applies";
constexpr const char* kPanelColsHelp =
    "Right-hand-side columns pushed through panel applies";

}  // namespace

void record_precond_apply(double seconds) noexcept {
  if (!metrics_enabled()) {
    return;
  }
  static Counter& n =
      MetricsRegistry::global().counter("smg_precond_applies_total",
                                        kAppliesHelp);
  static Counter& s = MetricsRegistry::global().counter(
      "smg_precond_apply_seconds_total", kApplySecondsHelp);
  n.inc();
  s.add(seconds);
}

void record_precond_panel(int columns) noexcept {
  if (!metrics_enabled()) {
    return;
  }
  static Counter& n =
      MetricsRegistry::global().counter("smg_precond_panels_total",
                                        kPanelsHelp);
  static Counter& c = MetricsRegistry::global().counter(
      "smg_precond_panel_columns_total", kPanelColsHelp);
  n.inc();
  c.add(static_cast<double>(columns));
}

namespace {

constexpr const char* kEventsHelp =
    "Autopilot health events observed by the precision governor";
constexpr const char* kRepairsHelp =
    "Repairs executed by the precision governor";

}  // namespace

void record_autopilot_event(std::string_view event) noexcept {
  if (!metrics_enabled()) {
    return;
  }
  MetricsRegistry::global()
      .counter("smg_autopilot_events_total", kEventsHelp,
               {{"event", std::string(event)}})
      .inc();
}

void record_autopilot_repair(std::string_view action) noexcept {
  if (!metrics_enabled()) {
    return;
  }
  MetricsRegistry::global()
      .counter("smg_autopilot_repairs_total", kRepairsHelp,
               {{"action", std::string(action)}})
      .inc();
}

void register_core_metrics() {
  MetricsRegistry& r = MetricsRegistry::global();
  for (const char* solver : {"cg", "gmres", "solve_many"}) {
    solve_series(solver);
    r.counter("smg_solves_total", kSolvesHelp,
              {{"solver", solver}, {"status", "converged"}});
  }
  r.counter("smg_hierarchy_cache_hits_total", kCacheHitsHelp);
  r.counter("smg_hierarchy_cache_misses_total", kCacheMissesHelp);
  r.counter("smg_hierarchy_cache_evictions_total", kCacheEvictHelp);
  r.gauge("smg_hierarchy_cache_entries", kCacheEntriesHelp);
  r.counter("smg_hierarchy_setups_total", kSetupsHelp);
  r.counter("smg_hierarchy_setup_seconds_total", kSetupSecondsHelp);
  r.counter("smg_precond_applies_total", kAppliesHelp);
  r.counter("smg_precond_apply_seconds_total", kApplySecondsHelp);
  r.counter("smg_precond_panels_total", kPanelsHelp);
  r.counter("smg_precond_panel_columns_total", kPanelColsHelp);
  for (const char* event : {"non_finite", "stagnation"}) {
    r.counter("smg_autopilot_events_total", kEventsHelp, {{"event", event}});
  }
  for (const char* action : {"rescale", "promote", "retry"}) {
    r.counter("smg_autopilot_repairs_total", kRepairsHelp,
              {{"action", action}});
  }
}

// --------------------------------------------------------------------------
// Request IDs

std::uint64_t acquire_request_ids(std::uint64_t n) noexcept {
  static std::atomic<std::uint64_t> g_next{1};
  return g_next.fetch_add(n, std::memory_order_relaxed);
}

}  // namespace smg::obs
