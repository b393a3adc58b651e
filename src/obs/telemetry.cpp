#include "obs/telemetry.hpp"

#include <algorithm>
#include <cstdlib>

#include "obs/metrics.hpp"

namespace smg::obs {

namespace {

char lower(char c) noexcept {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

bool ieq(std::string_view a, std::string_view b) noexcept {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (lower(a[i]) != lower(b[i])) {
      return false;
    }
  }
  return true;
}

}  // namespace

TelemetryLevel parse_telemetry(std::string_view s,
                               TelemetryLevel fallback) noexcept {
  if (ieq(s, "off") || ieq(s, "0") || ieq(s, "none")) {
    return TelemetryLevel::Off;
  }
  if (ieq(s, "counters") || ieq(s, "1")) {
    return TelemetryLevel::Counters;
  }
  if (ieq(s, "full") || ieq(s, "2") || ieq(s, "trace")) {
    return TelemetryLevel::Full;
  }
  return fallback;
}

TelemetryLevel effective_level(TelemetryLevel configured) noexcept {
  const char* env = std::getenv("SMG_TELEMETRY");
  if (env == nullptr || *env == '\0') {
    return configured;
  }
  return parse_telemetry(env, configured);
}

int detail::thread_slot() noexcept {
  static std::atomic<int> next{0};
  thread_local const int slot = next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

Telemetry::Telemetry(TelemetryLevel level, int nlevels)
    : level_(level),
      nlevels_(std::clamp(nlevels, 1, kMaxLevels)),
      origin_(clock::now()) {
  if (enabled()) {
    slabs_.resize(kMaxThreads);
  }
}

void Telemetry::record(Kind k, int level, double t0, double t1) noexcept {
  if (!enabled()) {
    return;
  }
  const int slot = detail::thread_slot();
  if (slot >= kMaxThreads) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const int li = std::clamp(level, -1, nlevels_ - 1) + 1;
  Slab& s = slabs_[static_cast<std::size_t>(slot)];
  SpanStat& st = s.stats[li][static_cast<int>(k)];
  st.seconds += t1 - t0;
  ++st.calls;
  if (tracing()) {
    if (s.events.size() >= kMaxTraceEvents) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (s.events.capacity() == 0) {
      s.events.reserve(4096);
    }
    s.events.push_back(TraceEvent{k, level, slot, t0, t1, current_request()});
  }
}

void Telemetry::record_apply(double t0, double t1) noexcept {
  apply_seconds_ += t1 - t0;
  ++apply_calls_;
  if (enabled()) {
    record(Kind::PrecondApply, -1, t0, t1);
  }
}

void Telemetry::note_request(std::uint64_t id) noexcept {
  if (id == 0) {
    return;
  }
  // Lock-free min/max over concurrent solves (solve_many_async).
  std::uint64_t first = request_first_.load(std::memory_order_relaxed);
  while ((first == 0 || id < first) &&
         !request_first_.compare_exchange_weak(first, id,
                                               std::memory_order_relaxed)) {
  }
  std::uint64_t last = request_last_.load(std::memory_order_relaxed);
  while (id > last && !request_last_.compare_exchange_weak(
                          last, id, std::memory_order_relaxed)) {
  }
  request_count_.fetch_add(1, std::memory_order_relaxed);
}

void Telemetry::record_panel_apply(int k) noexcept {
  ++panel_applies_;
  panel_columns_ += static_cast<std::uint64_t>(k);
  max_panel_width_ = std::max(max_panel_width_, k);
}

void Telemetry::reset() noexcept {
  for (Slab& s : slabs_) {
    for (auto& per_level : s.stats) {
      for (auto& st : per_level) {
        st = SpanStat{};
      }
    }
    s.events.clear();
  }
  apply_seconds_ = 0.0;
  apply_calls_ = 0;
  panel_applies_ = 0;
  panel_columns_ = 0;
  max_panel_width_ = 0;
  request_first_.store(0, std::memory_order_relaxed);
  request_last_.store(0, std::memory_order_relaxed);
  request_count_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
}

SpanStat Telemetry::stat(Kind k, int level) const noexcept {
  SpanStat out;
  const int li = std::clamp(level, -1, nlevels_ - 1) + 1;
  for (const Slab& s : slabs_) {
    const SpanStat& st = s.stats[li][static_cast<int>(k)];
    out.seconds += st.seconds;
    out.calls += st.calls;
  }
  return out;
}

SpanStat Telemetry::total(Kind k) const noexcept {
  SpanStat out;
  for (const Slab& s : slabs_) {
    for (int li = 0; li <= kMaxLevels; ++li) {
      const SpanStat& st = s.stats[li][static_cast<int>(k)];
      out.seconds += st.seconds;
      out.calls += st.calls;
    }
  }
  return out;
}

std::vector<TraceEvent> Telemetry::trace_events() const {
  std::vector<TraceEvent> out;
  for (const Slab& s : slabs_) {
    out.insert(out.end(), s.events.begin(), s.events.end());
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.t0 < b.t0;
            });
  return out;
}

}  // namespace smg::obs
