// Round-trip between the schema documentation and the emitters.
//
// docs/BENCH_SCHEMA.md and docs/TELEMETRY_SCHEMA.md promise (in their
// "Doc convention" note) that every table row whose first cell is a
// single backticked lowercase identifier documents exactly one JSON key.
// This test parses those rows and asserts the documented key set equals
// the key set the emitters actually produce — in both directions, so a
// field added to the code without documentation fails just like a
// documented field the code stopped emitting.
#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "core/autopilot.hpp"
#include "core/config.hpp"
#include "harness/harness.hpp"
#include "obs/counters.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"

namespace smg {
namespace {

#ifndef SMG_SOURCE_DIR
#error "tests/CMakeLists.txt must define SMG_SOURCE_DIR"
#endif

std::string read_doc(const std::string& rel) {
  const std::string path = std::string(SMG_SOURCE_DIR) + "/" + rel;
  std::ifstream f(path);
  EXPECT_TRUE(f.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

bool is_identifier(const std::string& s) {
  if (s.empty() || !(std::islower(static_cast<unsigned char>(s[0])) != 0)) {
    return false;
  }
  for (char c : s) {
    if (std::islower(static_cast<unsigned char>(c)) == 0 &&
        std::isdigit(static_cast<unsigned char>(c)) == 0 && c != '_') {
      return false;
    }
  }
  return true;
}

/// Every `| \`key\` |`-style table row in the markdown text.
std::set<std::string> documented_keys(const std::string& text) {
  std::set<std::string> keys;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("| `", 0) != 0) {
      continue;
    }
    const std::size_t close = line.find('`', 3);
    if (close == std::string::npos) {
      continue;
    }
    const std::string key = line.substr(3, close - 3);
    if (is_identifier(key)) {
      keys.insert(key);
    }
  }
  return keys;
}

/// All object keys anywhere in a JSON value tree.
void collect_keys(const obs::JsonValue& v, std::set<std::string>& out) {
  for (const auto& [key, member] : v.members()) {
    out.insert(key);
    collect_keys(member, out);
  }
  for (const obs::JsonValue& item : v.items()) {
    collect_keys(item, out);
  }
}

void expect_same_keys(const std::set<std::string>& documented,
                      const std::set<std::string>& emitted,
                      const std::string& doc_name) {
  for (const std::string& k : emitted) {
    EXPECT_TRUE(documented.count(k) > 0)
        << "emitted key `" << k << "` is not documented in " << doc_name;
  }
  for (const std::string& k : documented) {
    EXPECT_TRUE(emitted.count(k) > 0)
        << doc_name << " documents `" << k
        << "` but the emitter never produces it";
  }
}

TEST(SchemaDocs, BenchDocumentKeysMatchBenchSchemaDoc) {
  // A run exercising every optional branch: a failure (so "failures"
  // appears) and one metric of each kind.
  bench::RunOptions opts;
  opts.stream_n = 0;
  bench::BenchRun run;
  run.name = "doc_probe";
  run.paper_ref = "none";
  run.ok = false;
  run.failures.push_back("probe failure");
  bench::MetricResult timed;
  timed.name = "t";
  timed.unit = "s";
  timed.better = bench::Better::Lower;
  timed.timed = true;
  timed.gate = true;
  timed.samples = {0.1, 0.2, 0.3, 0.4, 0.5};
  run.metrics.push_back(timed);
  bench::MetricResult val;
  val.name = "v";
  val.unit = "x";
  val.better = bench::Better::None;
  val.samples = {1.0};
  run.metrics.push_back(val);

  // The document embeds a service-metrics snapshot: enable metrics and
  // record one solve so both counter and histogram series keys appear.
  obs::enable_metrics(true);
  obs::record_solve_metrics("cg", 0.01, 5, "converged", 0);

  const obs::JsonValue env = bench::capture_environment(opts);
  const obs::JsonValue doc = bench::make_document("smoke", opts, env, {run});
  ASSERT_TRUE(bench::validate_bench_document(doc).empty());

  std::set<std::string> emitted;
  collect_keys(doc, emitted);
  expect_same_keys(documented_keys(read_doc("docs/BENCH_SCHEMA.md")), emitted,
                   "docs/BENCH_SCHEMA.md");
}

TEST(SchemaDocs, TelemetryJsonKeysMatchTelemetrySchemaDoc) {
  // Fabricate a report populating every array so every key is emitted.
  obs::SolverReport r;
  r.solve_seconds = 1.25;
  r.iterations = 17;
  r.precond_seconds = 0.75;
  r.precond_calls = 17;
  r.reference_gbs = 20.0;
  r.dropped = 1;
  obs::KernelRow k;
  k.kind = obs::Kind::SpMV;
  k.level = 0;
  k.seconds = 0.5;
  k.calls = 17;
  k.model_bytes_per_call = 1.0e6;
  k.achieved_gbs = 12.0;
  k.efficiency = 0.6;
  r.kernels.push_back(k);
  obs::LevelPrecisionCounters c;
  c.level = 0;
  c.rows = 1000;
  c.stored_values = 27000;
  c.matrix_bytes = 54000;
  c.storage = Prec::FP16;
  c.scaled = true;
  c.g = 100.0;
  c.gmax = 400.0;
  c.headroom = 4.0;
  c.min_abs = 1e-6;
  c.max_abs = 100.0;
  c.subnormal = 3;
  c.conversions_per_apply = 81000;
  c.rescales = 1;
  r.levels.push_back(c);
  r.policy = PrecisionPolicy::Guarded;
  AutopilotDecision d;
  d.level = 0;
  d.trigger = AutopilotTrigger::NonFinite;
  d.action = AutopilotAction::Rescale;
  d.from = Prec::FP16;
  d.to = Prec::FP16;
  d.safety = 0.25;
  d.reason = "probe";
  r.autopilot.push_back(d);
  r.request_first = 1;
  r.request_last = 17;
  r.request_count = 17;
  // One counter and one histogram series so every metrics key is emitted.
  r.metrics.enabled = true;
  obs::MetricSnapshot cs;
  cs.name = "smg_solves_total";
  cs.type = obs::MetricType::Counter;
  cs.labels = {{"solver", "cg"}, {"status", "converged"}};
  cs.value = 17.0;
  r.metrics.series.push_back(cs);
  obs::MetricSnapshot hs;
  hs.name = "smg_solve_latency_seconds";
  hs.type = obs::MetricType::Histogram;
  hs.labels = {{"solver", "cg"}};
  hs.le = {1e-3, 2e-3};
  hs.buckets = {10, 6, 1};
  hs.count = 17;
  hs.sum = 0.02;
  hs.p50 = 1e-3;
  hs.p90 = 2e-3;
  hs.p99 = 3e-3;
  r.metrics.series.push_back(hs);

  const auto parsed = obs::json_parse(obs::to_json(r));
  ASSERT_TRUE(parsed.has_value()) << "to_json emitted invalid JSON";

  std::set<std::string> emitted;
  collect_keys(*parsed, emitted);
  expect_same_keys(documented_keys(read_doc("docs/TELEMETRY_SCHEMA.md")),
                   emitted, "docs/TELEMETRY_SCHEMA.md");
}

}  // namespace
}  // namespace smg
