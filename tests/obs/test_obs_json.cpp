// JSON/Chrome-trace export tests: parser unit tests plus full round-trips
// of to_json / to_chrome_trace through the in-tree parser, validating the
// "smg-telemetry-v4" schema without an external dependency.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/mg_precond.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"
#include "obs/telemetry.hpp"
#include "problems/problem.hpp"
#include "util/aligned.hpp"

namespace smg {
namespace {

// ---- parser unit tests ----------------------------------------------------

TEST(JsonParse, Scalars) {
  auto v = obs::json_parse("42.5");
  ASSERT_TRUE(v.has_value());
  ASSERT_TRUE(v->is_number());
  EXPECT_EQ(v->as_number(), 42.5);

  v = obs::json_parse("-1e-3");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->as_number(), -1e-3);

  v = obs::json_parse("true");
  ASSERT_TRUE(v.has_value());
  ASSERT_TRUE(v->is_bool());
  EXPECT_TRUE(v->as_bool());

  v = obs::json_parse("false");
  ASSERT_TRUE(v.has_value());
  EXPECT_FALSE(v->as_bool());

  v = obs::json_parse("null");
  ASSERT_TRUE(v.has_value());
  EXPECT_TRUE(v->is_null());
}

TEST(JsonParse, StringsAndEscapes) {
  auto v = obs::json_parse("\"hello\"");
  ASSERT_TRUE(v.has_value());
  ASSERT_TRUE(v->is_string());
  EXPECT_EQ(v->as_string(), "hello");

  v = obs::json_parse("\"a\\\"b\\\\c\\n\\t\"");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->as_string(), "a\"b\\c\n\t");
}

TEST(JsonParse, UnicodeEscapes) {
  // BMP code points decode to UTF-8, not a '?' placeholder.
  auto v = obs::json_parse("\"\\u0041\\u00e9\\u4e2d\"");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->as_string(), "A\xc3\xa9\xe4\xb8\xad");  // "Aé中"

  // \u0000 is representable (embedded NUL).
  v = obs::json_parse("\"a\\u0000b\"");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->as_string(), std::string("a\0b", 3));

  // Surrogate pair: U+1F600 = \uD83D\uDE00 -> 4-byte UTF-8.
  v = obs::json_parse("\"\\ud83d\\ude00\"");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->as_string(), "\xf0\x9f\x98\x80");

  // Round trip through json_escape's \u output for control characters.
  v = obs::json_parse("\"" + obs::json_escape(std::string("\x01\x1f")) +
                      "\"");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->as_string(), "\x01\x1f");
}

TEST(JsonParse, RejectsBadUnicodeEscapes) {
  EXPECT_FALSE(obs::json_parse("\"\\u12\"").has_value());      // short
  EXPECT_FALSE(obs::json_parse("\"\\u12zz\"").has_value());    // non-hex
  EXPECT_FALSE(obs::json_parse("\"\\ud83d\"").has_value());    // lone high
  EXPECT_FALSE(obs::json_parse("\"\\ud83dxy\"").has_value());  // unpaired
  EXPECT_FALSE(
      obs::json_parse("\"\\ud83d\\u0041\"").has_value());  // bad low
  EXPECT_FALSE(obs::json_parse("\"\\ude00\"").has_value());  // stray low
}

TEST(JsonParse, NestedStructures) {
  const auto v =
      obs::json_parse("{\"a\":[1,2,{\"b\":true}],\"c\":{\"d\":null}}");
  ASSERT_TRUE(v.has_value());
  ASSERT_TRUE(v->is_object());
  const obs::JsonValue* a = v->find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->items().size(), 3u);
  EXPECT_EQ(a->items()[0].as_number(), 1.0);
  ASSERT_TRUE(a->items()[2].is_object());
  EXPECT_TRUE(a->items()[2].find("b")->as_bool());
  ASSERT_NE(v->find("c"), nullptr);
  EXPECT_TRUE(v->find("c")->find("d")->is_null());
  EXPECT_EQ(v->find("missing"), nullptr);
}

TEST(JsonParse, RejectsMalformedAndTrailingGarbage) {
  EXPECT_FALSE(obs::json_parse("").has_value());
  EXPECT_FALSE(obs::json_parse("{").has_value());
  EXPECT_FALSE(obs::json_parse("[1,]").has_value());
  EXPECT_FALSE(obs::json_parse("{\"a\":}").has_value());
  EXPECT_FALSE(obs::json_parse("\"unterminated").has_value());
  EXPECT_FALSE(obs::json_parse("{} trailing").has_value());
  EXPECT_FALSE(obs::json_parse("123abc").has_value());
}

TEST(JsonParse, DepthCapRejectsPathological) {
  std::string deep;
  for (int i = 0; i < 200; ++i) {
    deep += "[";
  }
  for (int i = 0; i < 200; ++i) {
    deep += "]";
  }
  EXPECT_FALSE(obs::json_parse(deep).has_value());
}

TEST(JsonEscape, RoundTripsThroughParse) {
  const std::string raw = "line1\nline2\t\"quoted\"\\slash";
  const auto v = obs::json_parse("\"" + obs::json_escape(raw) + "\"");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->as_string(), raw);
}

// ---- report / trace round-trips -------------------------------------------

struct InstrumentedSolve {
  InstrumentedSolve() {
    const Problem p = make_problem("laplace27", Box{10, 10, 10});
    MGConfig cfg = config_d16_setup_scale();
    cfg.min_coarse_cells = 64;
    cfg.telemetry = obs::TelemetryLevel::Full;
    StructMat<double> A = p.A;
    h = std::make_unique<MGHierarchy>(std::move(A), cfg);
    M = make_mg_precond<double>(*h);
    const std::size_t n = p.b.size();
    avec<double> r(n, 1.0), e(n, 0.0);
    M->apply({r.data(), n}, {e.data(), n});
    M->apply({r.data(), n}, {e.data(), n});
  }
  std::unique_ptr<MGHierarchy> h;
  std::unique_ptr<PrecondBase<double>> M;
};

TEST(ReportJson, SchemaRoundTrip) {
  InstrumentedSolve s;
  const obs::SolverReport rep =
      obs::build_report(*s.M->telemetry(), *s.h, /*reference_gbs=*/25.0);
  const std::string text = obs::to_json(rep);
  const auto doc = obs::json_parse(text);
  ASSERT_TRUE(doc.has_value()) << text;
  ASSERT_TRUE(doc->is_object());

  ASSERT_NE(doc->find("schema"), nullptr);
  EXPECT_EQ(doc->find("schema")->as_string(), "smg-telemetry-v4");
  ASSERT_NE(doc->find("precision_policy"), nullptr);
  EXPECT_EQ(doc->find("precision_policy")->as_string(), "fixed");

  const obs::JsonValue* solve = doc->find("solve");
  ASSERT_NE(solve, nullptr);
  ASSERT_TRUE(solve->is_object());
  for (const char* key :
       {"seconds", "iterations", "precond_seconds", "precond_calls"}) {
    ASSERT_NE(solve->find(key), nullptr) << key;
    EXPECT_TRUE(solve->find(key)->is_number()) << key;
  }
  EXPECT_EQ(solve->find("precond_calls")->as_number(), 2.0);
  EXPECT_GT(solve->find("precond_seconds")->as_number(), 0.0);
  EXPECT_EQ(doc->find("reference_gbs")->as_number(), 25.0);
  EXPECT_EQ(doc->find("dropped")->as_number(), 0.0);

  const obs::JsonValue* kernels = doc->find("kernels");
  ASSERT_NE(kernels, nullptr);
  ASSERT_TRUE(kernels->is_array());
  ASSERT_FALSE(kernels->items().empty());
  bool saw_symgs = false;
  for (const obs::JsonValue& k : kernels->items()) {
    ASSERT_TRUE(k.is_object());
    for (const char* key : {"level", "seconds", "calls",
                            "model_bytes_per_call", "achieved_gbs",
                            "efficiency"}) {
      ASSERT_NE(k.find(key), nullptr) << key;
      EXPECT_TRUE(k.find(key)->is_number()) << key;
    }
    ASSERT_NE(k.find("kind"), nullptr);
    EXPECT_TRUE(k.find("kind")->is_string());
    if (k.find("kind")->as_string() == "symgs") {
      saw_symgs = true;
      // 2 applies x (nu1 + nu2) sweeps on a non-coarsest level.
      EXPECT_EQ(k.find("calls")->as_number(), 4.0);
      EXPECT_GT(k.find("model_bytes_per_call")->as_number(), 0.0);
      EXPECT_GT(k.find("achieved_gbs")->as_number(), 0.0);
      EXPECT_GT(k.find("efficiency")->as_number(), 0.0);
    }
  }
  EXPECT_TRUE(saw_symgs);

  const obs::JsonValue* levels = doc->find("levels");
  ASSERT_NE(levels, nullptr);
  ASSERT_TRUE(levels->is_array());
  ASSERT_EQ(static_cast<int>(levels->items().size()), s.h->nlevels());
  for (const obs::JsonValue& l : levels->items()) {
    for (const char* key :
         {"level", "rows", "stored_values", "matrix_bytes", "g", "gmax",
          "headroom", "min_abs", "max_abs", "overflowed", "flushed_to_zero",
          "subnormal", "conversions_per_apply", "rescales", "promotions"}) {
      ASSERT_NE(l.find(key), nullptr) << key;
      EXPECT_TRUE(l.find(key)->is_number()) << key;
    }
    EXPECT_TRUE(l.find("storage")->is_string());
    EXPECT_TRUE(l.find("shifted")->is_bool());
    EXPECT_TRUE(l.find("scaled")->is_bool());
    EXPECT_GT(l.find("headroom")->as_number(), 1.0);
  }

  // Fixed policy: the autopilot array is present but empty.
  const obs::JsonValue* autopilot = doc->find("autopilot");
  ASSERT_NE(autopilot, nullptr);
  ASSERT_TRUE(autopilot->is_array());
  EXPECT_TRUE(autopilot->items().empty());
}

TEST(ChromeTrace, SchemaRoundTrip) {
  InstrumentedSolve s;
  const std::string text = obs::to_chrome_trace(*s.M->telemetry());
  const auto doc = obs::json_parse(text);
  ASSERT_TRUE(doc.has_value());
  const obs::JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_FALSE(events->items().empty());
  double prev_ts = -1.0;
  for (const obs::JsonValue& e : events->items()) {
    ASSERT_TRUE(e.is_object());
    EXPECT_EQ(e.find("ph")->as_string(), "X");
    EXPECT_TRUE(e.find("name")->is_string());
    EXPECT_GE(e.find("ts")->as_number(), prev_ts);
    prev_ts = e.find("ts")->as_number();
    EXPECT_GE(e.find("dur")->as_number(), 0.0);
    EXPECT_EQ(e.find("pid")->as_number(), 0.0);
    EXPECT_TRUE(e.find("tid")->is_number());
    const obs::JsonValue* args = e.find("args");
    ASSERT_NE(args, nullptr);
    ASSERT_NE(args->find("mg_level"), nullptr);
    EXPECT_GE(args->find("mg_level")->as_number(), -1.0);
    EXPECT_LT(args->find("mg_level")->as_number(), s.h->nlevels());
  }
}

TEST(ChromeTrace, EmptyBelowFull) {
  obs::Telemetry t(obs::TelemetryLevel::Counters, 2);
  const std::string text = obs::to_chrome_trace(t);
  const auto doc = obs::json_parse(text);
  ASSERT_TRUE(doc.has_value());
  EXPECT_TRUE(doc->find("traceEvents")->items().empty());
}

TEST(ReportFiles, EmitFromEnvWritesParsableFiles) {
  InstrumentedSolve s;
  const obs::SolverReport rep = obs::build_report(*s.M->telemetry(), *s.h);
  const std::string jpath = ::testing::TempDir() + "smg_report.json";
  const std::string tpath = ::testing::TempDir() + "smg_trace.json";
  setenv("SMG_TELEMETRY_JSON", jpath.c_str(), 1);
  setenv("SMG_TELEMETRY_TRACE", tpath.c_str(), 1);
  EXPECT_EQ(obs::emit_from_env(rep, *s.M->telemetry()), 2);
  unsetenv("SMG_TELEMETRY_JSON");
  unsetenv("SMG_TELEMETRY_TRACE");
  for (const std::string& path : {jpath, tpath}) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr) << path;
    std::string text;
    char buf[4096];
    std::size_t got = 0;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      text.append(buf, got);
    }
    std::fclose(f);
    EXPECT_TRUE(obs::json_parse(text).has_value()) << path;
    std::remove(path.c_str());
  }
  // Unset env: nothing written.
  EXPECT_EQ(obs::emit_from_env(rep, *s.M->telemetry()), 0);
}

}  // namespace
}  // namespace smg
