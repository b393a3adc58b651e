#include "core/config.hpp"

#include <cstdio>
#include <string>

#include "util/common.hpp"
#include "util/env.hpp"

namespace smg {

namespace {

constexpr const char* kLadderSpellings =
    "SMG_STORAGE_LADDER must be auto or a list of fp64, fp32, fp16, bf16 "
    "and fp8 separated by commas, spaces or colons (e.g. fp16,fp8; "
    "case-insensitive)";

}  // namespace

std::array<int, 3> effective_decomp(const MGConfig& cfg) noexcept {
  const auto env = env_value("SMG_DECOMP");
  if (!env) {
    return cfg.decomp;
  }
  // Accept "2x2x2", "2,2,1", or "2 2 1"; nothing may follow the third count.
  std::string buf = *env;
  for (char& c : buf) {
    if (c == 'x' || c == ',') {
      c = ' ';
    }
  }
  std::array<int, 3> d{1, 1, 1};
  int used = 0;
  if (std::sscanf(buf.c_str(), "%d %d %d%n", &d[0], &d[1], &d[2], &used) !=
          3 ||
      buf[static_cast<std::size_t>(used)] != '\0' || d[0] < 1 || d[1] < 1 ||
      d[2] < 1) {
    fail("SMG_DECOMP must be three positive box counts such as 2x2x2, "
         "2,2,1 or \"2 2 1\"",
         __FILE__, __LINE__);
  }
  return d;
}

bool effective_halo_fp16(const MGConfig& cfg) noexcept {
  const auto env = env_value("SMG_HALO_FP16");
  if (!env) {
    return cfg.halo_fp16;
  }
  for (const char* on : {"1", "on", "true", "yes"}) {
    if (*env == on) {
      return true;
    }
  }
  for (const char* off : {"0", "off", "false", "no"}) {
    if (*env == off) {
      return false;
    }
  }
  fail("SMG_HALO_FP16 must be one of 1/on/true/yes or 0/off/false/no "
       "(case-insensitive)",
       __FILE__, __LINE__);
}

std::vector<Prec> effective_storage_ladder(const MGConfig& cfg,
                                           bool* auto_rungs) {
  if (auto_rungs != nullptr) {
    *auto_rungs = cfg.ladder_auto;
  }
  const auto env = env_value("SMG_STORAGE_LADDER");
  if (!env) {
    return cfg.storage_ladder;
  }
  if (*env == "auto") {
    if (auto_rungs != nullptr) {
      *auto_rungs = true;
    }
    return cfg.storage_ladder;  // the configured rungs cap the planner
  }
  // Accept "fp16,fp8", "fp16 fp8", or "fp16:fp8".
  std::vector<Prec> ladder;
  std::string token;
  for (const char* p = env->c_str();; ++p) {
    if (*p != '\0' && *p != ',' && *p != ' ' && *p != ':') {
      token += *p;
      if (p[1] != '\0') {
        continue;
      }
    }
    if (!token.empty()) {
      Prec rung;
      if (!parse_prec(token, rung)) {
        fail(kLadderSpellings, __FILE__, __LINE__);
      }
      ladder.push_back(rung);
      token.clear();
    }
    if (*p == '\0' || p[1] == '\0') {
      break;
    }
  }
  if (ladder.empty()) {
    fail(kLadderSpellings, __FILE__, __LINE__);
  }
  return ladder;
}

bool parse_cycle_shape(std::string_view s, CycleShape& out) noexcept {
  const auto eq = [&s](std::string_view want) {
    if (s.size() != want.size()) {
      return false;
    }
    for (std::size_t i = 0; i < s.size(); ++i) {
      const char c = s[i];
      const char lc =
          (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
      if (lc != want[i]) {
        return false;
      }
    }
    return true;
  };
  if (eq("v")) {
    out = CycleShape::V;
    return true;
  }
  if (eq("w")) {
    out = CycleShape::W;
    return true;
  }
  if (eq("f") || eq("fmg")) {
    out = CycleShape::F;
    return true;
  }
  return false;
}

CycleShape effective_cycle(const MGConfig& cfg) noexcept {
  const auto env = env_value("SMG_CYCLE");
  if (!env) {
    return cfg.cycle;
  }
  CycleShape s = cfg.cycle;
  if (!parse_cycle_shape(*env, s)) {
    fail("SMG_CYCLE must be one of v, w, f or fmg (case-insensitive)",
         __FILE__, __LINE__);
  }
  return s;
}

std::int64_t cycle_visits(CycleShape shape, int level, int nlevels) noexcept {
  if (nlevels <= 1 || level <= 0) {
    return 1;
  }
  switch (shape) {
    case CycleShape::V:
      return 1;
    case CycleShape::W:
      // Each non-coarsest child is entered twice per parent visit; the
      // coarsest only once per parent visit (run_cycle's recursion
      // guard `l + 1 < last`), so its count repeats the parent's.
      return std::int64_t{1} << std::min({level, nlevels - 2, 62});
    case CycleShape::F:
      // One V sub-cycle rooted at every level j <= level reaches `level`
      // once each; the coarsest additionally gets the FMG bootstrap solve.
      return level < nlevels - 1 ? level + 1 : nlevels;
  }
  return 1;
}

int effective_ladder_min_level(const MGConfig& cfg) noexcept {
  const auto env = env_value("SMG_LADDER_MIN_LEVEL");
  if (!env) {
    return cfg.ladder_min_level;
  }
  return env_int_at_least(
      *env, 0,
      "SMG_LADDER_MIN_LEVEL must be a non-negative integer level index");
}

MGConfig config_full64() {
  MGConfig cfg;
  cfg.compute = Prec::FP64;
  cfg.storage_ladder = {Prec::FP64};
  cfg.scale = ScaleMode::None;
  return cfg;
}

MGConfig config_k64p32d32() {
  MGConfig cfg;
  cfg.compute = Prec::FP32;
  cfg.storage_ladder = {Prec::FP32};
  cfg.scale = ScaleMode::None;
  return cfg;
}

MGConfig config_d16_none() {
  MGConfig cfg;
  cfg.compute = Prec::FP32;
  cfg.storage_ladder = {Prec::FP16};
  cfg.scale = ScaleMode::None;
  return cfg;
}

MGConfig config_d16_scale_setup() {
  MGConfig cfg;
  cfg.compute = Prec::FP32;
  cfg.storage_ladder = {Prec::FP16};
  cfg.scale = ScaleMode::ScaleThenSetup;
  return cfg;
}

MGConfig config_d16_setup_scale() {
  MGConfig cfg;
  cfg.compute = Prec::FP32;
  cfg.storage_ladder = {Prec::FP16};
  cfg.scale = ScaleMode::SetupThenScale;
  return cfg;
}

}  // namespace smg
