#include "core/config.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <strings.h>

#include "util/common.hpp"

namespace smg {

std::array<int, 3> effective_decomp(const MGConfig& cfg) noexcept {
  const char* env = std::getenv("SMG_DECOMP");
  if (env == nullptr || *env == '\0') {
    return cfg.decomp;
  }
  // Accept "2x2x2", "2,2,1", or "2 2 1".
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s", env);
  for (char* p = buf; *p != '\0'; ++p) {
    if (*p == 'x' || *p == 'X' || *p == ',') {
      *p = ' ';
    }
  }
  std::array<int, 3> d{1, 1, 1};
  if (std::sscanf(buf, "%d %d %d", &d[0], &d[1], &d[2]) != 3 || d[0] < 1 ||
      d[1] < 1 || d[2] < 1) {
    return cfg.decomp;
  }
  return d;
}

bool effective_halo_fp16(const MGConfig& cfg) noexcept {
  const char* env = std::getenv("SMG_HALO_FP16");
  if (env == nullptr || *env == '\0') {
    return cfg.halo_fp16;
  }
  for (const char* on : {"1", "on", "true", "yes"}) {
    if (strcasecmp(env, on) == 0) {
      return true;
    }
  }
  for (const char* off : {"0", "off", "false", "no"}) {
    if (strcasecmp(env, off) == 0) {
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
  const char* env = std::getenv("SMG_STORAGE_LADDER");
  if (env == nullptr || *env == '\0') {
    return cfg.storage_ladder;
  }
  if (std::strcmp(env, "auto") == 0 || std::strcmp(env, "AUTO") == 0) {
    if (auto_rungs != nullptr) {
      *auto_rungs = true;
    }
    return cfg.storage_ladder;  // the configured rungs cap the planner
  }
  // Accept "fp16,fp8", "fp16 fp8", or "fp16:fp8".
  std::vector<Prec> ladder;
  std::string token;
  for (const char* p = env;; ++p) {
    if (*p != '\0' && *p != ',' && *p != ' ' && *p != ':') {
      token += *p;
      if (p[1] != '\0') {
        continue;
      }
    }
    if (!token.empty()) {
      Prec rung;
      if (!parse_prec(token, rung)) {
        return cfg.storage_ladder;  // unparseable: honor the config
      }
      ladder.push_back(rung);
      token.clear();
    }
    if (*p == '\0' || p[1] == '\0') {
      break;
    }
  }
  return ladder.empty() ? cfg.storage_ladder : ladder;
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
  const char* env = std::getenv("SMG_CYCLE");
  if (env == nullptr || *env == '\0') {
    return cfg.cycle;
  }
  CycleShape s = cfg.cycle;
  parse_cycle_shape(env, s);
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
  const char* env = std::getenv("SMG_LADDER_MIN_LEVEL");
  if (env == nullptr || *env == '\0') {
    return cfg.ladder_min_level;
  }
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  return (end != env && v >= 0) ? static_cast<int>(v) : cfg.ladder_min_level;
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
