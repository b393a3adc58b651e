// One reading rule for the SMG_* environment overrides.
#pragma once

#include <cctype>
#include <climits>
#include <cstdlib>
#include <optional>
#include <string>

#include "util/common.hpp"

namespace smg {

/// Every SMG_* override reads its value through this one rule: unset or
/// empty defers to the caller's default (nullopt); otherwise the value is
/// lower-cased, so keywords and format names compare case-insensitively.  A
/// value with leading or trailing whitespace comes back as "", which every
/// parser rejects as malformed, as it does a blank value.
inline std::optional<std::string> env_value(const char* name) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') {
    return std::nullopt;
  }
  std::string out = env;
  const auto space = [](char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  };
  if (space(out.front()) || space(out.back())) {
    return std::string();
  }
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

/// The decimal integer an env_value spells, which must be at least `min`
/// and fit an int; any other spelling (signs aside, a non-digit anywhere,
/// a blank) fails with `spelling`, which names the variable and its
/// accepted values.
inline int env_int_at_least(const std::string& value, int min,
                            const char* spelling) {
  char* end = nullptr;
  const long v = std::strtol(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0' || v < min || v > INT_MAX) {
    fail(spelling, __FILE__, __LINE__);
  }
  return static_cast<int>(v);
}

/// The finite decimal number an env_value spells, which must lie in
/// [lo, hi] (an open bound is the next representable value); any other
/// spelling (a trailing character, a blank, NaN, an infinity) fails with
/// `spelling`, which names the variable and its accepted values.
inline double env_double_in(const std::string& value, double lo, double hi,
                            const char* spelling) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0' || !(v >= lo && v <= hi)) {
    fail(spelling, __FILE__, __LINE__);
  }
  return v;
}

}  // namespace smg
