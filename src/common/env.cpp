#include "common/env.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "common/error.hpp"
#include "common/logging.hpp"

namespace wm {

namespace {

// The strict parse shared by every env var and flag. Each overload stores
// the value and returns "" on success, or returns why `text` was rejected.

/// True when `text` is non-empty and made only of `allowed` characters, so
/// strtoll/strtod cannot skip whitespace or read hex, inf or nan.
bool only(const char* text, const char* allowed) {
  return *text != '\0' && std::strspn(text, allowed) == std::strlen(text);
}

template <typename T>
std::string outside(T min, T max) {
  std::ostringstream os;
  os << "is outside [" << min << ", " << max << "]";
  return os.str();
}

std::string parse(const char* text, std::int64_t min, std::int64_t max,
                  std::int64_t& out) {
  if (!only(text, "0123456789+-")) return "is not an integer";
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0') return "is not an integer";
  if (errno == ERANGE) return "overflows";
  if (v < min || v > max) return outside(min, max);
  out = v;
  return {};
}

std::string parse(const char* text, double min, double max, double& out) {
  if (!only(text, "0123456789+-.eE")) return "is not a number";
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0') return "is not a number";
  if (errno == ERANGE || !std::isfinite(v)) return "is out of range";
  if (v < min || v > max) return outside(min, max);
  out = v;
  return {};
}

std::string parse(const char* text, bool& out) {
  std::string v = text;
  std::transform(v.begin(), v.end(), v.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (v == "1" || v == "true" || v == "yes" || v == "on") {
    out = true;
  } else if (v == "0" || v == "false" || v == "no" || v == "off") {
    out = false;
  } else {
    return "is not one of 1/true/yes/on, 0/false/no/off";
  }
  return {};
}

template <typename T, typename... Range>
std::optional<T> from_env(const char* name, Range... range) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return std::nullopt;
  T value{};
  if (const std::string why = parse(raw, range..., value); !why.empty()) {
    log_warn(name, "='", raw, "' ", why, "; using the default");
    return std::nullopt;
  }
  return value;
}

template <typename T, typename... Range>
T from_flag(const std::string& flag, const std::string& text,
            Range... range) {
  T value{};
  if (const std::string why = parse(text.c_str(), range..., value);
      !why.empty()) {
    throw InvalidArgument(flag + "='" + text + "' " + why);
  }
  return value;
}

}  // namespace

std::optional<std::int64_t> env_int(const char* name, std::int64_t min,
                                    std::int64_t max) {
  return from_env<std::int64_t>(name, min, max);
}

std::optional<double> env_double(const char* name, double min, double max) {
  return from_env<double>(name, min, max);
}

std::optional<bool> env_bool(const char* name) {
  return from_env<bool>(name);
}

std::int64_t flag_int(const std::string& flag, const std::string& text,
                      std::int64_t min, std::int64_t max) {
  return from_flag<std::int64_t>(flag, text, min, max);
}

double flag_double(const std::string& flag, const std::string& text) {
  return from_flag<double>(flag, text, -HUGE_VAL, HUGE_VAL);
}

double bench_scale() {
  return env_double("WM_BENCH_SCALE", 1e-3, 1e3).value_or(1.0);
}

void overlay(double& field, const std::optional<double>& set,
             const char* name, double min, double max) {
  if (set) {
    field = *set;
  } else if (const auto v = env_double(name, min, max)) {
    field = *v;
  }
}

void overlay(bool& field, const std::optional<bool>& set, const char* name) {
  if (set) {
    field = *set;
  } else if (const auto v = env_bool(name)) {
    field = *v;
  }
}

}  // namespace wm
