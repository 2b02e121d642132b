// The one parser for every numeric and boolean WM_* knob and numeric
// command-line flag.
//
// The raw atoi/stoi/stod idiom silently truncates overflowing values and
// accepts trailing garbage ("8x" parses as 8), so a typo in WM_THREADS or
// --port could configure the process with a number the operator never
// wrote. Everything here goes through one strict parse instead: the whole
// text must be a decimal integer (env_int, flag_int), a finite decimal
// number (env_double, flag_double) or, case-insensitively, one of
// 1/true/yes/on and 0/false/no/off (env_bool), and numbers must lie in the
// caller's documented range. An environment variable that fails logs one
// warning naming the variable and the reason, and the caller keeps its
// default; a flag that fails throws wm::InvalidArgument naming the flag.
//
// Each knob is read by exactly one function (DESIGN.md §10 lists them), and
// each default is written once, as the initialiser of the field it sets:
// overlay() applies explicit value > environment variable > that default.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>

namespace wm {

/// Reads the environment variable `name` as a decimal integer in
/// [min, max]. Returns std::nullopt when the variable is unset (silently)
/// or when the value is malformed, has trailing characters, overflows, or
/// falls outside the range (with one log_warn naming the problem).
std::optional<std::int64_t> env_int(const char* name, std::int64_t min,
                                    std::int64_t max);

/// env_int for a finite decimal number in [min, max].
std::optional<double> env_double(const char* name, double min, double max);

/// env_int for a boolean: 1/true/yes/on or 0/false/no/off, any case.
std::optional<bool> env_bool(const char* name);

/// The value of a command-line flag, parsed like env_int / env_double.
/// Throws wm::InvalidArgument naming `flag` when `text` fails the parse.
std::int64_t flag_int(const std::string& flag, const std::string& text,
                      std::int64_t min = std::numeric_limits<int>::min(),
                      std::int64_t max = std::numeric_limits<int>::max());
double flag_double(const std::string& flag, const std::string& text);

/// WM_BENCH_SCALE in [0.001, 1000], default 1: the experiment benches
/// multiply dataset sizes and request counts by it.
double bench_scale();

/// Sets `field` to `set` when given, else to the environment variable
/// `name` when it parses, else leaves the default already in `field`.
template <typename T>
  requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
void overlay(T& field, const std::optional<std::type_identity_t<T>>& set,
             const char* name, std::int64_t min, std::int64_t max) {
  if (set) {
    field = *set;
  } else if (const auto v = env_int(name, min, max)) {
    field = static_cast<T>(*v);
  }
}
void overlay(double& field, const std::optional<double>& set,
             const char* name, double min, double max);
void overlay(bool& field, const std::optional<bool>& set, const char* name);

}  // namespace wm
