// Benchmark-side building blocks shared by every part of the harness:
// clocks, the percentile rule, metric names, outcome tallies and the span
// recorder the traced run uses. Nothing here touches the program under
// test; the parts (score.cpp, serve.cpp, train.cpp) call its public API.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace wmbench {

using Clock = std::chrono::steady_clock;

/// Steady-clock nanoseconds (one time base for spans and schedules).
std::int64_t now_ns();
double seconds_since(Clock::time_point t0);

// ---------------------------------------------------------------------------
// Percentiles.

/// Nearest-rank q-quantile (q in (0, 1)) of `values`, reported only when at
/// least ten samples lie beyond it: with n samples the rank is
/// k = ceil(q * n) and n - k must be >= 10. Failed operations enter as
/// +infinity, so they count as missing every percentile; a percentile that
/// lands on one is not reported either.
std::optional<double> percentile(std::vector<double> values, double q);

/// Plain median (no tail rule); NaN for an empty vector.
double median(std::vector<double> values);

// ---------------------------------------------------------------------------
// Metrics.

/// True when `name` is non-empty, at most 64 characters, starts with a
/// letter or digit and uses only [A-Za-z0-9_.-].
bool valid_metric_name(std::string_view name);

struct Metric {
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;  // measurements the value summarises
};

/// Named metrics of one run. set() throws std::invalid_argument on an
/// invalid or repeated name and on a value that is not finite and positive,
/// so a typo or a degenerate measurement fails the run loudly.
class MetricSet {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           std::uint64_t samples);
  const std::map<std::string, Metric>& all() const { return metrics_; }
  bool has(const std::string& name) const { return metrics_.count(name) > 0; }
  void merge(const MetricSet& other);

 private:
  std::map<std::string, Metric> metrics_;
};

// ---------------------------------------------------------------------------
// Outcomes.

/// Attempted and failed operations plus the reason for every failure. Every
/// output check of the benchmark goes through check(), so each one counts in
/// `failed` and makes the run incorrect.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // first few failure reasons

  /// Counts one operation; records a failure (and `what`) when !ok.
  void check(bool ok, const std::string& what);
  /// Counts `n` operations of which `bad` failed, for one reason.
  void add(std::uint64_t n, std::uint64_t bad, const std::string& what);
  void merge(const Tally& other);
};

// ---------------------------------------------------------------------------
// Spans.

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;    // index of the enclosing span, -1 for a root
  std::uint64_t request = 0;   // shared by every span of one request
};

/// In-memory span store of the traced run. Disabled recorders do nothing,
/// so the untraced code path pays one branch per call site.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Opens a span now; returns its id (-1 when disabled).
  std::int64_t begin(const std::string& name, std::int64_t parent = -1,
                     std::uint64_t request = 0);
  void end(std::int64_t id);
  /// Records an already-measured interval; returns its id.
  std::int64_t add(const std::string& name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int64_t parent = -1,
                   std::uint64_t request = 0);

  std::vector<Span> snapshot() const;
  /// Writes every span as one JSON document.
  void write_json(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op on a disabled recorder.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const std::string& name,
             std::int64_t parent = -1, std::uint64_t request = 0)
      : rec_(rec), id_(rec.begin(name, parent, request)) {}
  ~ScopedSpan() { rec_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::int64_t id() const { return id_; }

 private:
  SpanRecorder& rec_;
  std::int64_t id_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals (clipped to the
/// parent). Same order as `spans`.
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

/// Sum of self time per span name.
std::map<std::string, double> self_seconds_by_name(
    const std::vector<Span>& spans);

}  // namespace wmbench
