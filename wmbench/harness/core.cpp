#include "core.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <stdexcept>

namespace wmbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::optional<double> percentile(std::vector<double> values, double q) {
  const std::size_t n = values.size();
  if (n == 0 || !(q > 0.0 && q < 1.0)) return std::nullopt;
  const auto k = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  if (k == 0 || n - k < 10) return std::nullopt;
  std::nth_element(values.begin(), values.begin() + (k - 1), values.end());
  const double v = values[k - 1];
  if (!std::isfinite(v)) return std::nullopt;
  return v;
}

double median(std::vector<double> values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

void MetricSet::set(const std::string& name, double value,
                    const std::string& unit, std::uint64_t samples) {
  if (!valid_metric_name(name)) {
    throw std::invalid_argument("invalid metric name '" + name + "'");
  }
  if (!std::isfinite(value) || value <= 0.0) {
    throw std::invalid_argument("metric '" + name + "' is not a finite "
                                "positive number: " + std::to_string(value));
  }
  if (!metrics_.emplace(name, Metric{value, unit, samples}).second) {
    throw std::invalid_argument("metric '" + name + "' set twice");
  }
}

void MetricSet::merge(const MetricSet& other) {
  for (const auto& [name, m] : other.all()) set(name, m.value, m.unit, m.samples);
}

void Tally::check(bool ok, const std::string& what) {
  add(1, ok ? 0 : 1, what);
}

void Tally::add(std::uint64_t n, std::uint64_t bad, const std::string& what) {
  attempted += n;
  failed += bad;
  if (bad > 0 && errors.size() < 16) errors.push_back(what);
}

void Tally::merge(const Tally& other) {
  attempted += other.attempted;
  failed += other.failed;
  for (const std::string& e : other.errors) {
    if (errors.size() < 16) errors.push_back(e);
  }
}

std::int64_t SpanRecorder::begin(const std::string& name, std::int64_t parent,
                                 std::uint64_t request) {
  if (!enabled_) return -1;
  const std::int64_t t = now_ns();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, t, t, parent, request});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanRecorder::end(std::int64_t id) {
  if (id < 0) return;
  const std::int64_t t = now_ns();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_ns = t;
}

std::int64_t SpanRecorder::add(const std::string& name, std::int64_t start_ns,
                               std::int64_t end_ns, std::int64_t parent,
                               std::uint64_t request) {
  if (!enabled_) return -1;
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, start_ns, end_ns, parent, request});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::vector<Span> SpanRecorder::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void SpanRecorder::write_json(const std::string& path) const {
  const std::vector<Span> spans = snapshot();
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "{\"spans\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request << "}";
  }
  out << "\n]}\n";
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size()) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    // Length of the union of the children's intervals inside [start, end].
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0;
    std::int64_t cur_hi = -1;
    bool open = false;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, p.start_ns);
      hi = std::min(hi, p.end_ns);
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (p.end_ns - p.start_ns) - covered;
  }
  return self;
}

std::map<std::string, double> self_seconds_by_name(
    const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times_ns(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[spans[i].name] += static_cast<double>(self[i]) * 1e-9;
  }
  return out;
}

}  // namespace wmbench
