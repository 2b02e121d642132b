#include "serve.hpp"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <limits>
#include <thread>

#include "common/rng.hpp"
#include "serve/server_config.hpp"

namespace wmbench {

using wm::SelectivePrediction;
using wm::WaferMap;
using wm::net::CallResult;

namespace {

// Phase rates, fixed as numbers (never recomputed per run).
//   low:  mean batch stays <= 2, so the flush timer, queue and wire dominate.
//   high: about half the closed-loop peak (800 to 950 wafers/s with fp32
//         32x32 on one compute thread when the benchmark was defined), so
//         compute dominates. Rates nearer the peak overload the engine when
//         the shared host slows, which makes the phase invalid.
constexpr double kLowWps = 300.0;
constexpr double kHighWps = 400.0;
constexpr int kPeakInflightPerClient = 32;  // >= the engine's max_batch
// Fixed phase lengths of the traced run (p99s need 1000 samples).
constexpr int kTracedLowRequests = 1500;
constexpr int kTracedHighRequests = 2000;
constexpr double kTracedPeakSeconds = 1.5;
constexpr double kWarmupSeconds = 0.3;
// Peak throughput is the median rate over blocks of this many answers
// after the ramp-up, so one stall of the shared host moves one block, not
// the figure.
constexpr std::size_t kPeakBlock = 256;
constexpr double kPeakRampSeconds = 0.25;
// A phase is invalid when the generator's p99 lateness exceeds this...
constexpr double kMaxLateMs = 25.0;
// ...or when the engine queue's mean depth over the last quarter of a phase
// exceeds the first quarter's by more than one full batch.
constexpr double kQueueGrowth = 32.0;

double inf() { return std::numeric_limits<double>::infinity(); }

std::vector<SelectivePrediction> direct_answers(
    const wm::Classifier& reference, const std::vector<WaferMap>& pool) {
  auto out = reference.predict_batch(pool);
  if (out.size() != pool.size()) {
    throw std::runtime_error("reference predict_batch returned a wrong count");
  }
  return out;
}

std::shared_ptr<const TimingClassifier> make_timing(
    const std::shared_ptr<const wm::Classifier>& served, bool traced) {
  return traced ? std::make_shared<const TimingClassifier>(served) : nullptr;
}

/// One request as the client saw it.
struct Req {
  std::int64_t due_ns = 0;
  std::int64_t send_ns = 0;
  std::int64_t done_ns = 0;
  std::uint32_t idx = 0;
  CallResult result;
};

/// Records a finished call (open and closed loop alike).
void finish(Req& r, std::future<CallResult>& fut) {
  r.result = fut.get();
  r.done_ns = now_ns();
}

Clock::time_point at(std::int64_t ns) {
  return Clock::time_point(std::chrono::nanoseconds(ns));
}

/// Open loop for one client: sends each request at its due time whatever
/// the replies do, collecting replies in between.
void open_loop(wm::net::Client& client, const std::vector<WaferMap>& pool,
               std::vector<Req>& reqs, const wm::serve::InferenceEngine& engine,
               std::vector<double>& depth) {
  std::deque<std::pair<std::size_t, std::future<CallResult>>> pending;
  std::size_t k = 0;
  while (k < reqs.size() || !pending.empty()) {
    if (k == reqs.size()) {
      finish(reqs[pending.front().first], pending.front().second);
      pending.pop_front();
      continue;
    }
    const Clock::time_point due = at(reqs[k].due_ns);
    while (!pending.empty() && pending.front().second.wait_until(due) ==
                                   std::future_status::ready) {
      finish(reqs[pending.front().first], pending.front().second);
      pending.pop_front();
    }
    std::this_thread::sleep_until(due);
    Req& r = reqs[k];
    r.send_ns = now_ns();
    depth.push_back(static_cast<double>(engine.queue_depth()));
    pending.emplace_back(k, client.predict_async(pool[r.idx]));
    ++k;
  }
}

/// Closed loop for one client: keeps `inflight` requests outstanding until
/// `end_ns`, then drains.
void closed_loop(wm::net::Client& client, const std::vector<WaferMap>& pool,
                 int inflight, std::int64_t end_ns, wm::Rng rng,
                 std::vector<Req>& reqs) {
  std::deque<std::pair<std::size_t, std::future<CallResult>>> pending;
  const auto send = [&] {
    Req r;
    r.idx = static_cast<std::uint32_t>(
        rng.uniform_int(0, static_cast<int>(pool.size()) - 1));
    r.send_ns = r.due_ns = now_ns();
    reqs.push_back(r);
    pending.emplace_back(reqs.size() - 1, client.predict_async(pool[r.idx]));
  };
  for (int i = 0; i < inflight; ++i) send();
  while (!pending.empty()) {
    finish(reqs[pending.front().first], pending.front().second);
    pending.pop_front();
    if (now_ns() < end_ns) send();
  }
}

struct PhaseOutcome {
  std::vector<Req> reqs;
  std::vector<double> late_ms;
  std::vector<double> depth_first;  // queue depth, first quarter of sends
  std::vector<double> depth_last;   // queue depth, last quarter of sends
  wm::serve::EngineStats before;
  wm::serve::EngineStats after;
  wm::obs::HistogramSnapshot parse;  // server histograms over the phase
  wm::obs::HistogramSnapshot write;
  std::vector<TimingClassifier::Call> calls;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

wm::obs::HistogramSnapshot delta(const wm::obs::HistogramSnapshot& a,
                                 const wm::obs::HistogramSnapshot& b) {
  wm::obs::HistogramSnapshot d = b;
  for (std::size_t i = 0; i < d.buckets.size() && i < a.buckets.size(); ++i) {
    d.buckets[i] -= a.buckets[i];
  }
  d.count -= a.count;
  d.sum -= a.sum;
  return d;
}

wm::obs::Histogram& stage_hist(ServeFixture& f, const char* name) {
  return f.registry.histogram(name, wm::obs::Histogram::latency_bounds_us(),
                              "us");
}

/// Runs one phase: open loop when `schedules` is non-empty (one due-time
/// list per client), else closed loop for `closed_seconds`.
PhaseOutcome run_phase(ServeFixture& f,
                       const std::vector<std::vector<std::int64_t>>& schedules,
                       double closed_seconds, int inflight,
                       std::uint64_t seed) {
  PhaseOutcome out;
  wm::obs::Histogram& parse = stage_hist(f, "wm_stage_server_parse_us");
  wm::obs::Histogram& write = stage_hist(f, "wm_stage_server_write_us");
  const auto parse0 = parse.snapshot();
  const auto write0 = write.snapshot();
  out.before = f.engine.stats();
  if (f.timing) f.timing->take();

  std::vector<std::vector<Req>> per_client(ServeFixture::kClients);
  std::vector<std::vector<double>> depth(ServeFixture::kClients);
  std::vector<std::thread> threads;
  out.start_ns = now_ns();
  for (int c = 0; c < ServeFixture::kClients; ++c) {
    wm::Rng rng(seed * ServeFixture::kClients + static_cast<std::uint64_t>(c));
    auto& reqs = per_client[static_cast<std::size_t>(c)];
    if (!schedules.empty()) {
      for (std::int64_t due : schedules[static_cast<std::size_t>(c)]) {
        Req r;
        r.due_ns = due;
        r.idx = static_cast<std::uint32_t>(
            rng.uniform_int(0, static_cast<int>(f.pool.size()) - 1));
        reqs.push_back(r);
      }
    }
    threads.emplace_back([&, c, rng] {
      auto& client = *f.clients[static_cast<std::size_t>(c)];
      auto& mine = per_client[static_cast<std::size_t>(c)];
      if (schedules.empty()) {
        closed_loop(client, f.pool, inflight,
                    out.start_ns + static_cast<std::int64_t>(closed_seconds * 1e9),
                    rng, mine);
      } else {
        open_loop(client, f.pool, mine, f.engine,
                  depth[static_cast<std::size_t>(c)]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  out.end_ns = now_ns();

  out.after = f.engine.stats();
  out.parse = delta(parse0, parse.snapshot());
  out.write = delta(write0, write.snapshot());
  if (f.timing) out.calls = f.timing->take();
  for (int c = 0; c < ServeFixture::kClients; ++c) {
    const auto& d = depth[static_cast<std::size_t>(c)];
    const std::size_t q = d.size() / 4;
    out.depth_first.insert(out.depth_first.end(), d.begin(), d.begin() + q);
    out.depth_last.insert(out.depth_last.end(), d.end() - q, d.end());
    for (Req& r : per_client[static_cast<std::size_t>(c)]) {
      out.late_ms.push_back((r.send_ns - r.due_ns) * 1e-6);
      out.reqs.push_back(std::move(r));
    }
  }
  return out;
}

/// Due times of `n` requests split round-robin over the clients, starting
/// shortly after now. Poisson (seeded exponential gaps) or fixed-interval.
std::vector<std::vector<std::int64_t>> schedule(int n, double rate,
                                                bool poisson,
                                                std::uint64_t seed) {
  std::vector<std::vector<std::int64_t>> out(ServeFixture::kClients);
  wm::Rng rng(seed);
  const std::int64_t t0 = now_ns() + 20'000'000;  // let the threads start
  double t = 0.0;
  for (int i = 0; i < n; ++i) {
    t += poisson ? -std::log(1.0 - rng.uniform()) / rate : 1.0 / rate;
    out[static_cast<std::size_t>(i % ServeFixture::kClients)].push_back(
        t0 + static_cast<std::int64_t>(t * 1e9));
  }
  return out;
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/// Checks every answer of a phase; returns per-request latency from the
/// due time in ms (+inf for failed requests).
std::vector<double> check_answers(const ServeFixture& f, const PhaseOutcome& p,
                                  const std::string& phase, Tally& tally) {
  std::vector<double> lat;
  lat.reserve(p.reqs.size());
  std::uint64_t bad = 0;
  std::string first_error;
  for (const Req& r : p.reqs) {
    const bool ok = r.result.ok() && same_bits(r.result.prediction,
                                               f.expected[r.idx]);
    if (!ok) {
      ++bad;
      if (first_error.empty()) {
        first_error = phase + ": request for pool wafer " +
                      std::to_string(r.idx) +
                      (r.result.ok() ? " answered differently from predict_batch"
                                     : std::string(" failed with status ") +
                                           wm::net::to_string(r.result.status));
      }
    }
    lat.push_back(ok ? (r.done_ns - r.due_ns) * 1e-6 : inf());
  }
  tally.add(p.reqs.size(), bad, first_error);
  return lat;
}

void set_percentile(MetricSet& m, std::vector<std::string>& invalid,
                    const std::string& name, const std::vector<double>& v,
                    double q, const std::string& unit) {
  const auto x = percentile(v, q);
  if (!x) {
    invalid.push_back(name + ": fewer than ten samples beyond the percentile (" +
                      std::to_string(v.size()) + " samples)");
  } else if (*x <= 0.0) {
    // Stage waits are whole microseconds; a wait that reads 0 at this
    // percentile (an overloaded phase whose batches fill at once) has no
    // figure to report.
    invalid.push_back(name + ": reads 0 at this percentile (" +
                      std::to_string(v.size()) + " samples)");
  } else {
    m.set(name, *x, unit, v.size());
  }
}

/// Per-layer metrics of one phase (traced run).
void layer_metrics(const PhaseOutcome& p, const std::string& phase,
                   MetricSet& m, std::vector<std::string>& invalid) {
  std::vector<double> queue, batch, compute, rtt, wire;
  for (const Req& r : p.reqs) {
    if (!r.result.ok()) continue;
    const auto& st = r.result.server;
    queue.push_back(st.queue_us);
    batch.push_back(st.batch_us);
    compute.push_back(st.compute_us);
    const double rtt_us = (r.done_ns - r.send_ns) * 1e-3;
    rtt.push_back(rtt_us);
    wire.push_back(rtt_us - st.total_us);
  }
  const std::string s = "serve." + phase + ".";
  set_percentile(m, invalid, s + "queue_wait_us.p50", queue, 0.5, "us");
  set_percentile(m, invalid, s + "queue_wait_us.p99", queue, 0.99, "us");

  set_percentile(m, invalid, s + "compute_us.p50", compute, 0.5, "us");
  set_percentile(m, invalid, s + "compute_us.p99", compute, 0.99, "us");
  // At peak every batch is full and waits for nothing, so the batch wait
  // and size are reported for the open-loop phases only.
  if (phase != "peak") {
    set_percentile(m, invalid, s + "batch_wait_us.p50", batch, 0.5, "us");
    std::uint64_t served = 0;
    for (const auto& c : p.calls) served += c.size;
    m.set(s + "batch_size_mean",
          static_cast<double>(served) / static_cast<double>(p.calls.size()),
          "wafers", p.calls.size());
  }
  const std::string n = "net." + phase + ".";
  set_percentile(m, invalid, n + "client_rtt_us.p50", rtt, 0.5, "us");
  set_percentile(m, invalid, n + "wire_us.p50", wire, 0.5, "us");
  set_percentile(m, invalid, n + "wire_us.p99", wire, 0.99, "us");
  // Means: the server's stage histograms have buckets far wider than
  // these stages, so their quantiles read a bucket bound.
  m.set(n + "server_parse_us.mean", p.parse.mean(), "us", p.parse.count);
  m.set(n + "server_write_us.mean", p.write.mean(), "us", p.write.count);
}

void record_spans(const PhaseOutcome& p, const std::string& phase,
                  SpanRecorder& rec, std::uint64_t& next_request) {
  const std::int64_t root = rec.add("serve." + phase, p.start_ns, p.end_ns);
  for (const Req& r : p.reqs) {
    const std::uint64_t id = next_request++;
    const std::int64_t span =
        rec.add("client.request", r.due_ns, r.done_ns, root, id);
    if (r.send_ns > r.due_ns) rec.add("gen.late", r.due_ns, r.send_ns, span, id);
  }
  for (const auto& c : p.calls) {
    rec.add("engine.predict_batch", c.start_ns, c.end_ns, root);
  }
}

}  // namespace

std::vector<SelectivePrediction> TimingClassifier::predict_batch(
    std::span<const WaferMap> maps) const {
  Call call{now_ns(), 0, maps.size()};
  auto out = inner_->predict_batch(maps);
  call.end_ns = now_ns();
  const std::lock_guard<std::mutex> lock(mutex_);
  calls_.push_back(call);
  return out;
}

std::vector<TimingClassifier::Call> TimingClassifier::take() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Call> out;
  out.swap(calls_);
  return out;
}

namespace {

/// The CPUs the process may use, read once before anything is pinned.
const cpu_set_t& allowed_cpus() {
  static const cpu_set_t allowed = [] {
    cpu_set_t s;
    CPU_ZERO(&s);
    if (sched_getaffinity(0, sizeof(s), &s) != 0) CPU_ZERO(&s);
    return s;
  }();
  return allowed;
}

int last_allowed_cpu() {
  int last = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed_cpus())) last = c;
  }
  return CPU_COUNT(&allowed_cpus()) >= 2 ? last : -1;
}

void pin_calling_thread(const cpu_set_t& s) {
  if (sched_setaffinity(0, sizeof(s), &s) != 0) {
    throw std::runtime_error("sched_setaffinity failed");
  }
}

}  // namespace

CpuSplit::CpuSplit() {
  const int last = last_allowed_cpu();
  if (last < 0) return;
  cpu_set_t stack = allowed_cpus();
  CPU_CLR(last, &stack);
  pin_calling_thread(stack);
}

void CpuSplit::pin_clients() const {
  const int last = last_allowed_cpu();
  if (last < 0) return;
  cpu_set_t clients;
  CPU_ZERO(&clients);
  CPU_SET(last, &clients);
  pin_calling_thread(clients);
}

ServeFixture::ServeFixture(std::shared_ptr<const wm::Classifier> served,
                           const wm::Classifier& reference,
                           std::vector<WaferMap> pool_maps, bool traced)
    : pool(std::move(pool_maps)),
      expected(direct_answers(reference, pool)),
      timing(make_timing(served, traced)),
      monitor({.num_classes = reference.num_classes(), .registry = &registry}),
      tap(1024),
      swappable(timing ? timing : served, {.registry = &registry}),
      engine(swappable, [&] {
        wm::serve::EngineOptions o =
            wm::serve::ServerConfig{}.engine_options(&registry, &monitor);
        o.sample_tap = &tap;
        return o;
      }()),
      server(engine, wm::serve::ServerConfig{}.server_options(&registry)) {
  cpus.pin_clients();
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<wm::net::Client>(wm::net::ClientOptions{
        .port = server.port(), .name = "bench" + std::to_string(c)}));
    // Connect now (the first call connects) so set-up pays for it.
    const CallResult r = clients.back()->predict(pool.front());
    if (!r.ok() || !same_bits(r.prediction, expected.front())) {
      throw std::runtime_error("serving stack failed its first request");
    }
  }
}

ServePhases serve_phases(double seconds) {
  if (seconds == 0.0) {
    return {.low_wps = kLowWps,
            .low_requests = kTracedLowRequests,
            .high_wps = kHighWps,
            .high_requests = kTracedHighRequests,
            .peak_seconds = kTracedPeakSeconds,
            .peak_inflight_per_client = kPeakInflightPerClient};
  }
  return {.idle_seconds = seconds / 2,
          .peak_seconds = seconds / 2,
          .peak_inflight_per_client = kPeakInflightPerClient};
}

PartResult run_serve(ServeFixture& f, const ServePhases& phases,
                     std::uint64_t seed, SpanRecorder& rec,
                     std::vector<std::string>& invalid) {
  PartResult r;
  std::uint64_t next_request = 1;
  const auto open_phase = [&](const std::string& phase, int n, double rate,
                              bool poisson) {
    const std::uint64_t phase_seed = seed * 4 + (poisson ? 1 : 2);
    const PhaseOutcome p = run_phase(f, schedule(n, rate, poisson, phase_seed),
                                     0.0, 0, phase_seed);
    const std::vector<double> lat = check_answers(f, p, phase, r.tally);
    const auto late_p99 = percentile(p.late_ms, 0.99);
    const double late = late_p99 ? *late_p99
                                 : *std::max_element(p.late_ms.begin(),
                                                     p.late_ms.end());
    if (late > kMaxLateMs) {
      invalid.push_back(phase + ": generator fell behind (p99 lateness " +
                        std::to_string(late) + " ms)");
    }
    if (mean(p.depth_last) > mean(p.depth_first) + kQueueGrowth) {
      invalid.push_back(phase + ": engine queue grew over the phase (" +
                        std::to_string(mean(p.depth_first)) + " -> " +
                        std::to_string(mean(p.depth_last)) + ")");
    }
    std::printf("serve %-4s: %zu requests at %.0f/s, late p99 %.3f ms, "
                "queue %.1f -> %.1f, mean batch %.2f\n",
                phase.c_str(), p.reqs.size(), rate, late, mean(p.depth_first),
                mean(p.depth_last),
                (p.after.batches - p.before.batches)
                    ? double(p.after.requests - p.before.requests) /
                          double(p.after.batches - p.before.batches)
                    : 0.0);
    if (rec.enabled()) {
      layer_metrics(p, phase, r.metrics, invalid);
      set_percentile(r.metrics, invalid, "serve." + phase + ".latency_p50_ms",
                     lat, 0.5, "ms");
      set_percentile(r.metrics, invalid, "serve." + phase + ".latency_p99_ms",
                     lat, 0.99, "ms");
      r.metrics.set("gen." + phase + ".late_ms.p99", late, "ms", p.late_ms.size());
      record_spans(p, phase, rec, next_request);
    }
  };
  // A short untimed closed-loop burst wakes every core and warms the stack.
  check_answers(f, run_phase(f, {}, kWarmupSeconds, 8, seed * 4), "warm-up",
                r.tally);
  if (phases.idle_seconds > 0) {
    const PhaseOutcome p =
        run_phase(f, {}, phases.idle_seconds, 1, seed * 4 + 1);
    const std::vector<double> lat = check_answers(f, p, "idle", r.tally);
    std::printf("serve idle: %zu requests\n", p.reqs.size());
    // A vCPU stall only adds time, so the lower tail is where the program's
    // own latency shows through: over six processes at 6-10% steal the p10
    // stayed within 4.44-4.59 ms while the median ranged 5.1-7.2 ms.
    set_percentile(r.metrics, invalid, "latency_ms", lat, 0.1, "ms");
  }
  if (phases.low_requests > 0) {
    open_phase("low", phases.low_requests, phases.low_wps, true);
  }
  if (phases.high_requests > 0) {
    open_phase("high", phases.high_requests, phases.high_wps, false);
  }

  const PhaseOutcome p = run_phase(f, {}, phases.peak_seconds,
                                   phases.peak_inflight_per_client, seed * 4 + 3);
  check_answers(f, p, "peak", r.tally);
  // Closed-loop throughput: the answers completed after the ramp-up and
  // before the send deadline, in blocks of kPeakBlock; each block's
  // completions per second, median over blocks.
  const std::int64_t ramp_end =
      p.start_ns + static_cast<std::int64_t>(kPeakRampSeconds * 1e9);
  const std::int64_t send_end =
      p.start_ns + static_cast<std::int64_t>(phases.peak_seconds * 1e9);
  std::vector<std::int64_t> done;
  for (const Req& q : p.reqs) {
    if (q.result.ok() && q.done_ns >= ramp_end && q.done_ns < send_end) {
      done.push_back(q.done_ns);
    }
  }
  std::sort(done.begin(), done.end());
  std::vector<double> wps;
  for (std::size_t k = 0; k + kPeakBlock < done.size(); k += kPeakBlock) {
    wps.push_back(kPeakBlock / ((done[k + kPeakBlock] - done[k]) * 1e-9));
  }
  const double peak = median(wps);
  std::printf("serve peak: %zu requests, %.1f wafers/s (median of %zu "
              "blocks)\n", p.reqs.size(), peak, wps.size());
  if (wps.empty()) {
    invalid.push_back("peak: fewer than " + std::to_string(kPeakBlock + 1) +
                      " answers after the ramp-up");
  }
  r.headline = peak;
  const char* name = rec.enabled() ? "serve.peak.wps" : "wps";
  if (!wps.empty()) r.metrics.set(name, peak, "wafers/s", wps.size());
  if (rec.enabled()) {
    layer_metrics(p, "peak", r.metrics, invalid);
    record_spans(p, "peak", rec, next_request);
  }
  return r;
}

}  // namespace wmbench
