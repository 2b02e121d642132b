// serve_open: loopback TCP traffic against the stack `wm_tool serve`
// builds — SwappableClassifier -> InferenceEngine (default options, with a
// SelectiveMonitor and an adapt::SampleBuffer sample tap) -> net::Server
// (default workers) — driven by two pipelined net::Client connections, one
// wafer per request, in these phases:
//
//   idle  closed loop, one request in flight per client (timed runs only)
//   low   open loop, seeded Poisson arrivals at a low fixed rate
//   high  open loop, fixed-interval arrivals at about half the peak
//   peak  closed loop, a fixed number of requests in flight per client
//
// Timed runs measure idle and peak; the open-loop phases feed the traced
// run's per-layer metrics. On a shared host open-loop latency mostly
// measures the hypervisor: a vCPU stall of a few milliseconds delays every
// request due during it, and the low phase's median rose from 4.6 to 12 ms
// as steal rose from 1% to 5%, while a closed loop loses one request's
// time per stall.
//
// Open-loop latency runs from each request's scheduled send time, so a
// stall also charges the requests queued behind it.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "adapt/sample_buffer.hpp"
#include "core.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "parts.hpp"
#include "serve/hot_swap.hpp"
#include "serve/inference_engine.hpp"
#include "serve/monitor.hpp"

namespace wmbench {

/// Benchmark-owned decorator the traced run puts between the hot-swap
/// wrapper and the model: records every predict_batch call's interval and
/// batch size, and adds nothing else.
class TimingClassifier final : public wm::Classifier {
 public:
  struct Call {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::size_t size = 0;
  };
  explicit TimingClassifier(std::shared_ptr<const wm::Classifier> inner)
      : inner_(std::move(inner)) {}
  std::vector<wm::SelectivePrediction> predict_batch(
      std::span<const wm::WaferMap> maps) const override;
  int num_classes() const override { return inner_->num_classes(); }
  /// Returns and forgets the calls recorded so far.
  std::vector<Call> take() const;

 private:
  std::shared_ptr<const wm::Classifier> inner_;
  mutable std::mutex mutex_;
  mutable std::vector<Call> calls_;
};

/// Keeps the benchmark's load generator off the serving stack's CPUs.
/// Constructing one pins the calling thread to every CPU the process may
/// use but the last, so the engine and server threads it then starts
/// inherit those; pin_clients() pins the calling thread to the last CPU,
/// which the client connections and the traffic threads then inherit. With
/// fewer than two CPUs it does nothing. On 4 shared vCPUs, with the client
/// threads free to run beside the engine's compute thread, the closed-loop
/// peak of one process ranged from 890 to 1480 wafers/s.
class CpuSplit {
 public:
  CpuSplit();
  void pin_clients() const;
};

/// The serving stack, its clients, the request pool and the pool's direct
/// predict_batch answers (what every served answer must bit-equal).
class ServeFixture {
 public:
  static constexpr int kClients = 2;

  /// Serves `served` (wrapped in a TimingClassifier when `traced`); the
  /// expected answers come from `reference.predict_batch(pool)`.
  ServeFixture(std::shared_ptr<const wm::Classifier> served,
               const wm::Classifier& reference,
               std::vector<wm::WaferMap> pool, bool traced);
  ServeFixture(const ServeFixture&) = delete;
  ServeFixture& operator=(const ServeFixture&) = delete;

  const CpuSplit cpus;  // declared first: pins before any stack thread starts
  const std::vector<wm::WaferMap> pool;
  const std::vector<wm::SelectivePrediction> expected;
  const std::shared_ptr<const TimingClassifier> timing;  // traced only

  // Destroyed in reverse: clients close, the server drains and stops, then
  // the engine drains — the shutdown order wm_tool serve uses.
  wm::obs::Registry registry;
  wm::serve::SelectiveMonitor monitor;
  wm::adapt::SampleBuffer tap;
  wm::serve::SwappableClassifier swappable;
  wm::serve::InferenceEngine engine;
  wm::net::Server server;
  std::vector<std::unique_ptr<wm::net::Client>> clients;
};

struct ServePhases {
  double idle_seconds = 0;  // closed loop, one request in flight per client
  double low_wps = 0;   // Poisson open loop
  int low_requests = 0;  // 0 = no low phase
  double high_wps = 0;  // fixed-interval open loop
  int high_requests = 0;  // 0 = no high phase
  double peak_seconds = 0;  // closed loop
  int peak_inflight_per_client = 0;
};

/// The phases at their fixed rates. `seconds` > 0 is split between idle and
/// peak; 0 gives the fixed lengths of the traced run: low, high and peak.
ServePhases serve_phases(double seconds);

/// Runs the phases against the fixture. Untraced, it reports `latency_ms`
/// (idle phase, p10 from send to reply) and `wps` (peak); traced, the
/// per-layer metrics of every phase. Invalid phases (generator behind
/// schedule, engine queue growing) and unreportable percentiles are listed
/// in `invalid`.
PartResult run_serve(ServeFixture& fixture, const ServePhases& phases,
                     std::uint64_t seed, SpanRecorder& rec,
                     std::vector<std::string>& invalid);

}  // namespace wmbench
