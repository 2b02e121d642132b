// loadgen — load-generator harness for the wm_net remote serving stack.
//
// Self-contained by default: builds a small selective CNN, wraps it in a
// serve::InferenceEngine and a net::Server on loopback inside this process,
// then drives the server over real TCP with net::Clients. Three runs:
//
//   engine        in-process closed-loop baseline — the same offered
//                 concurrency hammers InferenceEngine::predict directly
//                 (no sockets), giving the ceiling the wire can be
//                 compared against;
//   remote-closed closed loop over TCP: C connections, each keeping a
//                 pipelined window of W async calls in flight;
//   remote-open   open loop over TCP at a target aggregate rate
//                 (--qps, skipped when 0): sends are scheduled on a fixed
//                 cadence regardless of responses, so queueing delay shows
//                 up in the latency tail instead of silently throttling
//                 the generator (no coordinated omission).
//
// The headline metric is remote_vs_engine_ratio: remote closed-loop
// throughput over the in-process baseline at identical concurrency.
// tools/run_benchmarks.sh captures `loadgen --json` as BENCH_net.json and
// tools/bench_compare.py gates that ratio against the checked-in baseline.
//
// Fleet mode (--fleet M) additionally stands up M full serving replicas
// in-process (each: own registry, hot-swap wrapper, micro-batching engine,
// TCP server, /healthz exporter) and drives them through net::Router:
//
//   fleet-single  router over replica 0 only, per-replica closed-loop
//                 concurrency (--fleet-window in-flight calls);
//   fleet-closed  router over all M replicas at M x that concurrency —
//                 the horizontal-capacity measurement;
//   fleet-collected  the identical fleet closed loop again, now with an
//                 obs::Collector scraping every replica's exporter each
//                 --collector-interval-ms and running the SLO burn-rate
//                 rules over the merged view. Its throughput over the
//                 uncollected fleet-closed run is the
//                 collector_overhead_ratio headline (gated >= 0.98: the
//                 whole observability plane must cost <= ~2%).
//
// The replicas run delay-bound (--fleet-delay-us micro-batch flush, large
// relative to compute), so a single replica's throughput is capped by the
// batching window, not the CPU — which is what makes the fleet headline
// fleet_vs_single_ratio an honest horizontal-scaling number (~M on a
// healthy fleet) even on a small machine, at comparable p99. Chaos flags
// exercise the failover story mid-run, during the *collected* run so the
// collector sees it too: --kill-replica takes the last replica down at 1/3
// progress — wire port, exporter and all, so the collector's `up` flips —
// and restarts it at 2/3 (the router ejects, fails over, re-admits it via
// /healthz; the collector re-marks it up); --swap-mid-run hot-swaps every
// replica from fp32 to the int8 quantized model at 1/2 progress with
// canary verification. Per-replica latency percentiles and eject/rejoin
// counts land in the JSON report as "fleet_replicas".
//
// Flags:
//   --connections N   client connections               (default 4)
//   --window W        in-flight calls per connection   (default 8)
//   --requests N      total requests per run           (default 2000)
//   --qps Q           open-loop aggregate target rate  (default 0 = skip)
//   --map S           wafer edge length                (default 32)
//   --workers K       server worker threads            (default 2)
//   --host H --port P drive an external wm_net server instead of the
//                     in-process one (baseline + ratio are skipped)
//   --fleet M         also run the M-replica router benchmark (0 = skip)
//   --fleet-window W  in-flight calls per replica       (default 2)
//   --fleet-delay-us U  replica micro-batch flush delay (default 12000)
//   --kill-replica    kill + restart a replica mid-run (fleet mode)
//   --swap-mid-run    hot-swap fp32 -> int8 mid-run    (fleet mode)
//   --collector-port P        the collector's own exporter port for the
//                             fleet-collected run (/fleet, /dashboard,
//                             /metrics; default 0 = ephemeral)
//   --collector-interval-ms M scrape + SLO tick interval (default 100)
//   --slo-p99-us U    override the latency SLO threshold (default 0 keeps
//                     SloEngine::default_rules(); a tiny value like 1
//                     provokes a burn-rate alarm under any traffic — CI
//                     uses it to assert the slo_burn/slo_clear run-log
//                     events fire end-to-end)
//   --trace-sample N  trace every Nth request in the remote-traced run
//                     (default 16; the run itself always happens against
//                     the in-process stack — its throughput over the
//                     untraced closed loop is the tracing_overhead_ratio
//                     headline)
//   --trace-out FILE  write this process's Perfetto trace JSON after the
//                     traced run (merge with server-side traces via
//                     `wm_tool trace-merge`)
//   --slow-log FILE   JSONL exemplar log of the top-10 slowest requests
//                     (trace id, per-stage breakdown, selective decision)
//   --out-dir DIR     prefix for every relative file artifact above
//                     (--trace-out, --slow-log); absolute paths win
//   --json            machine-readable report on stdout
//
// Every response carries the server's StageTiming (WMWP v2), so the
// per-stage latency table (queue / batch / compute / server total) is
// attributed from ALL closed-loop requests, sampled or not.
//
// Env: WM_BENCH_SCALE scales --requests like the other benches.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/env.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "net/client.hpp"
#include "net/router.hpp"
#include "net/server.hpp"
#include "obs/collector.hpp"
#include "obs/http_exporter.hpp"
#include "obs/metrics.hpp"
#include "obs/run_log.hpp"
#include "obs/trace.hpp"
#include "obs/trace_context.hpp"
#include "selective/load_classifier.hpp"
#include "selective/quant_net.hpp"
#include "selective/selective_net.hpp"
#include "serve/hot_swap.hpp"
#include "serve/inference_engine.hpp"
#include "wafermap/synth/generator.hpp"

using namespace wm;

namespace {

using Clock = std::chrono::steady_clock;

struct RunResult {
  std::string mode;  // "engine" | "remote-closed" | "remote-open"
  int connections = 0;
  int window = 0;
  double target_qps = 0.0;  // open loop only
  std::size_t requests = 0;
  std::size_t ok = 0;
  std::size_t shed = 0;      // OVERLOADED responses
  std::size_t timeout = 0;   // TIMEOUT responses
  std::size_t errors = 0;    // everything else non-OK
  double wall_s = 0.0;
  double throughput_rps = 0.0;
  /// Open loop only: the send rate actually achieved over the send window.
  /// Falls below target_qps when the generator cannot keep its cadence
  /// (oversubscribed machine) — reported so a too-slow generator is visible
  /// instead of silently weakening the offered load.
  double achieved_qps = 0.0;
  std::int64_t p50_us = 0;
  std::int64_t p95_us = 0;
  std::int64_t p99_us = 0;
};

/// Mean per-stage latency attribution across OK responses (StageTiming is
/// carried on every WMWP v2 response).
struct StageAgg {
  std::uint64_t n = 0;
  std::uint64_t queue_us = 0;
  std::uint64_t batch_us = 0;
  std::uint64_t compute_us = 0;
  std::uint64_t total_us = 0;

  void add(const net::StageTiming& t) {
    ++n;
    queue_us += t.queue_us;
    batch_us += t.batch_us;
    compute_us += t.compute_us;
    total_us += t.total_us;
  }
  void merge(const StageAgg& o) {
    n += o.n;
    queue_us += o.queue_us;
    batch_us += o.batch_us;
    compute_us += o.compute_us;
    total_us += o.total_us;
  }
  double mean(std::uint64_t sum) const {
    return n == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(n);
  }
};

/// Slow-request exemplar candidate (kept per call, top-k written to the
/// --slow-log JSONL).
struct CallRecord {
  std::int64_t e2e_us = 0;
  std::uint64_t trace_id = 0;
  net::Status status = net::Status::kOk;
  net::StageTiming stage{};
  float g = 0.0f;
  bool selected = false;
  int label = -1;
};

std::vector<WaferMap> make_stream(int map_size, int n) {
  Rng rng(2026);
  synth::DatasetSpec spec;
  spec.map_size = map_size;
  spec.class_counts.fill((n + kNumDefectTypes - 1) / kNumDefectTypes);
  Dataset data = synth::generate_dataset(spec, rng);
  data.shuffle(rng);
  std::vector<WaferMap> maps;
  for (std::size_t i = 0; i < data.size() && maps.size() < std::size_t(n); ++i)
    maps.push_back(data[i].map);
  return maps;
}

std::int64_t percentile(std::vector<std::int64_t>& sorted_us, double q) {
  if (sorted_us.empty()) return 0;
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted_us.size() - 1) + 0.5);
  return sorted_us[std::min(idx, sorted_us.size() - 1)];
}

void finish(RunResult& r, std::vector<std::int64_t>& latencies) {
  std::sort(latencies.begin(), latencies.end());
  r.p50_us = percentile(latencies, 0.50);
  r.p95_us = percentile(latencies, 0.95);
  r.p99_us = percentile(latencies, 0.99);
  r.throughput_rps = r.wall_s > 0 ? static_cast<double>(r.requests) / r.wall_s
                                  : 0.0;
}

void count_status(RunResult& r, net::Status s) {
  switch (s) {
    case net::Status::kOk: ++r.ok; break;
    case net::Status::kOverloaded: ++r.shed; break;
    case net::Status::kTimeout: ++r.timeout; break;
    default: ++r.errors; break;
  }
}

/// In-process ceiling: connections*window threads issue blocking
/// engine.predict calls — same concurrency as the remote closed loop, no
/// sockets or framing in the path.
RunResult run_engine(serve::InferenceEngine& engine,
                     const std::vector<WaferMap>& stream, int connections,
                     int window, std::size_t total) {
  RunResult r;
  r.mode = "engine";
  r.connections = connections;
  r.window = window;
  const int threads = connections * window;
  const std::size_t per_thread = total / static_cast<std::size_t>(threads);
  r.requests = per_thread * static_cast<std::size_t>(threads);

  std::vector<std::vector<std::int64_t>> lat(
      static_cast<std::size_t>(threads));
  Stopwatch watch;
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t i = 0; i < per_thread; ++i) {
        const auto& map =
            stream[(static_cast<std::size_t>(t) * per_thread + i) %
                   stream.size()];
        const Clock::time_point sent = Clock::now();
        (void)engine.predict(map);
        lat[static_cast<std::size_t>(t)].push_back(
            std::chrono::duration_cast<std::chrono::microseconds>(
                Clock::now() - sent)
                .count());
      }
    });
  }
  for (auto& th : pool) th.join();
  r.wall_s = watch.seconds();
  r.ok = r.requests;

  std::vector<std::int64_t> all;
  for (auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  finish(r, all);
  return r;
}

/// One inflight closed-loop slot: send time + future + the sampled trace id
/// (0 when the call is untraced).
struct InflightCall {
  Clock::time_point sent;
  std::uint64_t trace_id = 0;
  std::future<net::CallResult> future;
};

/// One closed-loop connection: keep `window` async calls in flight, waiting
/// on the oldest when the window is full. trace_sample > 0 sends every Nth
/// call with a fresh sampled TraceContext; every harvested OK response
/// contributes its StageTiming to `stages`, and every call leaves a
/// CallRecord in `records` when that sink is non-null.
void closed_loop_conn(net::Client& client, const std::vector<WaferMap>& stream,
                      std::size_t offset, std::size_t count, int window,
                      int trace_sample, std::vector<std::int64_t>& lat,
                      std::map<net::Status, std::size_t>& statuses,
                      StageAgg& stages, std::vector<CallRecord>* records) {
  std::deque<InflightCall> inflight;
  auto drain_front = [&] {
    InflightCall& call = inflight.front();
    const net::CallResult res = call.future.get();
    const std::int64_t e2e_us =
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                              call.sent)
            .count();
    lat.push_back(e2e_us);
    ++statuses[res.status];
    if (res.status == net::Status::kOk) stages.add(res.server);
    if (records != nullptr) {
      records->push_back(CallRecord{e2e_us, call.trace_id, res.status,
                                    res.server, res.prediction.g,
                                    res.prediction.selected,
                                    res.prediction.label});
    }
    inflight.pop_front();
  };
  auto harvest = [&](bool block) {
    while (!inflight.empty()) {
      if (!block && inflight.front().future.wait_for(std::chrono::seconds(
                        0)) != std::future_status::ready) {
        return;
      }
      drain_front();
    }
  };
  for (std::size_t i = 0; i < count; ++i) {
    if (inflight.size() >= static_cast<std::size_t>(window)) drain_front();
    obs::TraceContext ctx;
    if (trace_sample > 0 && i % static_cast<std::size_t>(trace_sample) == 0) {
      ctx = obs::start_trace();
    }
    InflightCall call;
    call.sent = Clock::now();
    call.trace_id = ctx.trace_id;
    call.future = client.predict_async(stream[(offset + i) % stream.size()],
                                       /*deadline_ms=*/0, ctx);
    inflight.push_back(std::move(call));
    harvest(/*block=*/false);
  }
  harvest(/*block=*/true);
}

RunResult run_remote_closed(const std::string& host, int port,
                            const std::vector<WaferMap>& stream,
                            int connections, int window, std::size_t total,
                            const std::string& mode, int trace_sample,
                            StageAgg* stages_out,
                            std::vector<CallRecord>* records_out) {
  RunResult r;
  r.mode = mode;
  r.connections = connections;
  r.window = window;
  const std::size_t per_conn = total / static_cast<std::size_t>(connections);
  r.requests = per_conn * static_cast<std::size_t>(connections);

  std::vector<std::unique_ptr<net::Client>> clients;
  for (int c = 0; c < connections; ++c) {
    clients.push_back(std::make_unique<net::Client>(
        net::ClientOptions{.host = host, .port = port}));
  }
  std::vector<std::vector<std::int64_t>> lat(
      static_cast<std::size_t>(connections));
  std::vector<std::map<net::Status, std::size_t>> statuses(
      static_cast<std::size_t>(connections));
  std::vector<StageAgg> stages(static_cast<std::size_t>(connections));
  std::vector<std::vector<CallRecord>> records(
      static_cast<std::size_t>(connections));

  Stopwatch watch;
  std::vector<std::thread> pool;
  for (int c = 0; c < connections; ++c) {
    pool.emplace_back([&, c] {
      closed_loop_conn(*clients[static_cast<std::size_t>(c)], stream,
                       static_cast<std::size_t>(c) * per_conn, per_conn,
                       window, trace_sample, lat[static_cast<std::size_t>(c)],
                       statuses[static_cast<std::size_t>(c)],
                       stages[static_cast<std::size_t>(c)],
                       records_out != nullptr
                           ? &records[static_cast<std::size_t>(c)]
                           : nullptr);
    });
  }
  for (auto& th : pool) th.join();
  r.wall_s = watch.seconds();
  for (auto& m : statuses) {
    for (const auto& [status, n] : m) {
      for (std::size_t i = 0; i < n; ++i) count_status(r, status);
    }
  }
  if (stages_out != nullptr) {
    for (const StageAgg& s : stages) stages_out->merge(s);
  }
  if (records_out != nullptr) {
    for (auto& v : records) {
      records_out->insert(records_out->end(), v.begin(), v.end());
    }
  }
  std::vector<std::int64_t> all;
  for (auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  finish(r, all);
  return r;
}

RunResult run_remote_open(const std::string& host, int port,
                          const std::vector<WaferMap>& stream, int connections,
                          double qps, std::size_t total) {
  RunResult r;
  r.mode = "remote-open";
  r.connections = connections;
  r.target_qps = qps;
  const std::size_t per_conn = total / static_cast<std::size_t>(connections);
  r.requests = per_conn * static_cast<std::size_t>(connections);
  const auto interval = std::chrono::nanoseconds(static_cast<std::int64_t>(
      1e9 * static_cast<double>(connections) / qps));

  std::vector<std::unique_ptr<net::Client>> clients;
  for (int c = 0; c < connections; ++c) {
    clients.push_back(std::make_unique<net::Client>(
        net::ClientOptions{.host = host, .port = port}));
  }
  std::vector<std::vector<std::int64_t>> lat(
      static_cast<std::size_t>(connections));
  std::vector<std::map<net::Status, std::size_t>> statuses(
      static_cast<std::size_t>(connections));
  // Per-thread wall time of the send loop (first to last send issued): the
  // achieved send rate exposes a generator that could not hold its cadence.
  std::vector<double> send_window_s(static_cast<std::size_t>(connections),
                                    0.0);

  Stopwatch watch;
  std::vector<std::thread> pool;
  for (int c = 0; c < connections; ++c) {
    pool.emplace_back([&, c] {
      auto& client = *clients[static_cast<std::size_t>(c)];
      auto& l = lat[static_cast<std::size_t>(c)];
      auto& st = statuses[static_cast<std::size_t>(c)];
      std::deque<std::pair<Clock::time_point, std::future<net::CallResult>>>
          inflight;
      const Clock::time_point start = Clock::now();
      Clock::time_point last_send = start;
      for (std::size_t i = 0; i < per_conn; ++i) {
        // Latency is measured from the *scheduled* send time: a late send
        // caused by a backed-up server counts against the server.
        const Clock::time_point scheduled =
            start + interval * static_cast<std::int64_t>(i);
        std::this_thread::sleep_until(scheduled);
        inflight.emplace_back(
            scheduled,
            client.predict_async(
                stream[(static_cast<std::size_t>(c) * per_conn + i) %
                       stream.size()]));
        last_send = Clock::now();
        while (!inflight.empty() &&
               inflight.front().second.wait_for(std::chrono::seconds(0)) ==
                   std::future_status::ready) {
          const net::CallResult res = inflight.front().second.get();
          l.push_back(std::chrono::duration_cast<std::chrono::microseconds>(
                          Clock::now() - inflight.front().first)
                          .count());
          ++st[res.status];
          inflight.pop_front();
        }
      }
      while (!inflight.empty()) {
        const net::CallResult res = inflight.front().second.get();
        l.push_back(std::chrono::duration_cast<std::chrono::microseconds>(
                        Clock::now() - inflight.front().first)
                        .count());
        ++st[res.status];
        inflight.pop_front();
      }
      send_window_s[static_cast<std::size_t>(c)] =
          std::chrono::duration<double>(last_send - start).count();
    });
  }
  for (auto& th : pool) th.join();
  r.wall_s = watch.seconds();
  for (auto& m : statuses) {
    for (const auto& [status, n] : m) {
      for (std::size_t i = 0; i < n; ++i) count_status(r, status);
    }
  }
  // Configured vs achieved: the longest per-thread send window bounds the
  // aggregate rate actually offered.
  const double max_window_s =
      *std::max_element(send_window_s.begin(), send_window_s.end());
  r.achieved_qps = max_window_s > 0.0
                       ? static_cast<double>(r.requests) / max_window_s
                       : 0.0;
  std::vector<std::int64_t> all;
  for (auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  finish(r, all);
  return r;
}

/// One in-process serving replica for fleet mode: its own registry, a
/// hot-swap wrapper, a micro-batching engine, a TCP server, and a /healthz
/// + /metrics exporter. down()/up() model a whole-process crash + restart
/// on the same ports: the exporter dies with the replica (the router's
/// prober and the fleet collector both see a vanished endpoint, eject the
/// replica, and re-admit it after up() rebinds). The registry survives the
/// restart — like a warm-restarted process the counters resume, and a
/// genuine reset is the collector's counter-reset rule's job to absorb.
class FleetReplica {
 public:
  FleetReplica(std::shared_ptr<const Classifier> initial, int max_delay_us)
      : swap_(std::move(initial), {.registry = &registry_}),
        max_delay_us_(max_delay_us) {
    up();
    wire_port_ = server_->port();
    health_port_ = exporter_->port();
  }

  ~FleetReplica() { down(); }

  FleetReplica(const FleetReplica&) = delete;
  FleetReplica& operator=(const FleetReplica&) = delete;

  /// (Re)starts the engine + server + exporter; rebinds the original wire
  /// and health ports after the first call. The SwappableClassifier
  /// survives restarts, so a model promoted while the replica was down
  /// serves as soon as it is back.
  void up() {
    if (serving_.load()) return;
    engine_ = std::make_unique<serve::InferenceEngine>(
        swap_, serve::EngineOptions{.max_batch = 32,
                                    .max_delay_us = max_delay_us_,
                                    .queue_capacity = 256,
                                    .registry = &registry_});
    server_ = std::make_unique<net::Server>(
        *engine_, net::ServerOptions{.port = wire_port_, .workers = 1});
    exporter_ = std::make_unique<obs::HttpExporter>(obs::HttpExporterOptions{
        .port = health_port_,
        .registry = &registry_,
        .healthy = [this] { return serving_.load(); }});
    serving_.store(true);
  }

  /// Kills the replica: connections drop, in-flight calls fail over at the
  /// router, the health/metrics exporter vanishes (the collector marks the
  /// target down).
  void down() {
    serving_.store(false);
    if (server_ != nullptr) {
      server_->stop();
      server_.reset();
    }
    if (engine_ != nullptr) {
      engine_->shutdown();
      engine_.reset();
    }
    exporter_.reset();
  }

  void swap_model(std::shared_ptr<const Classifier> candidate,
                  std::span<const WaferMap> canaries,
                  const std::string& label) {
    (void)swap_.swap_to(std::move(candidate), canaries, label);
  }

  int wire_port() const { return wire_port_; }
  int health_port() const { return health_port_; }
  std::uint64_t model_version() const { return swap_.version(); }
  std::uint64_t model_swaps() const { return swap_.swaps(); }

 private:
  obs::Registry registry_;
  serve::SwappableClassifier swap_;
  int max_delay_us_;
  int wire_port_ = 0;    // 0 only before the first up()
  int health_port_ = 0;  // likewise
  std::atomic<bool> serving_{false};
  std::unique_ptr<serve::InferenceEngine> engine_;
  std::unique_ptr<net::Server> server_;
  std::unique_ptr<obs::HttpExporter> exporter_;
};

/// Mid-run chaos for the fleet-closed run, keyed off completed-request
/// progress: kill the last replica at 1/3, hot-swap every replica's model at
/// 1/2, restart the killed replica at 2/3.
struct FleetChaos {
  std::vector<std::unique_ptr<FleetReplica>>* replicas = nullptr;
  bool kill_replica = false;
  bool swap_mid_run = false;
  std::shared_ptr<const Classifier> candidate;  // int8 promotion target
  std::vector<WaferMap> canaries;
};

/// Closed loop through the router: `threads` drivers, each keeping `window`
/// async calls in flight — the fleet analogue of closed_loop_conn.
RunResult run_fleet(net::Router& router, const std::vector<WaferMap>& stream,
                    int threads, int window, std::size_t total,
                    const std::string& mode, FleetChaos* chaos) {
  RunResult r;
  r.mode = mode;
  r.connections = threads;
  r.window = window;
  const std::size_t per_thread = total / static_cast<std::size_t>(threads);
  r.requests = per_thread * static_cast<std::size_t>(threads);

  std::vector<std::vector<std::int64_t>> lat(static_cast<std::size_t>(threads));
  std::vector<std::map<net::Status, std::size_t>> statuses(
      static_cast<std::size_t>(threads));
  std::atomic<std::size_t> done{0};

  Stopwatch watch;
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      auto& l = lat[static_cast<std::size_t>(t)];
      auto& st = statuses[static_cast<std::size_t>(t)];
      std::deque<std::pair<Clock::time_point, std::future<net::CallResult>>>
          inflight;
      auto drain_front = [&] {
        auto& [sent, fut] = inflight.front();
        const net::CallResult res = fut.get();
        l.push_back(std::chrono::duration_cast<std::chrono::microseconds>(
                        Clock::now() - sent)
                        .count());
        ++st[res.status];
        inflight.pop_front();
        done.fetch_add(1, std::memory_order_relaxed);
      };
      for (std::size_t i = 0; i < per_thread; ++i) {
        if (inflight.size() >= static_cast<std::size_t>(window)) drain_front();
        inflight.emplace_back(
            Clock::now(),
            router.predict_async(
                stream[(static_cast<std::size_t>(t) * per_thread + i) %
                       stream.size()]));
        while (!inflight.empty() &&
               inflight.front().second.wait_for(std::chrono::seconds(0)) ==
                   std::future_status::ready) {
          drain_front();
        }
      }
      while (!inflight.empty()) drain_front();
    });
  }

  std::thread chaos_thread;
  if (chaos != nullptr && (chaos->kill_replica || chaos->swap_mid_run)) {
    chaos_thread = std::thread([&, chaos] {
      const std::size_t kill_at = r.requests / 3;
      const std::size_t swap_at = r.requests / 2;
      const std::size_t restart_at = 2 * r.requests / 3;
      bool killed = false, swapped = false, restarted = false;
      auto& replicas = *chaos->replicas;
      while (done.load() < r.requests) {
        const std::size_t d = done.load();
        if (chaos->kill_replica && !killed && d >= kill_at) {
          replicas.back()->down();
          killed = true;
        }
        if (chaos->swap_mid_run && !swapped && d >= swap_at) {
          for (auto& rep : replicas) {
            try {
              rep->swap_model(chaos->candidate, chaos->canaries, "int8");
            } catch (const std::exception& e) {
              std::fprintf(stderr, "loadgen: mid-run swap failed: %s\n",
                           e.what());
            }
          }
          swapped = true;
        }
        if (chaos->kill_replica && !restarted && d >= restart_at) {
          replicas.back()->up();
          restarted = true;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      // A fast run can drain before the restart threshold fires: never leave
      // the fleet with a dead replica (the next run would inherit it).
      if (killed && !restarted) replicas.back()->up();
    });
  }

  for (auto& th : pool) th.join();
  r.wall_s = watch.seconds();
  if (chaos_thread.joinable()) chaos_thread.join();

  for (auto& m : statuses) {
    for (const auto& [status, n] : m) {
      for (std::size_t i = 0; i < n; ++i) count_status(r, status);
    }
  }
  std::vector<std::int64_t> all;
  for (auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  finish(r, all);
  return r;
}

/// Fleet headline block for the JSON report.
struct FleetReport {
  int fleet = 0;
  double single_rps = 0.0;
  double closed_rps = 0.0;
  double ratio = 0.0;  // closed_rps / single_rps
  double collected_rps = 0.0;
  double collector_overhead_ratio = 0.0;  // collected_rps / closed_rps
  std::uint64_t collector_rounds = 0;
  int collector_targets_up = 0;  // at the end of the collected run
  /// Sum of per-target up<->down edges (first successful scrape counts as
  /// one): M on a quiet fleet, M + 2 after one kill + revive.
  std::uint64_t collector_up_transitions = 0;
  std::uint64_t slo_fires = 0;
  std::uint64_t slo_clears = 0;
  bool kill_replica = false;
  bool swap_mid_run = false;
  std::uint64_t retries = 0;
  std::uint64_t no_replica = 0;
  std::uint64_t model_swaps = 0;  // sum over replicas
  std::vector<net::Router::ReplicaStats> replicas;
};

void print_row(const RunResult& r) {
  std::printf("%-13s c=%-2d w=%-2d %6zu req  %6.2f s  %8.1f req/s  "
              "ok %zu shed %zu timeout %zu err %zu  p50/p95/p99 "
              "%lld/%lld/%lld us\n",
              r.mode.c_str(), r.connections, r.window, r.requests, r.wall_s,
              r.throughput_rps, r.ok, r.shed, r.timeout, r.errors,
              static_cast<long long>(r.p50_us),
              static_cast<long long>(r.p95_us),
              static_cast<long long>(r.p99_us));
  if (r.target_qps > 0.0) {
    std::printf("              open loop: target %.0f qps, achieved %.0f "
                "qps\n",
                r.target_qps, r.achieved_qps);
  }
}

/// Writes the top-10 slowest calls as "slow_request" JSONL events: the
/// per-stage breakdown plus the selective decision, keyed by trace id (hex;
/// "0x0" for unsampled calls) so an operator can jump from an exemplar to
/// the merged Perfetto trace.
void write_slow_log(const std::string& path, std::vector<CallRecord> records) {
  constexpr std::size_t kTopK = 10;
  std::sort(records.begin(), records.end(),
            [](const CallRecord& a, const CallRecord& b) {
              return a.e2e_us > b.e2e_us;
            });
  if (records.size() > kTopK) records.resize(kTopK);
  obs::RunLog log(path);
  for (const CallRecord& rec : records) {
    char id_hex[24];
    std::snprintf(id_hex, sizeof(id_hex), "0x%llx",
                  static_cast<unsigned long long>(rec.trace_id));
    log.write("slow_request",
              {{"trace_id", id_hex},
               {"status", net::to_string(rec.status)},
               {"e2e_us", rec.e2e_us},
               {"queue_us", static_cast<std::uint64_t>(rec.stage.queue_us)},
               {"batch_us", static_cast<std::uint64_t>(rec.stage.batch_us)},
               {"compute_us",
                static_cast<std::uint64_t>(rec.stage.compute_us)},
               {"server_total_us",
                static_cast<std::uint64_t>(rec.stage.total_us)},
               {"g", rec.g},
               {"selected", rec.selected},
               {"abstained", !rec.selected},
               {"label", rec.label}});
  }
}

void print_json(const std::vector<RunResult>& rows, int map_size,
                double ratio, double tracing_ratio, const StageAgg* stages,
                const FleetReport* fleet) {
  std::printf("{\n  \"bench\": \"bench_net\",\n");
  std::printf("  \"map_size\": %d,\n", map_size);
  std::printf("  \"remote_vs_engine_ratio\": %.3f,\n", ratio);
  std::printf("  \"tracing_overhead_ratio\": %.3f,\n", tracing_ratio);
  if (stages != nullptr && stages->n > 0) {
    // Nested on purpose: bench_compare only harvests top-level numbers, so
    // the attribution means stay informational, not gated.
    std::printf("  \"stages\": {\"ok_responses\": %llu, "
                "\"queue_us_mean\": %.1f, \"batch_us_mean\": %.1f, "
                "\"compute_us_mean\": %.1f, \"server_total_us_mean\": %.1f},\n",
                static_cast<unsigned long long>(stages->n),
                stages->mean(stages->queue_us), stages->mean(stages->batch_us),
                stages->mean(stages->compute_us),
                stages->mean(stages->total_us));
  }
  if (fleet != nullptr) {
    std::printf("  \"fleet\": %d,\n", fleet->fleet);
    std::printf("  \"fleet_single_rps\": %.2f,\n", fleet->single_rps);
    std::printf("  \"fleet_closed_rps\": %.2f,\n", fleet->closed_rps);
    std::printf("  \"fleet_vs_single_ratio\": %.3f,\n", fleet->ratio);
    std::printf("  \"fleet_collected_rps\": %.2f,\n", fleet->collected_rps);
    std::printf("  \"collector_overhead_ratio\": %.3f,\n",
                fleet->collector_overhead_ratio);
    std::printf("  \"collector_rounds\": %llu,\n",
                static_cast<unsigned long long>(fleet->collector_rounds));
    std::printf("  \"collector_targets_up\": %d,\n",
                fleet->collector_targets_up);
    std::printf("  \"collector_up_transitions\": %llu,\n",
                static_cast<unsigned long long>(
                    fleet->collector_up_transitions));
    std::printf("  \"collector_slo_fires\": %llu,\n",
                static_cast<unsigned long long>(fleet->slo_fires));
    std::printf("  \"collector_slo_clears\": %llu,\n",
                static_cast<unsigned long long>(fleet->slo_clears));
    std::printf("  \"fleet_kill_replica\": %s,\n",
                fleet->kill_replica ? "true" : "false");
    std::printf("  \"fleet_swap_mid_run\": %s,\n",
                fleet->swap_mid_run ? "true" : "false");
    std::printf("  \"fleet_retries\": %llu,\n",
                static_cast<unsigned long long>(fleet->retries));
    std::printf("  \"fleet_no_replica\": %llu,\n",
                static_cast<unsigned long long>(fleet->no_replica));
    std::printf("  \"fleet_model_swaps\": %llu,\n",
                static_cast<unsigned long long>(fleet->model_swaps));
    std::printf("  \"fleet_replicas\": [\n");
    for (std::size_t i = 0; i < fleet->replicas.size(); ++i) {
      const auto& rep = fleet->replicas[i];
      std::printf(
          "    {\"index\": %d, \"port\": %d, \"healthy\": %s, "
          "\"dispatched\": %llu, \"ok\": %llu, \"transport_errors\": %llu, "
          "\"ejects\": %llu, \"rejoins\": %llu, "
          "\"p50_us\": %lld, \"p95_us\": %lld, \"p99_us\": %lld}%s\n",
          rep.index, rep.port, rep.healthy ? "true" : "false",
          static_cast<unsigned long long>(rep.dispatched),
          static_cast<unsigned long long>(rep.ok),
          static_cast<unsigned long long>(rep.transport_errors),
          static_cast<unsigned long long>(rep.ejects),
          static_cast<unsigned long long>(rep.rejoins),
          static_cast<long long>(rep.latency.quantile(0.50)),
          static_cast<long long>(rep.latency.quantile(0.95)),
          static_cast<long long>(rep.latency.quantile(0.99)),
          i + 1 < fleet->replicas.size() ? "," : "");
    }
    std::printf("  ],\n");
  }
  std::printf("  \"runs\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const RunResult& r = rows[i];
    std::printf(
        "    {\"mode\": \"%s\", \"connections\": %d, \"window\": %d, "
        "\"target_qps\": %.1f, \"achieved_qps\": %.1f, \"requests\": %zu, "
        "\"ok\": %zu, \"shed\": %zu, \"timeout\": %zu, \"errors\": %zu, "
        "\"wall_s\": %.4f, \"throughput_rps\": %.2f, "
        "\"p50_us\": %lld, \"p95_us\": %lld, \"p99_us\": %lld}%s\n",
        r.mode.c_str(), r.connections, r.window, r.target_qps,
        r.achieved_qps, r.requests, r.ok, r.shed, r.timeout, r.errors,
        r.wall_s, r.throughput_rps, static_cast<long long>(r.p50_us),
        static_cast<long long>(r.p95_us), static_cast<long long>(r.p99_us),
        i + 1 < rows.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
}

int get_flag(int argc, char** argv, const char* name, int fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) {
      return static_cast<int>(flag_int(name, argv[i + 1]));
    }
  }
  return fallback;
}

double get_flag_d(int argc, char** argv, const char* name, double fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return flag_double(name, argv[i + 1]);
  }
  return fallback;
}

std::string get_flag_s(int argc, char** argv, const char* name,
                       const std::string& fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return fallback;
}

bool has_flag(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  // Numeric flags parse strictly (common/env.hpp): "--connections abc" is
  // an error naming the flag, reported below like any other failure.
  try {
    const bool json = has_flag(argc, argv, "--json");
    const int connections =
        std::max(1, get_flag(argc, argv, "--connections", 4));
    const int window = std::max(1, get_flag(argc, argv, "--window", 8));
    const int map_size = get_flag(argc, argv, "--map", 32);
    const int workers = std::max(1, get_flag(argc, argv, "--workers", 2));
    const double qps = get_flag_d(argc, argv, "--qps", 0.0);
    const std::size_t total = static_cast<std::size_t>(std::max(
        connections * window,
        static_cast<int>(get_flag(argc, argv, "--requests", 2000) *
                         bench_scale())));
    const std::string ext_host = get_flag_s(argc, argv, "--host", "127.0.0.1");
    const int ext_port = get_flag(argc, argv, "--port", 0);
    const int fleet = std::max(0, get_flag(argc, argv, "--fleet", 0));
    const int fleet_window = std::max(1, get_flag(argc, argv, "--fleet-window",
                                                  2));
    const int fleet_delay_us =
        std::max(0, get_flag(argc, argv, "--fleet-delay-us", 12000));
    const bool kill_replica = has_flag(argc, argv, "--kill-replica");
    const bool swap_mid_run = has_flag(argc, argv, "--swap-mid-run");
    const int collector_port =
        std::max(0, get_flag(argc, argv, "--collector-port", 0));
    const int collector_interval_ms =
        std::max(10, get_flag(argc, argv, "--collector-interval-ms", 100));
    const int slo_p99_us = std::max(0, get_flag(argc, argv, "--slo-p99-us", 0));
    const int trace_sample =
        std::max(1, get_flag(argc, argv, "--trace-sample", 16));
    // --out-dir prefixes every file artifact (--trace-out, --slow-log) so a
    // CI job can point the whole run at a scratch directory with one flag;
    // absolute paths pass through untouched.
    const std::string out_dir = get_flag_s(argc, argv, "--out-dir", "");
    const auto in_out_dir = [&](std::string path) {
      if (path.empty() || out_dir.empty() || path.front() == '/') return path;
      return out_dir + "/" + path;
    };
    const std::string trace_out =
        in_out_dir(get_flag_s(argc, argv, "--trace-out", ""));
    const std::string slow_log =
        in_out_dir(get_flag_s(argc, argv, "--slow-log", ""));

    const auto stream = make_stream(map_size, 256);

    // The in-process stack (skipped when --port targets an external server).
    std::unique_ptr<selective::SelectiveNet> net_model;
    std::unique_ptr<LoadedClassifier> classifier;
    std::unique_ptr<serve::InferenceEngine> engine;
    std::unique_ptr<net::Server> server;
    int port = ext_port;
    if (ext_port == 0) {
      Rng rng(7);
      net_model = std::make_unique<selective::SelectiveNet>(
          selective::SelectiveNetOptions{.map_size = map_size,
                                         .num_classes = kNumDefectTypes,
                                         .use_batchnorm = true},
          rng);
      classifier = load_classifier(*net_model, {.threshold = 0.5f});
      engine = std::make_unique<serve::InferenceEngine>(
          *classifier,
          serve::EngineOptions{
              .max_batch = std::max(8, connections * window),
              .max_delay_us = 1000,
              .queue_capacity =
                  static_cast<std::size_t>(4 * connections * window)});
      server = std::make_unique<net::Server>(
          *engine, net::ServerOptions{.workers = workers});
      port = server->port();
      classifier->predict_one(stream[0]);  // warm up allocators and the pool
    }

    if (!json) {
      std::printf("loadgen: %dx%d maps, %d connections x window %d, "
                  "%zu requests/run, server %s:%d%s\n\n",
                  map_size, map_size, connections, window, total,
                  ext_port == 0 ? "in-process 127.0.0.1" : ext_host.c_str(),
                  port, ext_port == 0 ? "" : " (external)");
    }

    std::vector<RunResult> rows;
    double engine_rps = 0.0;
    if (engine != nullptr) {
      rows.push_back(run_engine(*engine, stream, connections, window, total));
      engine_rps = rows.back().throughput_rps;
      if (!json) print_row(rows.back());
    }

    StageAgg stages;
    std::vector<CallRecord> records;
    rows.push_back(run_remote_closed(
        ext_port == 0 ? "127.0.0.1" : ext_host, port, stream, connections,
        window, total, "remote-closed", /*trace_sample=*/0, &stages,
        slow_log.empty() ? nullptr : &records));
    const double remote_rps = rows.back().throughput_rps;
    if (!json) print_row(rows.back());

    // Tracing-overhead headline: the identical closed loop again, with
    // tracing globally ON and every --trace-sample'th request sampled. The
    // ratio against the untraced run above is what bench_compare gates
    // (>= 0.98 means the tracing path costs <= ~2%).
    double tracing_ratio = 0.0;
    if (ext_port == 0) {
      obs::set_trace_enabled(true);
      obs::set_trace_process_name("loadgen");
      rows.push_back(run_remote_closed("127.0.0.1", port, stream, connections,
                                       window, total, "remote-traced",
                                       trace_sample, &stages,
                                       slow_log.empty() ? nullptr : &records));
      tracing_ratio = remote_rps > 0.0
                          ? rows.back().throughput_rps / remote_rps
                          : 0.0;
      if (!json) print_row(rows.back());
      if (!trace_out.empty()) obs::trace_write_json(trace_out);
      obs::set_trace_enabled(false);
    }

    if (!slow_log.empty()) write_slow_log(slow_log, std::move(records));

    if (qps > 0.0) {
      rows.push_back(run_remote_open(ext_port == 0 ? "127.0.0.1" : ext_host,
                                     port, stream, connections, qps, total));
      if (!json) print_row(rows.back());
    }

    // The single-server runs are done; free its stack before standing up
    // the fleet so the replicas have the machine to themselves.
    if (server != nullptr) server->stop();
    if (engine != nullptr) engine->shutdown();
    server.reset();
    engine.reset();

    FleetReport freport;
    if (fleet > 0 && ext_port != 0) {
      std::fprintf(stderr,
                   "loadgen: --fleet needs the in-process stack; "
                   "ignoring it with an external --port\n");
    } else if (fleet > 0) {
      // Every replica gets its own serving stack; they share the fp32 net
      // (and, for --swap-mid-run, its int8 quantization) behind the unified
      // classifier factory.
      std::unique_ptr<selective::QuantizedSelectiveNet> qnet;
      FleetChaos chaos{.kill_replica = kill_replica && fleet > 1,
                       .swap_mid_run = swap_mid_run};
      if (swap_mid_run) {
        qnet = std::make_unique<selective::QuantizedSelectiveNet>(
            selective::quantize_selective_net(*net_model));
        chaos.candidate =
            std::shared_ptr<const Classifier>(load_classifier(*qnet));
        chaos.canaries = std::vector<WaferMap>(stream.begin(),
                                               stream.begin() + 4);
      }
      std::vector<std::unique_ptr<FleetReplica>> replicas;
      for (int i = 0; i < fleet; ++i) {
        replicas.push_back(std::make_unique<FleetReplica>(
            std::shared_ptr<const Classifier>(load_classifier(*net_model)),
            fleet_delay_us));
      }
      chaos.replicas = &replicas;

      // Baseline: the router in front of one replica at the per-replica
      // closed-loop concurrency...
      net::RouterOptions sopts;
      sopts.replicas = {{.port = replicas[0]->wire_port(),
                         .health_port = replicas[0]->health_port()}};
      {
        net::Router single(sopts);
        rows.push_back(run_fleet(single, stream, 1, fleet_window, total,
                                 "fleet-single", nullptr));
        freport.single_rps = rows.back().throughput_rps;
        if (!json) print_row(rows.back());
      }

      // ...then the whole fleet at M x that offered load, uncollected —
      // the denominator of the collector-overhead headline.
      net::RouterOptions fopts;
      for (auto& rep : replicas) {
        fopts.replicas.push_back({.port = rep->wire_port(),
                                  .health_port = rep->health_port()});
      }
      net::Router frouter(fopts);
      rows.push_back(run_fleet(frouter, stream, fleet, fleet_window, total,
                               "fleet-closed", nullptr));
      freport.closed_rps = rows.back().throughput_rps;
      if (!json) print_row(rows.back());

      // The identical run once more with the observability plane live: a
      // collector scraping every replica each interval and evaluating the
      // SLO rules over the merged view. Chaos (kill / swap) runs here so
      // the collector witnesses the failover it exists to observe.
      {
        std::vector<obs::SloRule> rules = obs::SloEngine::default_rules();
        if (slo_p99_us > 0) {
          // Provocation mode: an absurdly low latency objective that any
          // traffic violates, tuned to fire (and later clear) within a
          // short run — CI asserts the slo_burn/slo_clear events appear.
          for (obs::SloRule& rule : rules) {
            if (rule.kind == obs::SloKind::kLatencyP99) {
              rule.latency_threshold_us = slo_p99_us;
              rule.fast_window = 2;
              rule.slow_window = 4;
              rule.fire_count = 2;
              rule.clear_count = 2;
            }
          }
        }
        obs::CollectorOptions copts;
        for (auto& rep : replicas) {
          copts.targets.push_back("127.0.0.1:" +
                                  std::to_string(rep->health_port()));
        }
        copts.interval_ms = collector_interval_ms;
        copts.scrape_timeout_ms = 1000;
        copts.slo_rules = std::move(rules);
        copts.exporter_port = collector_port;
        obs::Collector collector(copts);

        rows.push_back(run_fleet(frouter, stream, fleet, fleet_window, total,
                                 "fleet-collected", &chaos));
        freport.collected_rps = rows.back().throughput_rps;
        if (!json) print_row(rows.back());
        freport.collector_overhead_ratio =
            freport.closed_rps > 0.0
                ? freport.collected_rps / freport.closed_rps
                : 0.0;

        // Traffic is done: let the burn windows drain so a provoked alarm
        // also demonstrates the hysteretic clear before we shut down.
        for (int i = 0; i < 40; ++i) {
          bool firing = false;
          for (const obs::SloStatus& s : collector.slo_status()) {
            firing = firing || s.firing;
            if (s.fires > s.clears) firing = true;
          }
          if (!firing) break;
          std::this_thread::sleep_for(
              std::chrono::milliseconds(collector_interval_ms));
        }
        for (const obs::SloStatus& s : collector.slo_status()) {
          freport.slo_fires += s.fires;
          freport.slo_clears += s.clears;
        }
        freport.collector_rounds = collector.rounds();
        const obs::FleetAggregate final_agg = collector.aggregate();
        freport.collector_targets_up = final_agg.targets_up;
        for (const auto& [target, health] : final_agg.health) {
          freport.collector_up_transitions += health.up_transitions;
        }
        collector.stop();
      }

      freport.fleet = fleet;
      freport.ratio = freport.single_rps > 0.0
                          ? freport.closed_rps / freport.single_rps
                          : 0.0;
      freport.kill_replica = chaos.kill_replica;
      freport.swap_mid_run = chaos.swap_mid_run;
      freport.retries = frouter.retries();
      freport.no_replica = frouter.no_replica();
      freport.replicas = frouter.stats();
      for (auto& rep : replicas) freport.model_swaps += rep->model_swaps();
      frouter.close();
    }

    const double ratio = engine_rps > 0.0 ? remote_rps / engine_rps : 0.0;
    if (json) {
      print_json(rows, map_size, ratio, tracing_ratio, &stages,
                 freport.fleet > 0 ? &freport : nullptr);
    } else {
      if (engine_rps > 0.0) {
        std::printf("\nremote closed-loop vs in-process engine: %.1f%% of "
                    "%.1f req/s\n",
                    100.0 * ratio, engine_rps);
      }
      if (tracing_ratio > 0.0) {
        std::printf("tracing on (1/%d sampled) vs off: %.1f%% throughput\n",
                    trace_sample, 100.0 * tracing_ratio);
      }
      if (stages.n > 0) {
        std::printf("per-stage attribution over %llu OK responses (us, "
                    "mean): queue %.1f | batch %.1f | compute %.1f | "
                    "server total %.1f\n",
                    static_cast<unsigned long long>(stages.n),
                    stages.mean(stages.queue_us), stages.mean(stages.batch_us),
                    stages.mean(stages.compute_us),
                    stages.mean(stages.total_us));
      }
      if (freport.fleet > 0) {
        std::printf("fleet(%d) vs single replica: %.2fx (%.1f vs %.1f "
                    "req/s), retries %llu, no_replica %llu, swaps %llu\n",
                    freport.fleet, freport.ratio, freport.closed_rps,
                    freport.single_rps,
                    static_cast<unsigned long long>(freport.retries),
                    static_cast<unsigned long long>(freport.no_replica),
                    static_cast<unsigned long long>(freport.model_swaps));
        std::printf("collected fleet vs uncollected: %.1f%% throughput "
                    "(%llu scrape rounds, %d/%d up at end, slo fires %llu "
                    "clears %llu)\n",
                    100.0 * freport.collector_overhead_ratio,
                    static_cast<unsigned long long>(freport.collector_rounds),
                    freport.collector_targets_up, freport.fleet,
                    static_cast<unsigned long long>(freport.slo_fires),
                    static_cast<unsigned long long>(freport.slo_clears));
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "loadgen error: %s\n", e.what());
    return 1;
  }
}
