// Live monitoring demo: engine + SelectiveMonitor + HTTP exporter, ending
// in a provoked drift alarm.
//
// The demo trains a small selective CNN, calibrates its abstention threshold
// for a target coverage c0, then serves two traffic phases through the
// micro-batching engine while a SelectiveMonitor watches every prediction
// and an HttpExporter serves the shared registry:
//
//   phase 1  in-distribution replay — windowed coverage sits near c0, the
//            wm_monitor_alarm gauge stays 0;
//   phase 2  drifted replay — the stream is rebuilt from wafers the
//            calibrated model abstains on (a hard/novel slice dominating
//            traffic, which is exactly how input drift reaches a selective
//            classifier), so the windowed abstention rate spikes, the
//            monitor raises a drift_alarm run-log event, and the gauge
//            flips to 1.
//
// While both phases run you can scrape the live endpoints:
//
//   curl http://127.0.0.1:<port>/metrics        # Prometheus text
//   curl http://127.0.0.1:<port>/metrics.json   # same registry as JSON
//   curl http://127.0.0.1:<port>/healthz        # liveness
//   curl http://127.0.0.1:<port>/stats          # engine + monitor dump
//
// Artifacts written to the working directory:
//   monitoring_metrics.prom   final Prometheus dump
//   monitoring_run_log.jsonl  run log incl. the drift_alarm event
//   monitoring_trace.json     Perfetto trace with monitor.* counter tracks
//
// Flags:  --port P (default 0 = ephemeral)
//         --serve-seconds S (default 0: exit as soon as the demo is done;
//                            S > 0 keeps serving trickle traffic so a human
//                            can scrape the endpoints)
//
// Exit code is non-zero if the drift alarm did NOT fire or an endpoint did
// not answer — CI runs this binary as the monitoring smoke test.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/env.hpp"
#include "common/rng.hpp"
#include "obs/http_exporter.hpp"
#include "obs/metrics.hpp"
#include "obs/run_log.hpp"
#include "obs/trace.hpp"
#include "selective/calibrate.hpp"
#include "selective/load_classifier.hpp"
#include "selective/trainer.hpp"
#include "serve/inference_engine.hpp"
#include "serve/monitor.hpp"
#include "wafermap/synth/generator.hpp"

using namespace wm;

namespace {

bool endpoint_ok(int port, const std::string& path, const char* expect) {
  try {
    const std::string response = obs::http_get_local(port, path);
    const bool ok = response.find("200 OK") != std::string::npos &&
                    response.find(expect) != std::string::npos;
    std::printf("  GET %-14s %s\n", path.c_str(), ok ? "ok" : "UNEXPECTED");
    return ok;
  } catch (const std::exception& e) {
    std::printf("  GET %-14s FAILED: %s\n", path.c_str(), e.what());
    return false;
  }
}

}  // namespace

int main(int argc, char** argv) {
  int port = 0;
  int serve_seconds = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--port") == 0) {
      port = static_cast<int>(flag_int("--port", argv[i + 1], 0, 65535));
    }
    if (std::strcmp(argv[i], "--serve-seconds") == 0) {
      serve_seconds =
          static_cast<int>(flag_int("--serve-seconds", argv[i + 1]));
    }
  }

  obs::set_trace_enabled(true);
  obs::set_run_log_path("monitoring_run_log.jsonl");

  // 1. Train a small selective net and calibrate its threshold for c0.
  const double c0 = 0.7;
  Rng rng(13);
  synth::DatasetSpec spec;
  spec.map_size = 16;
  spec.class_counts.fill(30);
  Dataset data = synth::generate_dataset(spec, rng);
  data.shuffle(rng);
  const auto [train, pool] = data.stratified_split(0.7, rng);

  selective::SelectiveNet net({.map_size = 16, .num_classes = 9,
                               .conv1_filters = 8, .conv2_filters = 8,
                               .conv3_filters = 8, .fc_units = 32,
                               .use_batchnorm = true},
                              rng);
  selective::SelectiveTrainer trainer({.epochs = 4, .batch_size = 32,
                                       .learning_rate = 2e-3,
                                       .target_coverage = c0});
  trainer.train(net, train, nullptr, rng);
  const float tau = selective::calibrate_threshold(net, pool, c0);
  const auto predictor = load_classifier(net, {.threshold = tau});
  std::printf("calibrated threshold tau=%.4f for target coverage %.2f\n",
              tau, c0);

  // 2. Split the pool by the model's own verdict: in-distribution traffic
  //    (everything) vs. a drifted stream of only-abstained wafers.
  std::vector<WaferMap> in_dist;
  std::vector<WaferMap> drifted;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    in_dist.push_back(pool[i].map);
    if (!predictor->predict_one(pool[i].map).selected) {
      drifted.push_back(pool[i].map);
    }
  }
  if (drifted.empty()) {
    // Unreachable for c0 < 1 (calibration leaves a 1-c0 abstained tail),
    // but fail loudly rather than divide by zero below.
    std::fprintf(stderr, "no abstained wafers to build the drift stream\n");
    return 1;
  }
  std::printf("streams: %zu in-distribution wafers, %zu drifted\n",
              in_dist.size(), drifted.size());

  // 3. Monitor + engine + exporter, all sharing the global registry.
  serve::MonitorOptions mopts;
  mopts.window = 64;
  mopts.target_coverage = c0;
  mopts.coverage_tolerance = 0.2;  // alarm once coverage leaves c0 +/- 0.2
  mopts.min_observations = 32;
  mopts.registry = &obs::Registry::global();
  serve::SelectiveMonitor monitor(mopts);

  serve::InferenceEngine engine(*predictor,
                                {.max_batch = 16,
                                 .max_delay_us = 1000,
                                 .queue_capacity = 128,
                                 .registry = &obs::Registry::global(),
                                 .monitor = &monitor});

  obs::HttpExporter exporter(
      {.port = port,
       .stats_source =
           [&] {
             return engine.stats().to_string() +
                    monitor.snapshot().to_string();
           },
       .healthy = [&] { return engine.accepting(); }});
  std::printf("live endpoints on http://127.0.0.1:%d "
              "(/metrics /metrics.json /healthz /stats)\n",
              exporter.port());

  // 4. Phase 1: in-distribution traffic. Coverage hovers near c0.
  for (int pass = 0; pass < 2; ++pass) {
    for (const WaferMap& map : in_dist) (void)engine.predict(map);
  }
  const serve::MonitorSnapshot healthy_snap = monitor.snapshot();
  std::printf("phase 1 (in-distribution): coverage %.3f, alarm %s\n",
              healthy_snap.coverage, healthy_snap.alarm ? "ACTIVE" : "clear");

  // 5. Self-check every endpoint while the engine is live.
  bool endpoints_ok = true;
  endpoints_ok &= endpoint_ok(exporter.port(), "/metrics",
                              "wm_monitor_coverage");
  endpoints_ok &= endpoint_ok(exporter.port(), "/metrics.json",
                              "\"wm_monitor_coverage\"");
  endpoints_ok &= endpoint_ok(exporter.port(), "/healthz",
                              "\"status\":\"ok\"");
  endpoints_ok &= endpoint_ok(exporter.port(), "/stats", "monitor:");

  // 6. Phase 2: drift. The abstained slice dominates traffic; the windowed
  //    coverage collapses below c0 - tolerance and the alarm must fire.
  const std::size_t drift_requests = 3 * mopts.window;
  for (std::size_t i = 0; i < drift_requests; ++i) {
    (void)engine.predict(drifted[i % drifted.size()]);
  }
  const serve::MonitorSnapshot drift_snap = monitor.snapshot();
  std::printf("phase 2 (drifted): coverage %.3f, alarm %s "
              "(fired %llu time(s))\n",
              drift_snap.coverage, drift_snap.alarm ? "ACTIVE" : "clear",
              static_cast<unsigned long long>(drift_snap.alarms_total));

  // 7. Optional linger with trickle traffic for interactive scraping. The
  //    trickle keeps replaying the drifted stream so scrapers observe the
  //    alarmed state (in-distribution traffic would clear it again).
  if (serve_seconds > 0) {
    std::printf("serving trickle traffic for %d s — scrape away\n",
                serve_seconds);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(serve_seconds);
    std::size_t i = 0;
    while (std::chrono::steady_clock::now() < deadline) {
      (void)engine.predict(drifted[i++ % drifted.size()]);
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }

  engine.shutdown();
  exporter.stop();

  // 8. Export artifacts.
  const std::string prom = obs::Registry::global().prometheus_text();
  std::FILE* f = std::fopen("monitoring_metrics.prom", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write monitoring_metrics.prom\n");
    return 1;
  }
  std::fwrite(prom.data(), 1, prom.size(), f);
  std::fclose(f);
  obs::trace_write_json("monitoring_trace.json");
  std::printf("artifacts: monitoring_metrics.prom, monitoring_run_log.jsonl, "
              "monitoring_trace.json (monitor.* counter tracks)\n");

  // 9. Verdict: this binary doubles as the CI monitoring smoke test.
  const bool alarm_fired = drift_snap.alarm && drift_snap.alarms_total >= 1;
  const bool phase1_clean = !healthy_snap.alarm;
  if (!alarm_fired || !phase1_clean || !endpoints_ok) {
    std::fprintf(stderr,
                 "FAILED: alarm_fired=%d phase1_clean=%d endpoints_ok=%d\n",
                 alarm_fired, phase1_clean, endpoints_ok);
    return 1;
  }
  std::printf("drift alarm fired as expected — demo passed\n");
  return 0;
}
