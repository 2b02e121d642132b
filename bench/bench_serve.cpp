// Online serving benchmark: dynamic micro-batching engine vs. the
// one-request-per-forward baseline.
//
// N producer threads stream single 64x64 wafer maps at the selective CNN.
// The baseline gives every request its own forward pass (predict_one); the
// engine runs the same requests through serve::InferenceEngine, sweeping the
// batch window (max_batch x max_delay_us) and the offered load (producer
// count). Throughput, achieved batch size and latency quantiles are printed
// per configuration; --json emits the same rows as JSON (consumed by
// tools/run_benchmarks.sh -> BENCH_serve.json).
//
// Env knobs: WM_SERVE_MAP (map size, default 64), WM_SERVE_REQUESTS
// (requests per producer per run, default 24), WM_SERVE_PRODUCERS (max
// producer count, default 8), WM_THREADS (compute pool size).
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/env.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "common/threadpool.hpp"
#include "selective/load_classifier.hpp"
#include "selective/selective_net.hpp"
#include "serve/inference_engine.hpp"
#include "wafermap/synth/generator.hpp"

using namespace wm;

namespace {

struct RunResult {
  std::string mode;  // "direct" or "engine"
  int producers = 0;
  int max_batch = 0;       // 0 for direct
  std::int64_t max_delay_us = 0;
  std::size_t requests = 0;
  double wall_s = 0.0;
  double throughput_rps = 0.0;
  double mean_batch = 1.0;
  std::int64_t p50_us = 0;
  std::int64_t p95_us = 0;
  std::int64_t p99_us = 0;
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

/// Each producer thread issues `per_producer` blocking requests through
/// `issue(map)`; returns wall seconds for the whole run.
template <typename Issue>
double drive(const std::vector<WaferMap>& stream, int producers,
             int per_producer, Issue issue) {
  Stopwatch watch;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(producers));
  for (int t = 0; t < producers; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < per_producer; ++i) {
        issue(stream[static_cast<std::size_t>(t * per_producer + i) %
                     stream.size()]);
      }
    });
  }
  for (auto& th : threads) th.join();
  return watch.seconds();
}

RunResult run_direct(const Classifier& predictor,
                     const std::vector<WaferMap>& stream, int producers,
                     int per_producer) {
  RunResult r;
  r.mode = "direct";
  r.producers = producers;
  r.requests = static_cast<std::size_t>(producers) * per_producer;
  r.wall_s = drive(stream, producers, per_producer,
                   [&](const WaferMap& m) { predictor.predict_one(m); });
  r.throughput_rps = static_cast<double>(r.requests) / r.wall_s;
  return r;
}

RunResult run_engine(const Classifier& predictor,
                     const std::vector<WaferMap>& stream, int producers,
                     int per_producer, int max_batch,
                     std::int64_t max_delay_us) {
  serve::InferenceEngine engine(
      predictor, {.max_batch = max_batch, .max_delay_us = max_delay_us,
                  .queue_capacity = static_cast<std::size_t>(4 * max_batch)});
  RunResult r;
  r.mode = "engine";
  r.producers = producers;
  r.max_batch = max_batch;
  r.max_delay_us = max_delay_us;
  r.requests = static_cast<std::size_t>(producers) * per_producer;
  r.wall_s = drive(stream, producers, per_producer,
                   [&](const WaferMap& m) { engine.predict(m); });
  r.throughput_rps = static_cast<double>(r.requests) / r.wall_s;
  const serve::EngineStats stats = engine.stats();
  r.mean_batch = stats.mean_batch_size();
  r.p50_us = stats.latency.quantile(0.50);
  r.p95_us = stats.latency.quantile(0.95);
  r.p99_us = stats.latency.quantile(0.99);
  return r;
}

void print_row(const RunResult& r) {
  if (r.mode == "direct") {
    std::printf("%-7s p=%d                          %6zu req  %7.2f s  "
                "%8.1f req/s\n",
                r.mode.c_str(), r.producers, r.requests, r.wall_s,
                r.throughput_rps);
  } else {
    std::printf("%-7s p=%d b=%-3d delay=%-6lld us  %6zu req  %7.2f s  "
                "%8.1f req/s  batch %.1f  p50/p95/p99 %lld/%lld/%lld us\n",
                r.mode.c_str(), r.producers, r.max_batch,
                static_cast<long long>(r.max_delay_us), r.requests, r.wall_s,
                r.throughput_rps, r.mean_batch,
                static_cast<long long>(r.p50_us),
                static_cast<long long>(r.p95_us),
                static_cast<long long>(r.p99_us));
  }
}

void print_json(const std::vector<RunResult>& rows, int map_size,
                double ratio) {
  std::printf("{\n  \"bench\": \"bench_serve\",\n");
  std::printf("  \"map_size\": %d,\n", map_size);
  std::printf("  \"pool_threads\": %zu,\n",
              ThreadPool::global().max_chunks());
  std::printf("  \"engine_vs_direct_best_ratio\": %.3f,\n", ratio);
  std::printf("  \"runs\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const RunResult& r = rows[i];
    std::printf("    {\"mode\": \"%s\", \"producers\": %d, \"max_batch\": %d, "
                "\"max_delay_us\": %lld, \"requests\": %zu, "
                "\"wall_s\": %.4f, \"throughput_rps\": %.2f, "
                "\"mean_batch\": %.2f, \"p50_us\": %lld, \"p95_us\": %lld, "
                "\"p99_us\": %lld}%s\n",
                r.mode.c_str(), r.producers, r.max_batch,
                static_cast<long long>(r.max_delay_us), r.requests, r.wall_s,
                r.throughput_rps, r.mean_batch,
                static_cast<long long>(r.p50_us),
                static_cast<long long>(r.p95_us),
                static_cast<long long>(r.p99_us),
                i + 1 < rows.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const bool json = argc > 1 && std::strcmp(argv[1], "--json") == 0;
  const int map_size =
      static_cast<int>(env_int("WM_SERVE_MAP", 8, 256).value_or(64));
  const int per_producer = std::max(
      1, static_cast<int>(
             env_int("WM_SERVE_REQUESTS", 1, 1'000'000).value_or(24) *
             bench_scale()));
  const int max_producers =
      static_cast<int>(env_int("WM_SERVE_PRODUCERS", 1, 256).value_or(8));

  Rng rng(7);
  selective::SelectiveNetOptions nopts;  // Table I at full width
  nopts.map_size = map_size;
  selective::SelectiveNet net(nopts, rng);
  const auto predictor = load_classifier(net, {.threshold = 0.5f});
  const auto stream = make_stream(map_size, max_producers * per_producer);

  if (!json) {
    std::printf("bench_serve: %dx%d maps, Table-I net, %d requests/producer, "
                "pool=%zu threads\n\n",
                map_size, map_size, per_producer,
                ThreadPool::global().max_chunks());
  }

  predictor->predict_one(stream[0]);  // warm up allocators and the pool

  std::vector<RunResult> rows;
  double direct_at_max = 0.0;
  for (int producers : {1, max_producers}) {
    rows.push_back(run_direct(*predictor, stream, producers, per_producer));
    if (!json) print_row(rows.back());
    if (producers == max_producers) direct_at_max = rows.back().throughput_rps;
  }

  double best_engine = 0.0;
  for (int max_batch : {8, 32}) {
    for (std::int64_t delay_us : {200, 2000, 10000}) {
      for (int producers : {1, max_producers}) {
        rows.push_back(run_engine(*predictor, stream, producers, per_producer,
                                  max_batch, delay_us));
        if (!json) print_row(rows.back());
        if (producers == max_producers) {
          best_engine = std::max(best_engine, rows.back().throughput_rps);
        }
      }
    }
  }

  const double ratio = direct_at_max > 0 ? best_engine / direct_at_max : 0.0;
  if (json) {
    print_json(rows, map_size, ratio);
  } else {
    std::printf("\nbest engine throughput at %d producers: %.1f req/s "
                "(%.2fx the one-request-per-forward baseline)\n",
                max_producers, best_engine, ratio);
    std::printf("note: micro-batching pays off with a multi-core pool, where "
                "one batched forward\nparallelises across the batch; on a "
                "single-core host expect a ratio near 1.\n");
  }
  return 0;
}
