// Quantized inference benchmark: int8 fast path vs. the fp32 net.
//
// Throughput leg: the Table-I net at WM_QUANT_MAP (default 64) classifies a
// fixed wafer stream through wm::load_classifier over the fp32 net (sgemm)
// and over its int8 quantization (fused i8gemm); the headline
// `quant_vs_fp32` is the best-of-reps throughput ratio. Accuracy leg: a
// small net is trained briefly on synthetic data, quantized, and both
// classifiers are scored on a held-out set — accuracy_delta / coverage_delta report what
// int8 costs in model quality (CI fails the Release smoke when the
// accuracy delta exceeds 1%).
//
// --json emits the consolidated document consumed by
// tools/run_benchmarks.sh -> BENCH_quant.json.
//
// Env knobs: WM_QUANT_MAP (map size, default 64), WM_QUANT_WAFERS (stream
// length, default 192, scaled by WM_BENCH_SCALE), WM_THREADS.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "common/threadpool.hpp"
#include "selective/calibrate.hpp"
#include "selective/load_classifier.hpp"
#include "selective/quant_net.hpp"
#include "selective/trainer.hpp"
#include "wafermap/synth/generator.hpp"

using namespace wm;

namespace {

struct RunResult {
  std::string mode;  // "fp32" or "int8"
  int rep = 0;
  std::size_t wafers = 0;
  double wall_s = 0.0;
  double throughput_wps = 0.0;
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

std::vector<RunResult> time_predictor(const char* mode,
                                      const Classifier& predictor,
                                      const std::vector<WaferMap>& stream,
                                      int reps) {
  predictor.predict_batch(stream);  // warm up allocators and the pool
  std::vector<RunResult> rows;
  for (int rep = 0; rep < reps; ++rep) {
    Stopwatch watch;
    predictor.predict_batch(stream);
    RunResult r;
    r.mode = mode;
    r.rep = rep;
    r.wafers = stream.size();
    r.wall_s = watch.seconds();
    r.throughput_wps = static_cast<double>(r.wafers) / r.wall_s;
    rows.push_back(r);
  }
  return rows;
}

double best_throughput(const std::vector<RunResult>& rows) {
  double best = 0.0;
  for (const RunResult& r : rows) best = std::max(best, r.throughput_wps);
  return best;
}

/// Model-quality leg: brief training at a small map size, then fp32 vs int8
/// on a held-out set at the fp32-calibrated threshold.
struct QualityResult {
  double accuracy_fp32 = 0.0;
  double accuracy_int8 = 0.0;
  double coverage_fp32 = 0.0;
  double coverage_int8 = 0.0;
  float threshold = 0.5f;
};

QualityResult measure_quality() {
  Rng rng(11);
  synth::DatasetSpec spec;
  spec.map_size = 16;
  spec.class_counts.fill(12);
  Dataset train = synth::generate_dataset(spec, rng);
  Rng eval_rng(12);
  synth::DatasetSpec eval_spec = spec;
  eval_spec.class_counts.fill(30);
  const Dataset eval = synth::generate_dataset(eval_spec, eval_rng);

  selective::SelectiveNet net({.map_size = 16, .num_classes = kNumDefectTypes,
                               .conv1_filters = 16, .conv2_filters = 16,
                               .conv3_filters = 16, .fc_units = 64,
                               .use_batchnorm = true},
                              rng);
  selective::SelectiveTrainer trainer({.epochs = 6, .batch_size = 16,
                                       .learning_rate = 2e-3,
                                       .target_coverage = 0.8});
  trainer.train(net, train, nullptr, rng);

  QualityResult q;
  q.threshold = selective::calibrate_threshold(net, train, 0.8);
  const auto fp32 = load_classifier(net, {.threshold = q.threshold});
  const selective::QuantizedSelectiveNet qnet =
      selective::quantize_selective_net(net);
  const auto int8 = load_classifier(qnet, {.threshold = q.threshold});

  std::vector<int> labels;
  for (std::size_t i = 0; i < eval.size(); ++i) {
    labels.push_back(static_cast<int>(eval[i].label));
  }
  const auto pf = predict_dataset(*fp32, eval);
  const auto pq = predict_dataset(*int8, eval);
  q.accuracy_fp32 = full_accuracy(pf, labels);
  q.accuracy_int8 = full_accuracy(pq, labels);
  q.coverage_fp32 = coverage_of(pf);
  q.coverage_int8 = coverage_of(pq);
  return q;
}

void print_json(const std::vector<RunResult>& rows, int map_size,
                double ratio, const QualityResult& q) {
  std::printf("{\n  \"bench\": \"bench_quant\",\n");
  std::printf("  \"map_size\": %d,\n", map_size);
  std::printf("  \"pool_threads\": %zu,\n", ThreadPool::global().max_chunks());
  std::printf("  \"quant_vs_fp32\": %.3f,\n", ratio);
  std::printf("  \"accuracy_fp32\": %.4f,\n", q.accuracy_fp32);
  std::printf("  \"accuracy_int8\": %.4f,\n", q.accuracy_int8);
  std::printf("  \"accuracy_delta\": %.4f,\n",
              q.accuracy_int8 - q.accuracy_fp32);
  std::printf("  \"coverage_fp32\": %.4f,\n", q.coverage_fp32);
  std::printf("  \"coverage_int8\": %.4f,\n", q.coverage_int8);
  std::printf("  \"coverage_delta\": %.4f,\n",
              q.coverage_int8 - q.coverage_fp32);
  std::printf("  \"runs\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const RunResult& r = rows[i];
    std::printf("    {\"mode\": \"%s\", \"rep\": %d, \"wafers\": %zu, "
                "\"wall_s\": %.4f, \"throughput_wps\": %.2f}%s\n",
                r.mode.c_str(), r.rep, r.wafers, r.wall_s, r.throughput_wps,
                i + 1 < rows.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const bool json = argc > 1 && std::strcmp(argv[1], "--json") == 0;
  Config env;
  const int map_size = env.get_int("quant_map", 64);
  const int wafers = std::max(
      16, static_cast<int>(env.get_int("quant_wafers", 192) * bench_scale()));
  const int reps = 3;

  Rng rng(7);
  selective::SelectiveNetOptions nopts;  // Table I at full width
  nopts.map_size = map_size;
  selective::SelectiveNet net(nopts, rng);
  const selective::QuantizedSelectiveNet qnet =
      selective::quantize_selective_net(net);
  const auto fp32 = load_classifier(net, {.threshold = 0.5f});
  const auto int8 = load_classifier(qnet, {.threshold = 0.5f});
  const auto stream = make_stream(map_size, wafers);

  if (!json) {
    std::printf("bench_quant: %dx%d maps, Table-I net, %zu wafers/run, "
                "pool=%zu threads\n\n",
                map_size, map_size, stream.size(),
                ThreadPool::global().max_chunks());
  }

  const auto fp32_rows = time_predictor("fp32", *fp32, stream, reps);
  const auto int8_rows = time_predictor("int8", *int8, stream, reps);
  std::vector<RunResult> rows = fp32_rows;
  rows.insert(rows.end(), int8_rows.begin(), int8_rows.end());
  if (!json) {
    for (const RunResult& r : rows) {
      std::printf("%-5s rep %d  %5zu wafers  %7.3f s  %8.1f wafers/s\n",
                  r.mode.c_str(), r.rep, r.wafers, r.wall_s, r.throughput_wps);
    }
  }

  const double base = best_throughput(fp32_rows);
  const double quant = best_throughput(int8_rows);
  const double ratio = base > 0 ? quant / base : 0.0;
  const QualityResult q = measure_quality();

  if (json) {
    print_json(rows, map_size, ratio, q);
  } else {
    std::printf("\nint8 fast path: %.1f wafers/s vs fp32 %.1f wafers/s "
                "(%.2fx)\n", quant, base, ratio);
    std::printf("model quality at tau=%.3f: accuracy %.1f%% -> %.1f%%, "
                "coverage %.1f%% -> %.1f%%\n",
                q.threshold, 100.0 * q.accuracy_fp32, 100.0 * q.accuracy_int8,
                100.0 * q.coverage_fp32, 100.0 * q.coverage_int8);
  }
  return 0;
}
