// The set-up the parts of a benchmark run share, and two of the parts:
//
//   score_lot       offline predict_batch over two held-out lots
//                   (32x32 and 64x64), fp32 and int8
//   train_pipeline  Algorithm 1 augmentation -> selective training ->
//                   calibration -> quantization -> held-out scoring
//
// (serve_open lives in serve.hpp.) Each part runs for the given seconds
// (at least its minimum work) and returns its end-to-end metrics — `wps`
// and `latency_ms`, whose meaning is the part's own — or its per-layer
// metrics when the recorder is enabled, and a tally of every output check
// it made.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core.hpp"
#include "selective/load_classifier.hpp"
#include "selective/quant_net.hpp"
#include "selective/selective_net.hpp"
#include "wafermap/dataset.hpp"

namespace wmbench {

/// The coverage every model is calibrated to (wm_tool's default --c0).
inline constexpr double kTargetCoverage = 0.5;

/// Bit-equality of two answers: label, selection and the float bits of g and
/// the confidence.
bool same_bits(const wm::SelectivePrediction& a,
               const wm::SelectivePrediction& b);

struct PartResult {
  MetricSet metrics;  // end-to-end metrics, or per-layer ones when traced
  Tally tally;
  double headline = 0.0;  // the part's `wps`, traced or not
};

/// A classifier trained in set-up the way `wm_tool train` trains one
/// (Table I net with BatchNorm), calibrated to the target coverage and
/// quantized to int8.
struct Model {
  std::unique_ptr<wm::selective::SelectiveNet> net;
  float threshold = 0.5f;
  std::unique_ptr<wm::selective::QuantizedSelectiveNet> qnet;
  std::unique_ptr<wm::LoadedClassifier> fp32;
  std::unique_ptr<wm::LoadedClassifier> int8;
};

/// Seconds of each set-up stage (summed over the stages' calls).
struct SetupTimes {
  double synth_s = 0.0;
  double train_s = 0.0;
  double calibrate_s = 0.0;
  double quantize_s = 0.0;
  double stack_start_s = 0.0;
};

/// A seeded wafer set with the Table II class mix (`testing` selects the
/// test column, else the training column), about `n` wafers, shuffled.
wm::Dataset table2_set(int map_size, bool testing, int n, wm::Rng& rng);

std::vector<wm::WaferMap> maps_of(const wm::Dataset& data);

/// Trains, calibrates and quantizes one set-up model at `map_size`.
Model train_model(int map_size, std::uint64_t seed, SetupTimes& times);

// --- score_lot --------------------------------------------------------------

struct ScoreCase {
  const char* tag;  // "m32" or "m64"
  const Model* model;
  const std::vector<wm::WaferMap>* lot;
};

PartResult run_score(const std::vector<ScoreCase>& cases, double seconds,
                     std::uint64_t seed, SpanRecorder& rec);

// --- train_pipeline ---------------------------------------------------------

struct TrainData {
  wm::Dataset train;     // scaled Table II training mix, 32x32
  wm::Dataset calib;     // calibration set for the threshold
  wm::Dataset heldout;   // held-out Table II test mix
};

TrainData make_train_data(std::uint64_t seed);

PartResult run_train(const TrainData& data, double seconds,
                     std::uint64_t seed, SpanRecorder& rec);

}  // namespace wmbench
