#include <cstring>

#include "common/rng.hpp"
#include "parts.hpp"
#include "selective/calibrate.hpp"
#include "selective/trainer.hpp"
#include "wafermap/synth/generator.hpp"

namespace wmbench {

using wm::Dataset;
using wm::Rng;

namespace {

// Set-up models are small on purpose: they exist to be scored and served,
// and set-up runs several times per run (setup_s is their median). The
// sizes are wafers before stratification into the Table II mix.
constexpr int kSetupTrain32 = 128;
constexpr int kSetupTrain64 = 48;
constexpr int kSetupCalib32 = 128;
constexpr int kSetupCalib64 = 64;
constexpr int kSetupEpochs = 1;

}  // namespace

bool same_bits(const wm::SelectivePrediction& a,
               const wm::SelectivePrediction& b) {
  return a.label == b.label && a.selected == b.selected &&
         std::memcmp(&a.g, &b.g, sizeof(float)) == 0 &&
         std::memcmp(&a.confidence, &b.confidence, sizeof(float)) == 0;
}

Dataset table2_set(int map_size, bool testing, int n, Rng& rng) {
  const auto base = testing ? wm::synth::table2_testing_counts()
                            : wm::synth::table2_training_counts();
  double total = 0.0;
  for (int c : base) total += c;
  wm::synth::DatasetSpec spec;
  spec.map_size = map_size;
  spec.class_counts = wm::synth::scale_counts(base, n / total);
  Dataset data = wm::synth::generate_dataset(spec, rng);
  data.shuffle(rng);
  return data;
}

std::vector<wm::WaferMap> maps_of(const Dataset& data) {
  std::vector<wm::WaferMap> maps;
  maps.reserve(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) maps.push_back(data[i].map);
  return maps;
}

Model train_model(int map_size, std::uint64_t seed, SetupTimes& times) {
  Rng rng(seed);
  auto t0 = Clock::now();
  const bool small = map_size <= 32;
  const Dataset train =
      table2_set(map_size, false, small ? kSetupTrain32 : kSetupTrain64, rng);
  const Dataset calib =
      table2_set(map_size, true, small ? kSetupCalib32 : kSetupCalib64, rng);
  times.synth_s += seconds_since(t0);

  Model m;
  t0 = Clock::now();
  m.net = std::make_unique<wm::selective::SelectiveNet>(
      wm::selective::SelectiveNetOptions{.map_size = map_size,
                                         .num_classes = wm::kNumDefectTypes,
                                         .use_batchnorm = true},
      rng);
  // wm_tool train's optimiser settings; the epoch budget is the set-up's.
  const wm::selective::SelectiveTrainer trainer(
      {.epochs = kSetupEpochs,
       .batch_size = 32,
       .learning_rate = 2e-3,
       .target_coverage = kTargetCoverage,
       .final_lr_fraction = 0.15});
  trainer.train(*m.net, train, nullptr, rng);
  times.train_s += seconds_since(t0);

  t0 = Clock::now();
  m.threshold = wm::selective::calibrate_threshold(*m.net, calib,
                                                   kTargetCoverage);
  times.calibrate_s += seconds_since(t0);

  t0 = Clock::now();
  m.qnet = std::make_unique<wm::selective::QuantizedSelectiveNet>(
      wm::selective::quantize_selective_net(*m.net));
  m.fp32 = wm::load_classifier(*m.net, {.threshold = m.threshold});
  m.int8 = wm::load_classifier(*m.qnet, {.threshold = m.threshold});
  times.quantize_s += seconds_since(t0);
  return m;
}

}  // namespace wmbench
