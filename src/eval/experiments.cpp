#include "eval/experiments.hpp"

#include <algorithm>
#include <limits>

#include "common/env.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "selective/calibrate.hpp"

namespace wm::eval {

ExperimentConfig ExperimentConfig::from_env() {
  ExperimentConfig config;
  const double scale = bench_scale();
  config.data_scale *= scale;
  config.augment_target =
      std::max(20, static_cast<int>(config.augment_target * scale));
  overlay(config.map_size, std::nullopt, "WM_MAP_SIZE", 8, 256);
  overlay(config.data_scale, std::nullopt, "WM_DATA_SCALE", 1e-4, 10.0);
  overlay(config.augment_target, std::nullopt, "WM_AUGMENT_TARGET", 1,
          100'000);
  overlay(config.trainer.epochs, std::nullopt, "WM_EPOCHS", 1, 10'000);
  overlay(config.trainer.lambda, std::nullopt, "WM_LAMBDA", 0.0, 1e6);
  overlay(config.trainer.batch_size, std::nullopt, "WM_BATCH_SIZE", 1, 65'536);
  overlay(config.seed, std::nullopt, "WM_SEED", 0,
          std::numeric_limits<std::int64_t>::max());
  overlay(config.augment, std::nullopt, "WM_AUGMENT");
  overlay(config.net.use_batchnorm, std::nullopt, "WM_BATCHNORM");
  return config;
}

namespace {

void apply_config(const ExperimentConfig& in, ExperimentConfig& out) {
  out = in;
  out.net.map_size = in.map_size;
  out.net.num_classes = kNumDefectTypes;
  out.augmentation.target_per_class = in.augment_target;
  out.augmentation.synthetic_weight = in.synthetic_weight;
  out.augmentation.cae.map_size = in.map_size;
}

}  // namespace

ExperimentData prepare_data(const ExperimentConfig& config) {
  const auto train_counts =
      synth::scale_counts(synth::table2_training_counts(), config.data_scale);
  const auto test_counts =
      synth::scale_counts(synth::table2_testing_counts(), config.data_scale);
  return prepare_data(config, train_counts, test_counts);
}

ExperimentData prepare_data(const ExperimentConfig& config,
                            const std::array<int, kNumDefectTypes>& train_counts,
                            const std::array<int, kNumDefectTypes>& test_counts) {
  ExperimentConfig cfg;
  apply_config(config, cfg);
  Rng rng(cfg.seed);

  ExperimentData data;
  synth::DatasetSpec train_spec{.map_size = cfg.map_size,
                                .class_counts = train_counts};
  data.train_raw = synth::generate_dataset(train_spec, rng);
  data.train_raw.shuffle(rng);
  synth::DatasetSpec test_spec{.map_size = cfg.map_size,
                               .class_counts = test_counts};
  data.test = synth::generate_dataset(test_spec, rng);

  if (cfg.augment) {
    augment::Augmentor augmentor(cfg.augmentation);
    Rng aug_rng = rng.fork();
    data.train_aug = augmentor.augment_dataset(data.train_raw, aug_rng);
    data.train_aug.shuffle(rng);
  } else {
    data.train_aug = data.train_raw;
  }
  log_info("experiment data: train=", data.train_raw.size(), " train_aug=",
           data.train_aug.size(), " test=", data.test.size(), " map=",
           cfg.map_size, "x", cfg.map_size);
  return data;
}

std::unique_ptr<selective::SelectiveNet> train_selective_model(
    const ExperimentConfig& config, const Dataset& training, double c0,
    Rng& rng, selective::TrainingLog* log_out) {
  WM_CHECK(c0 > 0.0 && c0 <= 1.0, "c0 out of (0,1]");
  ExperimentConfig cfg;
  apply_config(config, cfg);
  auto net = std::make_unique<selective::SelectiveNet>(cfg.net, rng);
  selective::TrainerOptions topts = cfg.trainer;
  topts.target_coverage = c0;
  // Reduced-budget training aids: decay the LR and keep the best epoch
  // against a 10% validation carve-out of the (augmented) training data.
  topts.final_lr_fraction = 0.15;
  topts.keep_best = true;
  Rng split_rng = rng.fork();
  const auto [train_split, val_split] =
      training.stratified_split(0.9, split_rng);
  selective::SelectiveTrainer trainer(topts);
  selective::TrainingLog log =
      trainer.train(*net, train_split, &val_split, rng);
  if (log_out != nullptr) *log_out = std::move(log);
  return net;
}

Dataset make_calibration_set(const ExperimentConfig& config) {
  synth::DatasetSpec spec;
  spec.map_size = config.map_size;
  spec.class_counts =
      synth::scale_counts(synth::table2_testing_counts(), config.data_scale);
  Rng rng(config.seed + 0xCA11B);  // disjoint from train/test streams
  return synth::generate_dataset(spec, rng);
}

float calibrated_threshold(const ExperimentConfig& config,
                           const selective::SelectiveNet& net,
                           double coverage) {
  const Dataset calibration = make_calibration_set(config);
  return selective::calibrate_threshold(net, calibration, coverage);
}

ClassifierEval evaluate_classifier(const Classifier& classifier,
                                   const Dataset& test) {
  WM_CHECK(!test.empty(), "empty test set");
  const auto preds = predict_dataset(classifier, test);
  std::vector<int> labels;
  labels.reserve(test.size());
  for (std::size_t i = 0; i < test.size(); ++i) {
    labels.push_back(static_cast<int>(test[i].label));
  }
  ClassifierEval out;
  out.coverage = coverage_of(preds);
  out.selective_acc = selective_accuracy(preds, labels);
  out.full_acc = full_accuracy(preds, labels);
  for (const auto& p : preds) out.abstained += !p.selected;
  return out;
}

}  // namespace wm::eval
