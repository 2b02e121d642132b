// Selective prediction (Eq. 2) through wm::LoadedClassifier over an fp32
// net: output fields, the threshold's edge values, batching invariance,
// argument checks, the metric helpers and threshold calibration.
#include "selective/load_classifier.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "selective/calibrate.hpp"
#include "wafermap/synth/generator.hpp"

namespace wm::selective {
namespace {

SelectiveNetOptions tiny_net() {
  return {.map_size = 16, .num_classes = 9, .conv1_filters = 8,
          .conv2_filters = 8, .conv3_filters = 8, .fc_units = 32};
}

Dataset small_dataset(std::uint64_t seed, int per_class = 6) {
  Rng rng(seed);
  synth::DatasetSpec spec;
  spec.map_size = 16;
  spec.class_counts.fill(per_class);
  return synth::generate_dataset(spec, rng);
}

std::vector<WaferMap> maps_of(const Dataset& data) {
  std::vector<WaferMap> maps;
  for (std::size_t i = 0; i < data.size(); ++i) maps.push_back(data[i].map);
  return maps;
}

TEST(PredictorTest, PredictionFieldsPopulated) {
  Rng rng(1);
  SelectiveNet net(tiny_net(), rng);
  const Dataset data = small_dataset(2);
  const auto predictor = load_classifier(net, {.threshold = 0.5f});
  const auto preds = predict_dataset(*predictor, data);
  ASSERT_EQ(preds.size(), data.size());
  for (const auto& p : preds) {
    EXPECT_GE(p.label, 0);
    EXPECT_LT(p.label, 9);
    EXPECT_GE(p.g, 0.0f);
    EXPECT_LE(p.g, 1.0f);
    EXPECT_GT(p.confidence, 0.0f);
    EXPECT_LE(p.confidence, 1.0f);
    EXPECT_EQ(p.selected, p.g >= 0.5f);
  }
}

TEST(PredictorTest, ThresholdZeroSelectsAll) {
  Rng rng(2);
  SelectiveNet net(tiny_net(), rng);
  const Dataset data = small_dataset(3);
  const auto predictor = load_classifier(net, {.threshold = 0.0f});
  EXPECT_DOUBLE_EQ(coverage_of(predict_dataset(*predictor, data)), 1.0);
}

TEST(PredictorTest, ThresholdOneSelectsNone) {
  Rng rng(3);
  SelectiveNet net(tiny_net(), rng);
  const Dataset data = small_dataset(4);
  const auto predictor = load_classifier(net, {.threshold = 1.0f});
  EXPECT_DOUBLE_EQ(coverage_of(predict_dataset(*predictor, data)), 0.0);
}

TEST(PredictorTest, BatchedAndWholeSetAgree) {
  Rng rng(4);
  SelectiveNet net(tiny_net(), rng);
  const auto maps = maps_of(small_dataset(5, 4));
  const auto predictor = load_classifier(net, {.threshold = 0.5f});
  // Caller-side chunks of 7 against one call over the whole set.
  const std::span<const WaferMap> all(maps);
  std::vector<SelectivePrediction> a;
  for (std::size_t s = 0; s < all.size(); s += 7) {
    const auto part = predictor->predict_batch(
        all.subspan(s, std::min<std::size_t>(7, all.size() - s)));
    a.insert(a.end(), part.begin(), part.end());
  }
  const auto b = predictor->predict_batch(maps);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].label, b[i].label);
    EXPECT_EQ(a[i].g, b[i].g);
  }
}

TEST(PredictorTest, BitIdenticalAcrossThreadCounts) {
  Rng rng(12);
  SelectiveNetOptions opts = tiny_net();
  opts.use_batchnorm = true;
  SelectiveNet net(opts, rng);
  const auto predictor = load_classifier(net, {.threshold = 0.5f});
  // 270 wafers, more than one eval batch of 256: the threaded run fans the
  // batches out, and inside a batch the trunk fans its images out.
  const auto maps = maps_of(small_dataset(13, 30));
  ThreadPool::configure_global(1);
  const auto serial = predictor->predict_batch(maps);
  ThreadPool::configure_global(4);
  const auto threaded = predictor->predict_batch(maps);
  ThreadPool::configure_global(0);  // restore default
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].label, threaded[i].label);
    ASSERT_EQ(std::bit_cast<std::uint32_t>(serial[i].g),
              std::bit_cast<std::uint32_t>(threaded[i].g));
    ASSERT_EQ(std::bit_cast<std::uint32_t>(serial[i].confidence),
              std::bit_cast<std::uint32_t>(threaded[i].confidence));
  }
}

TEST(PredictorTest, PredictOneMatchesBatch) {
  Rng rng(5);
  SelectiveNet net(tiny_net(), rng);
  const Dataset data = small_dataset(6, 2);
  const auto predictor = load_classifier(net, {.threshold = 0.5f});
  const auto preds = predict_dataset(*predictor, data);
  const auto single = predictor->predict_one(data[3].map);
  EXPECT_EQ(single.label, preds[3].label);
  EXPECT_NEAR(single.g, preds[3].g, 1e-6f);
}

TEST(PredictorTest, EmptySpanYieldsNoPredictions) {
  Rng rng(5);
  SelectiveNet net(tiny_net(), rng);
  const auto predictor = load_classifier(net, {.threshold = 0.5f});
  EXPECT_TRUE(predictor->predict_batch({}).empty());
}

TEST(PredictorTest, RejectsMismatchedMapSize) {
  Rng rng(5);
  SelectiveNet net(tiny_net(), rng);  // 16x16 net
  const auto predictor = load_classifier(net, {.threshold = 0.5f});
  EXPECT_THROW(predictor->predict_one(WaferMap(24)), ShapeError);
}

TEST(PredictorTest, MetricsComputedCorrectly) {
  std::vector<SelectivePrediction> preds(4);
  preds[0] = {.label = 0, .selected = true};
  preds[1] = {.label = 1, .selected = true};
  preds[2] = {.label = 2, .selected = false};
  preds[3] = {.label = 3, .selected = true};
  const std::vector<int> labels = {0, 9, 2, 3};
  EXPECT_DOUBLE_EQ(coverage_of(preds), 0.75);
  EXPECT_DOUBLE_EQ(selective_accuracy(preds, labels), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(full_accuracy(preds, labels), 0.75);
}

TEST(PredictorTest, EmptySelectionConvention) {
  std::vector<SelectivePrediction> preds(2);
  preds[0].selected = false;
  preds[1].selected = false;
  EXPECT_DOUBLE_EQ(selective_accuracy(preds, {0, 1}), 1.0);
  EXPECT_DOUBLE_EQ(coverage_of(preds), 0.0);
}

TEST(PredictorTest, RejectsBadArguments) {
  Rng rng(6);
  SelectiveNet net(tiny_net(), rng);
  EXPECT_THROW(load_classifier(net, {.threshold = -0.1f}), InvalidArgument);
  EXPECT_THROW(load_classifier(net, {.threshold = 1.1f}), InvalidArgument);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_THROW(load_classifier(net, {.threshold = nan}), InvalidArgument);
  EXPECT_EQ(load_classifier(net)->threshold(), 0.5f);  // the default
  EXPECT_THROW(selective_accuracy({}, {0}), InvalidArgument);
}

TEST(CalibrateTest, HitsRequestedCoverage) {
  Rng rng(7);
  SelectiveNet net(tiny_net(), rng);
  const Dataset data = small_dataset(8, 10);  // 90 samples
  for (double target : {0.2, 0.5, 0.9}) {
    const float tau = calibrate_threshold(net, data, target);
    const auto predictor = load_classifier(net, {.threshold = tau});
    const double cov = coverage_of(predict_dataset(*predictor, data));
    EXPECT_NEAR(cov, target, 0.06) << "target " << target;
    EXPECT_GE(cov, target - 1e-9) << "target " << target;
  }
}

TEST(CalibrateTest, FullCoverageThresholdSelectsEverything) {
  Rng rng(8);
  SelectiveNet net(tiny_net(), rng);
  const Dataset data = small_dataset(9, 4);
  const float tau = calibrate_threshold(net, data, 1.0);
  const auto predictor = load_classifier(net, {.threshold = tau});
  EXPECT_DOUBLE_EQ(coverage_of(predict_dataset(*predictor, data)), 1.0);
}

TEST(CalibrateTest, RejectsBadInputs) {
  Rng rng(9);
  SelectiveNet net(tiny_net(), rng);
  const Dataset data = small_dataset(10, 2);
  EXPECT_THROW(calibrate_threshold(net, data, 0.0), InvalidArgument);
  EXPECT_THROW(calibrate_threshold(net, data, 1.5), InvalidArgument);
  EXPECT_THROW(calibrate_threshold(net, Dataset{}, 0.5), InvalidArgument);
}

}  // namespace
}  // namespace wm::selective
