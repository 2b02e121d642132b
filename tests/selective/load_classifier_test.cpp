// wm::load_classifier and wm::LoadedClassifier — the one selective
// classifier for fp32 and int8: format dispatch from the file header, the
// in-memory overloads, artifact metadata, argument checks, and bit-equality
// with Eq. 2 computed in the test from the raw nets' outputs.
#include "selective/load_classifier.hpp"

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "selective/model_file.hpp"
#include "selective/quant_net.hpp"
#include "tensor/tensor_ops.hpp"
#include "wafermap/synth/generator.hpp"

namespace wm {
namespace {

selective::SelectiveNetOptions small_net_options() {
  return {.map_size = 16, .num_classes = 9, .conv1_filters = 8,
          .conv2_filters = 8, .conv3_filters = 8, .fc_units = 32,
          .use_batchnorm = true};
}

std::vector<WaferMap> maps_of(const Dataset& data) {
  std::vector<WaferMap> maps;
  for (std::size_t i = 0; i < data.size(); ++i) maps.push_back(data[i].map);
  return maps;
}

std::vector<WaferMap> sample_maps(int n = 6, int size = 16) {
  Rng rng(11);
  synth::DatasetSpec spec;
  spec.map_size = size;
  spec.class_counts.fill(1);
  const Dataset data = synth::generate_dataset(spec, rng);
  std::vector<WaferMap> maps;
  for (int i = 0; i < n && i < static_cast<int>(data.size()); ++i) {
    maps.push_back(data[i].map);
  }
  return maps;
}

/// 306 wafers at 16x16: more than one 256-wafer eval batch, still cheap.
const Dataset& lot() {
  static const Dataset data = [] {
    Rng rng(12);
    synth::DatasetSpec spec;
    spec.map_size = 16;
    spec.class_counts.fill(34);
    return synth::generate_dataset(spec, rng);
  }();
  return data;
}

/// Eq. 2 computed directly from a net's raw outputs: one infer() over the
/// whole lot, then softmax and argmax per row, and selection at g >= tau.
template <typename Net>
std::vector<SelectivePrediction> reference(const Net& net, float tau) {
  const selective::SelectiveOutput out = net.infer(lot().full_batch().images);
  const Tensor probs = softmax_rows(out.logits);
  const auto arg = argmax_rows(out.logits);
  const std::int64_t nc = out.logits.dim(1);
  std::vector<SelectivePrediction> ref(lot().size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const auto row = static_cast<std::int64_t>(i);
    ref[i].label = static_cast<int>(arg[i]);
    ref[i].g = out.g[row];
    ref[i].selected = ref[i].g >= tau;
    ref[i].confidence = probs[row * nc + arg[i]];
  }
  return ref;
}

void expect_bit_equal(const std::vector<SelectivePrediction>& got,
                      const std::vector<SelectivePrediction>& want,
                      const char* how) {
  ASSERT_EQ(got.size(), want.size()) << how;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].label, want[i].label) << how << " wafer " << i;
    ASSERT_EQ(got[i].selected, want[i].selected) << how << " wafer " << i;
    // Exact float comparison: the bits must match, not just be near.
    ASSERT_EQ(got[i].g, want[i].g) << how << " wafer " << i;
    ASSERT_EQ(got[i].confidence, want[i].confidence) << how << " wafer " << i;
  }
}

/// The classifier must reproduce `want` over the lot predicted whole, one
/// wafer at a time, and in uneven caller-side chunks that straddle the
/// 256-wafer eval batch.
void expect_matches_reference(const LoadedClassifier& clf,
                              const std::vector<SelectivePrediction>& want) {
  const std::vector<WaferMap> maps = maps_of(lot());
  expect_bit_equal(clf.predict_batch(maps), want, "whole");

  std::vector<SelectivePrediction> single;
  for (const WaferMap& m : maps) single.push_back(clf.predict_one(m));
  expect_bit_equal(single, want, "one at a time");

  const std::span<const WaferMap> all(maps);
  std::vector<SelectivePrediction> chunked;
  std::size_t start = 0;
  for (const std::size_t len : {3, 250, 7, 41}) {  // 253 | 260 cross 256
    const auto part = clf.predict_batch(all.subspan(start, len));
    chunked.insert(chunked.end(), part.begin(), part.end());
    start += len;
  }
  const auto rest = clf.predict_batch(all.subspan(start));
  chunked.insert(chunked.end(), rest.begin(), rest.end());
  expect_bit_equal(chunked, want, "chunked");
}

class LoadClassifierTest : public ::testing::Test {
 protected:
  std::string path_ = "/tmp/wm_load_classifier_test_" +
                      std::to_string(::getpid()) + ".wsn";
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(LoadClassifierTest, Fp32FileRoundTripsThroughFactory) {
  Rng rng(1);
  selective::SelectiveNet net(small_net_options(), rng);
  selective::save_model(path_, net);

  const auto clf = load_classifier(path_, {.threshold = 0.5f});
  EXPECT_EQ(clf->map_size(), 16);
  EXPECT_FALSE(clf->is_quantized());
  EXPECT_FLOAT_EQ(clf->threshold(), 0.5f);
  EXPECT_EQ(clf->num_classes(), 9);
  expect_matches_reference(*clf, reference(net, 0.5f));

  const auto strict = load_classifier(path_, {.threshold = 0.7f});
  EXPECT_FLOAT_EQ(strict->threshold(), 0.7f);
  expect_matches_reference(*strict, reference(net, 0.7f));
}

TEST_F(LoadClassifierTest, QuantizedFileRoundTripsThroughFactory) {
  Rng rng(2);
  selective::SelectiveNet net(small_net_options(), rng);
  const selective::QuantizedSelectiveNet qnet =
      selective::quantize_selective_net(net);
  selective::save_quantized_model(path_, qnet);

  const auto clf = load_classifier(path_);
  EXPECT_EQ(clf->map_size(), 16);
  EXPECT_TRUE(clf->is_quantized());
  EXPECT_FLOAT_EQ(clf->threshold(), 0.5f);
  EXPECT_EQ(clf->num_classes(), 9);
  expect_matches_reference(*clf, reference(qnet, 0.5f));
}

TEST_F(LoadClassifierTest, InMemoryOverloadsMatchFileLoads) {
  Rng rng(3);
  selective::SelectiveNet net(small_net_options(), rng);
  const auto borrowed = load_classifier(net, {.threshold = 0.5f});
  EXPECT_FALSE(borrowed->is_quantized());
  EXPECT_EQ(borrowed->map_size(), 16);
  expect_matches_reference(*borrowed, reference(net, 0.5f));

  selective::save_model(path_, net);
  const auto from_file = load_classifier(path_, {.threshold = 0.5f});
  const auto maps = sample_maps();
  const auto a = borrowed->predict_batch(maps);
  const auto b = from_file->predict_batch(maps);
  for (std::size_t i = 0; i < maps.size(); ++i) {
    EXPECT_EQ(a[i].label, b[i].label) << i;
    EXPECT_FLOAT_EQ(a[i].g, b[i].g) << i;
  }

  // The owning overload keeps a moved-in net alive on its own.
  const auto owned = load_classifier(net.clone(), {.threshold = 0.5f});
  EXPECT_FALSE(owned->is_quantized());
  expect_matches_reference(*owned, reference(net, 0.5f));

  const selective::QuantizedSelectiveNet qnet =
      selective::quantize_selective_net(net);
  const auto quant = load_classifier(qnet);
  EXPECT_TRUE(quant->is_quantized());
  EXPECT_EQ(quant->num_classes(), 9);
  EXPECT_EQ(quant->map_size(), 16);
  expect_matches_reference(*quant, reference(qnet, 0.5f));
}

TEST_F(LoadClassifierTest, RejectsOutOfRangeThreshold) {
  Rng rng(4);
  selective::SelectiveNet net(small_net_options(), rng);
  const selective::QuantizedSelectiveNet qnet =
      selective::quantize_selective_net(net);
  selective::save_quantized_model(path_, qnet);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const float tau : {-0.1f, 1.1f, nan}) {
    EXPECT_THROW(load_classifier(net, {.threshold = tau}), InvalidArgument);
    EXPECT_THROW(load_classifier(qnet, {.threshold = tau}), InvalidArgument);
    EXPECT_THROW(load_classifier(path_, {.threshold = tau}), InvalidArgument);
  }
  EXPECT_FLOAT_EQ(load_classifier(qnet, {.threshold = 0.0f})->threshold(),
                  0.0f);
  EXPECT_FLOAT_EQ(load_classifier(qnet, {.threshold = 1.0f})->threshold(),
                  1.0f);
  EXPECT_THROW(load_classifier(std::unique_ptr<selective::SelectiveNet>()),
               InvalidArgument);
}

TEST_F(LoadClassifierTest, MissingFileThrowsIoError) {
  EXPECT_THROW(load_classifier("/nonexistent/model.wsn"), IoError);
}

TEST_F(LoadClassifierTest, UnreadableFilesThrowIoError) {
  // Zero bytes, a directory (opens readably on POSIX, every read fails) and
  // a file shorter than the magic+version header: IoError, never a crash.
  { std::ofstream out(path_, std::ios::binary | std::ios::trunc); }
  EXPECT_THROW(load_classifier(path_), IoError);
  EXPECT_THROW(load_classifier("/tmp"), IoError);
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write("WS", 2);
  }
  EXPECT_THROW(load_classifier(path_), IoError);
}

}  // namespace
}  // namespace wm
