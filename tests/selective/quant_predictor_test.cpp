// Selective prediction through wm::LoadedClassifier over the int8 net:
// quality against fp32, the Classifier interface, batching and thread-count
// invariance, and WSN2 file round trips.
#include "selective/load_classifier.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "nn/layers/maxpool2d.hpp"
#include "selective/calibrate.hpp"
#include "selective/model_file.hpp"
#include "selective/quant_net.hpp"
#include "selective/trainer.hpp"
#include "tensor/tensor_ops.hpp"
#include "wafermap/synth/generator.hpp"

namespace wm::selective {
namespace {

/// One trained small net + dataset shared across the fixture's tests;
/// training is the expensive part, so do it once.
class QuantPredictorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(7);
    synth::DatasetSpec spec;
    spec.map_size = 16;
    spec.class_counts.fill(10);
    data_ = new Dataset(synth::generate_dataset(spec, rng));
    // A larger held-out set for the accuracy-parity assertions: with 270
    // samples one flipped prediction moves accuracy by 0.37%, so the 1%
    // bound is meaningfully testable.
    synth::DatasetSpec eval_spec;
    eval_spec.map_size = 16;
    eval_spec.class_counts.fill(30);
    Rng eval_rng(99);
    eval_ = new Dataset(synth::generate_dataset(eval_spec, eval_rng));
    net_ = new SelectiveNet({.map_size = 16, .num_classes = 9,
                             .conv1_filters = 8, .conv2_filters = 8,
                             .conv3_filters = 8, .fc_units = 32,
                             .use_batchnorm = true},
                            rng);
    SelectiveTrainer trainer({.epochs = 6, .batch_size = 16,
                              .learning_rate = 2e-3, .target_coverage = 0.8});
    trainer.train(*net_, *data_, nullptr, rng);
    qnet_ = new QuantizedSelectiveNet(quantize_selective_net(*net_));
  }
  static void TearDownTestSuite() {
    delete qnet_; qnet_ = nullptr;
    delete net_; net_ = nullptr;
    delete eval_; eval_ = nullptr;
    delete data_; data_ = nullptr;
  }

  static std::vector<int> labels_of(const Dataset& data) {
    std::vector<int> out;
    for (std::size_t i = 0; i < data.size(); ++i) {
      out.push_back(static_cast<int>(data[i].label));
    }
    return out;
  }

  static Dataset* data_;
  static Dataset* eval_;
  static SelectiveNet* net_;
  static QuantizedSelectiveNet* qnet_;
};

Dataset* QuantPredictorTest::data_ = nullptr;
Dataset* QuantPredictorTest::eval_ = nullptr;
SelectiveNet* QuantPredictorTest::net_ = nullptr;
QuantizedSelectiveNet* QuantPredictorTest::qnet_ = nullptr;

TEST_F(QuantPredictorTest, AccuracyAndCoverageTrackFp32) {
  // The ISSUE acceptance bar: at the same calibrated threshold, quantized
  // top-1 accuracy within 1% absolute and coverage within 2% of fp32.
  const float tau = calibrate_threshold(*net_, *data_, 0.8);
  const auto fp32 = load_classifier(*net_, {.threshold = tau});
  const auto quant = load_classifier(*qnet_, {.threshold = tau});
  const auto pf = predict_dataset(*fp32, *eval_);
  const auto pq = predict_dataset(*quant, *eval_);
  const auto y = labels_of(*eval_);
  EXPECT_NEAR(full_accuracy(pq, y), full_accuracy(pf, y), 0.01);
  EXPECT_NEAR(coverage_of(pq), coverage_of(pf), 0.02);
  EXPECT_NEAR(selective_accuracy(pq, y), selective_accuracy(pf, y), 0.02);
}

TEST_F(QuantPredictorTest, ImplementsClassifierInterface) {
  const auto quant = load_classifier(*qnet_, {.threshold = 0.5f});
  const Classifier& c = *quant;
  EXPECT_EQ(c.num_classes(), 9);
  const auto p = c.predict_one((*data_)[0].map);
  EXPECT_GE(p.label, 0);
  EXPECT_LT(p.label, 9);
  EXPECT_GE(p.g, 0.0f);
  EXPECT_LE(p.g, 1.0f);
  EXPECT_GT(p.confidence, 0.0f);
}

TEST_F(QuantPredictorTest, BatchCompositionDoesNotChangeResults) {
  const auto quant = load_classifier(*qnet_, {.threshold = 0.5f});
  const auto all = quant->predict_batch(
      std::span<const WaferMap>(&(*data_)[0].map, 0));
  EXPECT_TRUE(all.empty());
  // 270 wafers: the call splits at the fixed 256-wafer eval batch, so the
  // batched side covers a full and a partial forward.
  std::vector<WaferMap> maps;
  for (std::size_t i = 0; i < eval_->size(); ++i) {
    maps.push_back((*eval_)[i].map);
  }
  const auto batched = quant->predict_batch(maps);
  for (std::size_t i = 0; i < maps.size(); ++i) {
    const auto one = quant->predict_one(maps[i]);
    ASSERT_EQ(one.label, batched[i].label);
    ASSERT_EQ(one.g, batched[i].g);
    ASSERT_EQ(one.confidence, batched[i].confidence);
  }
}

TEST_F(QuantPredictorTest, BitIdenticalAcrossThreadCounts) {
  const auto quant = load_classifier(*qnet_, {.threshold = 0.5f});
  // More than one eval batch, so the threaded run also fans batches out.
  std::vector<WaferMap> maps;
  for (std::size_t i = 0; i < eval_->size(); ++i) {
    maps.push_back((*eval_)[i].map);
  }
  ThreadPool::configure_global(1);
  const auto serial = quant->predict_batch(maps);
  ThreadPool::configure_global(4);
  const auto threaded = quant->predict_batch(maps);
  ThreadPool::configure_global(0);  // restore default
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].label, threaded[i].label);
    ASSERT_EQ(serial[i].g, threaded[i].g);
    ASSERT_EQ(serial[i].confidence, threaded[i].confidence);
  }
}

bool bit_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

TEST_F(QuantPredictorTest, InferBitEqualsLayerChain) {
  // The reference chain: the public batch-wide layer forwards, each conv's
  // (ReLU-fused) output pooled by MaxPool2d, then the dense layers and the
  // sigmoid of g. infer()'s fused per-image trunk must match bit for bit.
  const QuantizedSelectiveNet& q = *qnet_;
  const auto chain = [&q](const Tensor& images) {
    nn::MaxPool2d pool(2);
    Tensor x = pool.forward(q.conv1().forward(images), false);
    x = pool.forward(q.conv2().forward(x), false);
    x = pool.forward(q.conv3().forward(x), false);
    x = q.fc().forward(x.reshape(Shape{x.dim(0), x.numel() / x.dim(0)}));
    SelectiveOutput out;
    out.logits = q.head_f().forward(x);
    out.g = q.head_g().forward(x);
    for (std::int64_t i = 0; i < out.g.numel(); ++i) {
      out.g[i] = 1.0f / (1.0f + std::exp(-out.g[i]));
    }
    return out;
  };
  const Batch whole = eval_->full_batch();
  const Batch one = eval_->make_batch({5});
  for (const Tensor* images : {&whole.images, &one.images}) {
    const SelectiveOutput want = chain(*images);
    const SelectiveOutput got = q.infer(*images);
    EXPECT_TRUE(bit_equal(got.logits, want.logits)) << images->dim(0);
    EXPECT_TRUE(bit_equal(got.g, want.g)) << images->dim(0);
  }
}

TEST_F(QuantPredictorTest, QuantizedModelFileRoundTripsBitwise) {
  // PID-unique: parallel ctest processes must not share the file.
  const std::string path = "/tmp/wm_quant_predictor_test_" +
                           std::to_string(::getpid()) + ".wsn";
  save_quantized_model(path, *qnet_);
  EXPECT_EQ(probe_model_file(path), ModelFileKind::kQuantized);
  auto loaded = load_quantized_model(path);
  std::remove(path.c_str());
  const Batch batch = data_->full_batch();
  const SelectiveOutput a = qnet_->infer(batch.images);
  const SelectiveOutput b = loaded->infer(batch.images);
  EXPECT_FLOAT_EQ(max_abs_diff(a.logits, b.logits), 0.0f);
  EXPECT_FLOAT_EQ(max_abs_diff(a.g, b.g), 0.0f);
}

TEST_F(QuantPredictorTest, LoadClassifierWrapsBothKinds) {
  const std::string pid = std::to_string(::getpid());
  const std::string fpath = "/tmp/wm_quant_auto_f_" + pid + ".wsn";
  const std::string qpath = "/tmp/wm_quant_auto_q_" + pid + ".wsn";
  save_model(fpath, *net_);
  save_quantized_model(qpath, *qnet_);
  const auto f = load_classifier(fpath);
  const auto q = load_classifier(qpath);
  std::remove(fpath.c_str());
  std::remove(qpath.c_str());
  ASSERT_NE(f, nullptr);
  ASSERT_NE(q, nullptr);
  EXPECT_FALSE(f->is_quantized());
  EXPECT_TRUE(q->is_quantized());
  EXPECT_EQ(f->map_size(), 16);
  EXPECT_EQ(q->map_size(), 16);
  // Both wrap the same trained weights, so they should mostly agree.
  const auto pf = predict_dataset(*f, *eval_);
  const auto pq = predict_dataset(*q, *eval_);
  const auto y = labels_of(*eval_);
  EXPECT_NEAR(full_accuracy(pq, y), full_accuracy(pf, y), 0.01);
}

}  // namespace
}  // namespace wm::selective
