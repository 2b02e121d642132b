// Integration tests: end-to-end training of small networks.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "nn/layers/activations.hpp"
#include "nn/layers/batchnorm2d.hpp"
#include "nn/layers/conv2d.hpp"
#include "nn/layers/conv_transpose2d.hpp"
#include "nn/layers/dropout.hpp"
#include "nn/layers/flatten.hpp"
#include "nn/layers/linear.hpp"
#include "nn/layers/maxpool2d.hpp"
#include "nn/loss/cross_entropy.hpp"
#include "nn/optim/optimizer.hpp"
#include "nn/sequential.hpp"
#include "tensor/tensor_ops.hpp"

namespace wm::nn {
namespace {

TEST(SequentialTest, ForwardBackwardChains) {
  Rng rng(1);
  Sequential net;
  net.add(make_layer<Linear>(4, 8, rng))
      .add(make_layer<ReLU>())
      .add(make_layer<Linear>(8, 2, rng));
  EXPECT_EQ(net.size(), 3u);
  EXPECT_EQ(net.parameters().size(), 4u);
  const Tensor x = Tensor::normal(Shape{3, 4}, rng);
  const Tensor y = net.forward(x, true);
  EXPECT_EQ(y.shape(), Shape({3, 2}));
  const Tensor dx = net.backward(Tensor::ones(Shape{3, 2}));
  EXPECT_EQ(dx.shape(), x.shape());
}

// A trained model must not keep its last batch's activations alive:
// release_caches drops everything a training forward cached, so backward
// needs a new training forward afterwards instead of replaying stale state.
TEST(ModuleTest, ReleaseCachesDropsBackwardState) {
  Rng rng(4);
  std::vector<ModulePtr> layers;
  layers.push_back(make_layer<Conv2d>(
      Conv2dOptions{.in_channels = 2, .out_channels = 2, .kernel = 3, .pad = 1},
      rng));
  layers.push_back(make_layer<ConvTranspose2d>(
      ConvTranspose2dOptions{.in_channels = 2, .out_channels = 2, .kernel = 3,
                             .pad = 1},
      rng));
  layers.push_back(make_layer<BatchNorm2d>(BatchNorm2dOptions{.channels = 2}));
  layers.push_back(make_layer<ReLU>());
  layers.push_back(make_layer<Sigmoid>());
  layers.push_back(make_layer<Tanh>());
  layers.push_back(make_layer<MaxPool2d>(2));
  layers.push_back(make_layer<Dropout>(0.5, rng));
  const Tensor x = Tensor::normal(Shape{3, 2, 4, 4}, rng);
  for (auto& layer : layers) {
    SCOPED_TRACE(layer->name());
    const Tensor dy = Tensor::ones(layer->forward(x, /*training=*/true).shape());
    layer->release_caches();
    EXPECT_THROW(layer->backward(dy), Error);
    layer->forward(x, /*training=*/true);
    EXPECT_EQ(layer->backward(dy).shape(), x.shape());
  }
  Sequential mlp;
  mlp.add(make_layer<Linear>(4, 3, rng)).add(make_layer<ReLU>());
  const Tensor v = Tensor::normal(Shape{5, 4}, rng);
  mlp.forward(v, /*training=*/true);
  mlp.release_caches();
  EXPECT_THROW(mlp.backward(Tensor::ones(Shape{5, 3})), Error);
}

TEST(SequentialTest, NameListsLayers) {
  Rng rng(2);
  Sequential net;
  net.add(make_layer<Flatten>()).add(make_layer<ReLU>());
  EXPECT_EQ(net.name(), "Sequential[Flatten, ReLU]");
}

TEST(SequentialTrainTest, LearnsXor) {
  Rng rng(3);
  Sequential net;
  net.add(make_layer<Linear>(2, 16, rng))
      .add(make_layer<Tanh>())
      .add(make_layer<Linear>(16, 2, rng));
  Adam opt(net.parameters(), {.lr = 0.02});

  const Tensor x(Shape{4, 2}, {0, 0, 0, 1, 1, 0, 1, 1});
  const std::vector<int> labels = {0, 1, 1, 0};

  float final_loss = 1e9f;
  for (int epoch = 0; epoch < 400; ++epoch) {
    const Tensor logits = net.forward(x, true);
    const auto loss = SoftmaxCrossEntropy::compute(logits, labels);
    opt.zero_grad();
    net.backward(loss.grad);
    opt.step();
    final_loss = loss.value;
  }
  EXPECT_LT(final_loss, 0.05f);
  const auto preds = argmax_rows(net.forward(x, false));
  for (std::size_t i = 0; i < labels.size(); ++i) {
    EXPECT_EQ(preds[i], labels[i]) << "sample " << i;
  }
}

TEST(SequentialTrainTest, SmallCnnSeparatesSyntheticPatterns) {
  // Two 8x8 classes: bright top-left quadrant vs bright bottom-right quadrant.
  Rng rng(4);
  const int n_per_class = 12;
  Tensor x(Shape{2 * n_per_class, 1, 8, 8});
  std::vector<int> labels;
  for (int i = 0; i < 2 * n_per_class; ++i) {
    const int cls = i % 2;
    labels.push_back(cls);
    for (int r = 0; r < 4; ++r) {
      for (int c = 0; c < 4; ++c) {
        const int rr = cls == 0 ? r : r + 4;
        const int cc = cls == 0 ? c : c + 4;
        x.at(i, 0, rr, cc) = 1.0f + 0.1f * static_cast<float>(rng.normal());
      }
    }
  }

  Sequential net;
  net.add(make_layer<Conv2d>(Conv2dOptions{.in_channels = 1, .out_channels = 4,
                                           .kernel = 3, .stride = 1, .pad = 1},
                             rng))
      .add(make_layer<ReLU>())
      .add(make_layer<MaxPool2d>(2))
      .add(make_layer<Flatten>())
      .add(make_layer<Linear>(4 * 4 * 4, 2, rng));
  Adam opt(net.parameters(), {.lr = 0.01});

  for (int epoch = 0; epoch < 60; ++epoch) {
    const Tensor logits = net.forward(x, true);
    const auto loss = SoftmaxCrossEntropy::compute(logits, labels);
    opt.zero_grad();
    net.backward(loss.grad);
    opt.step();
  }
  const auto preds = argmax_rows(net.forward(x, false));
  int correct = 0;
  for (std::size_t i = 0; i < labels.size(); ++i) correct += (preds[i] == labels[i]);
  EXPECT_EQ(correct, 2 * n_per_class);
}

TEST(DropoutTest, InferenceIsIdentity) {
  Rng rng(5);
  Dropout drop(0.5, rng);
  const Tensor x = Tensor::normal(Shape{4, 4}, rng);
  const Tensor y = drop.forward(x, /*training=*/false);
  for (std::int64_t i = 0; i < x.numel(); ++i) EXPECT_EQ(y[i], x[i]);
}

TEST(DropoutTest, TrainingDropsAndRescales) {
  Rng rng(6);
  Dropout drop(0.5, rng);
  const Tensor x = Tensor::ones(Shape{1, 10000});
  const Tensor y = drop.forward(x, true);
  int zeros = 0;
  double total = 0.0;
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    if (y[i] == 0.0f) {
      ++zeros;
    } else {
      EXPECT_FLOAT_EQ(y[i], 2.0f);  // 1 / (1 - 0.5)
    }
    total += y[i];
  }
  EXPECT_NEAR(static_cast<double>(zeros) / y.numel(), 0.5, 0.05);
  EXPECT_NEAR(total / y.numel(), 1.0, 0.1);  // expectation preserved
}

TEST(DropoutTest, BackwardUsesSameMask) {
  Rng rng(7);
  Dropout drop(0.3, rng);
  const Tensor x = Tensor::ones(Shape{1, 100});
  const Tensor y = drop.forward(x, true);
  const Tensor g = drop.backward(Tensor::ones(Shape{1, 100}));
  for (std::int64_t i = 0; i < y.numel(); ++i) EXPECT_FLOAT_EQ(g[i], y[i]);
}

}  // namespace
}  // namespace wm::nn
