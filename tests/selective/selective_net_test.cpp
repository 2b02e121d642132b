#include "selective/selective_net.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "nn/layers/activations.hpp"
#include "nn/layers/batchnorm2d.hpp"
#include "nn/layers/conv2d.hpp"
#include "nn/layers/flatten.hpp"
#include "nn/layers/linear.hpp"
#include "nn/layers/maxpool2d.hpp"
#include "nn/loss/selective_loss.hpp"
#include "nn/sequential.hpp"
#include "tensor/tensor_ops.hpp"

namespace wm::selective {
namespace {

SelectiveNetOptions tiny_net(int map_size = 16) {
  return {.map_size = map_size, .num_classes = 4, .conv1_filters = 8,
          .conv2_filters = 8, .conv3_filters = 8, .fc_units = 32};
}

TEST(SelectiveNetTest, OutputShapes) {
  Rng rng(1);
  SelectiveNet net(tiny_net(), rng);
  const Tensor x = Tensor::uniform(Shape{3, 1, 16, 16}, rng);
  const SelectiveOutput out = net.forward(x, false);
  EXPECT_EQ(out.logits.shape(), Shape({3, 4}));
  EXPECT_EQ(out.g.shape(), Shape({3, 1}));
}

TEST(SelectiveNetTest, SelectionScoresAreProbabilities) {
  Rng rng(2);
  SelectiveNet net(tiny_net(), rng);
  const Tensor x = Tensor::uniform(Shape{8, 1, 16, 16}, rng);
  const SelectiveOutput out = net.forward(x, false);
  for (std::int64_t i = 0; i < out.g.numel(); ++i) {
    EXPECT_GT(out.g[i], 0.0f);
    EXPECT_LT(out.g[i], 1.0f);
  }
}

TEST(SelectiveNetTest, PaperArchitectureParameterCount) {
  Rng rng(3);
  // Full Table I config at 32x32 with 9 classes.
  SelectiveNet net({.map_size = 32, .num_classes = 9}, rng);
  // conv1: 64*(1*25)+64; conv2: 32*(64*9)+32; conv3: 32*(32*9)+32;
  // fc: (32*4*4)*256+256; f: 256*9+9; g: 256+1.
  const std::int64_t expected = (64 * 25 + 64) + (32 * 64 * 9 + 32) +
                                (32 * 32 * 9 + 32) + (512 * 256 + 256) +
                                (256 * 9 + 9) + (256 + 1);
  EXPECT_EQ(net.parameter_count(), expected);
}

TEST(SelectiveNetTest, RejectsBadOptionsAndInput) {
  Rng rng(4);
  EXPECT_THROW(SelectiveNet({.map_size = 20}, rng), InvalidArgument);
  EXPECT_THROW(SelectiveNet({.map_size = 32, .num_classes = 1}, rng),
               InvalidArgument);
  SelectiveNet net(tiny_net(), rng);
  EXPECT_THROW(net.forward(Tensor(Shape{1, 1, 32, 32}), false), ShapeError);
}

TEST(SelectiveNetTest, BackwardUpdatesBothHeads) {
  Rng rng(5);
  SelectiveNet net(tiny_net(), rng);
  const Tensor x = Tensor::uniform(Shape{4, 1, 16, 16}, rng);
  const SelectiveOutput out = net.forward(x, true);
  nn::SelectiveLoss loss({.target_coverage = 0.9, .lambda = 0.5, .alpha = 0.5});
  const auto r = loss.compute(out.logits, out.g, {0, 1, 2, 3});
  net.zero_grad();
  net.backward(r.grad_logits, r.grad_g);
  // Every parameter should have received some gradient signal.
  int nonzero_params = 0;
  for (nn::Parameter* p : net.parameters()) {
    if (l2_norm(p->grad) > 0.0f) ++nonzero_params;
  }
  EXPECT_EQ(nonzero_params, static_cast<int>(net.parameters().size()));
}

TEST(SelectiveNetTest, SaveLoadRoundTrip) {
  const std::string path =
      "/tmp/wm_selnet_test_" + std::to_string(::getpid()) + ".ckpt";
  Rng rng(6);
  SelectiveNet a(tiny_net(), rng);
  SelectiveNet b(tiny_net(), rng);  // different weights
  a.save(path);
  b.load(path);
  const Tensor x = Tensor::uniform(Shape{2, 1, 16, 16}, rng);
  const SelectiveOutput oa = a.forward(x, false);
  const SelectiveOutput ob = b.forward(x, false);
  EXPECT_FLOAT_EQ(max_abs_diff(oa.logits, ob.logits), 0.0f);
  EXPECT_FLOAT_EQ(max_abs_diff(oa.g, ob.g), 0.0f);
  std::remove(path.c_str());
}

TEST(SelectiveNetTest, CheckpointMismatchThrows) {
  const std::string path =
      "/tmp/wm_selnet_mismatch_" + std::to_string(::getpid()) + ".ckpt";
  Rng rng(7);
  SelectiveNet a(tiny_net(), rng);
  SelectiveNet b({.map_size = 16, .num_classes = 5, .conv1_filters = 8,
                  .conv2_filters = 8, .conv3_filters = 8, .fc_units = 32},
                 rng);
  a.save(path);
  EXPECT_THROW(b.load(path), IoError);
  std::remove(path.c_str());
}

/// The eval forward of `net` as an explicit chain of the public layers'
/// forward(..., false) calls, with the net's parameters and buffers copied
/// in: the reference infer()'s fused per-image trunk must match bit for bit.
SelectiveOutput layer_chain_forward(SelectiveNet& net, const Tensor& images) {
  const SelectiveNetOptions& o = net.options();
  Rng scratch(0);  // initial weights are overwritten below
  nn::Sequential trunk;
  const auto block = [&](std::int64_t in_ch, std::int64_t out_ch,
                         std::int64_t kernel, std::int64_t pad) {
    trunk.add(nn::make_layer<nn::Conv2d>(
        nn::Conv2dOptions{.in_channels = in_ch, .out_channels = out_ch,
                          .kernel = kernel, .stride = 1, .pad = pad},
        scratch));
    if (o.use_batchnorm) {
      trunk.add(nn::make_layer<nn::BatchNorm2d>(
          nn::BatchNorm2dOptions{.channels = out_ch}));
    }
    trunk.add(nn::make_layer<nn::ReLU>());
    trunk.add(nn::make_layer<nn::MaxPool2d>(2));
  };
  block(1, o.conv1_filters, 5, 2);
  block(o.conv1_filters, o.conv2_filters, 3, 1);
  block(o.conv2_filters, o.conv3_filters, 3, 1);
  const std::int64_t feat = static_cast<std::int64_t>(o.conv3_filters) *
                            (o.map_size / 8) * (o.map_size / 8);
  trunk.add(nn::make_layer<nn::Flatten>());
  trunk.add(nn::make_layer<nn::Linear>(feat, o.fc_units, scratch));
  trunk.add(nn::make_layer<nn::ReLU>());
  nn::Sequential head_f;
  head_f.add(nn::make_layer<nn::Linear>(o.fc_units, o.num_classes, scratch));
  nn::Sequential head_g;
  head_g.add(nn::make_layer<nn::Linear>(o.fc_units, 1, scratch));
  head_g.add(nn::make_layer<nn::Sigmoid>());

  const auto src = net.parameters();
  const auto dst = nn::collect_parameters({&trunk, &head_f, &head_g});
  EXPECT_EQ(src.size(), dst.size());
  for (std::size_t i = 0; i < src.size() && i < dst.size(); ++i) {
    EXPECT_EQ(src[i]->name, dst[i]->name);
    dst[i]->value = src[i]->value;
  }
  const auto src_buf = net.buffers();
  const auto dst_buf = trunk.buffers();
  EXPECT_EQ(src_buf.size(), dst_buf.size());
  for (std::size_t i = 0; i < src_buf.size() && i < dst_buf.size(); ++i) {
    *dst_buf[i] = *src_buf[i];
  }

  Tensor x = images;
  for (std::size_t i = 0; i < trunk.size(); ++i) {
    x = trunk.layer(i).forward(x, /*training=*/false);
  }
  SelectiveOutput out;
  out.logits = head_f.forward(x, /*training=*/false);
  out.g = head_g.forward(x, /*training=*/false);
  return out;
}

bool bit_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

TEST(SelectiveNetTest, InferBitEqualsLayerChain) {
  for (const bool use_bn : {false, true}) {
    for (const int size : {16, 24, 32}) {
      Rng rng(static_cast<std::uint64_t>(size) + (use_bn ? 100 : 0));
      SelectiveNet net({.map_size = size, .num_classes = 9,
                        .use_batchnorm = use_bn},
                       rng);
      // Running statistics and scale/shift away from the identity, so every
      // term of the BN affine matters.
      for (Tensor* b : net.buffers()) {
        for (std::int64_t i = 0; i < b->numel(); ++i) {
          (*b)[i] = static_cast<float>(rng.uniform(0.2, 1.5));
        }
      }
      for (nn::Parameter* p : net.parameters()) {
        if (p->name != "bn.gamma" && p->name != "bn.beta") continue;
        for (std::int64_t i = 0; i < p->value.numel(); ++i) {
          p->value[i] = static_cast<float>(rng.uniform(-0.5, 1.5));
        }
      }
      for (const std::int64_t n : {1, 19}) {
        const Tensor x = Tensor::uniform(Shape{n, 1, size, size}, rng);
        const SelectiveOutput want = layer_chain_forward(net, x);
        const SelectiveOutput got = net.infer(x);
        EXPECT_TRUE(bit_equal(got.logits, want.logits))
            << "bn " << use_bn << " size " << size << " batch " << n;
        EXPECT_TRUE(bit_equal(got.g, want.g))
            << "bn " << use_bn << " size " << size << " batch " << n;
        // forward(eval) is infer().
        const SelectiveOutput fwd = net.forward(x, /*training=*/false);
        EXPECT_TRUE(bit_equal(fwd.logits, got.logits));
        EXPECT_TRUE(bit_equal(fwd.g, got.g));
      }
    }
  }
}

}  // namespace
}  // namespace wm::selective
