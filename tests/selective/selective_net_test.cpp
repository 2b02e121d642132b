#include "selective/selective_net.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "nn/loss/selective_loss.hpp"
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

}  // namespace
}  // namespace wm::selective
