#include "nn/layers/conv_transpose2d.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "gradcheck.hpp"
#include "nn/layers/conv2d.hpp"

namespace wm::nn {
namespace {

TEST(ConvTransposeTest, OutputSizeFormula) {
  Rng rng(1);
  ConvTranspose2d t({.in_channels = 1, .out_channels = 1, .kernel = 2,
                     .stride = 2, .pad = 0},
                    rng);
  EXPECT_EQ(t.out_size(4), 8);
  ConvTranspose2d same({.in_channels = 1, .out_channels = 1, .kernel = 3,
                        .stride = 1, .pad = 1},
                       rng);
  EXPECT_EQ(same.out_size(7), 7);
}

TEST(ConvTransposeTest, StrideTwoDoublesSpatialDims) {
  Rng rng(2);
  ConvTranspose2d t({.in_channels = 3, .out_channels = 2, .kernel = 2,
                     .stride = 2, .pad = 0},
                    rng);
  const Tensor x = Tensor::normal(Shape{2, 3, 4, 4}, rng);
  const Tensor y = t.forward(x, true);
  EXPECT_EQ(y.shape(), Shape({2, 2, 8, 8}));
}

TEST(ConvTransposeTest, KnownUpsamplingKernel) {
  Rng rng(3);
  ConvTranspose2d t({.in_channels = 1, .out_channels = 1, .kernel = 2,
                     .stride = 2, .pad = 0},
                    rng);
  // All-ones 2x2 kernel with stride 2 copies each input pixel into a 2x2 block.
  t.parameters()[0]->value.fill(1.0f);
  t.parameters()[1]->value.fill(0.0f);
  const Tensor x(Shape{1, 1, 2, 2}, {1, 2, 3, 4});
  const Tensor y = t.forward(x, true);
  ASSERT_EQ(y.shape(), Shape({1, 1, 4, 4}));
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(y.at(0, 0, 1, 1), 1.0f);
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 2), 2.0f);
  EXPECT_FLOAT_EQ(y.at(0, 0, 2, 1), 3.0f);
  EXPECT_FLOAT_EQ(y.at(0, 0, 3, 3), 4.0f);
}

TEST(ConvTransposeTest, AdjointOfConvolution) {
  // <conv(x), y> == <x, convT(y)> when convT shares conv's weight layout —
  // the defining property of the transpose.
  Rng rng(4);
  Conv2d conv({.in_channels = 2, .out_channels = 3, .kernel = 3, .stride = 1,
               .pad = 1},
              rng);
  ConvTranspose2d convT({.in_channels = 3, .out_channels = 2, .kernel = 3,
                         .stride = 1, .pad = 1},
                        rng);
  // Share weights: conv weight is (OC=3, IC*K*K=18); convT wants (IC=3, OC*K*K=18)
  // with identical (oc, ic, kh, kw) element mapping.
  convT.parameters()[0]->value = conv.parameters()[0]->value;
  conv.parameters()[1]->value.fill(0.0f);
  convT.parameters()[1]->value.fill(0.0f);

  const Tensor x = Tensor::normal(Shape{1, 2, 5, 5}, rng);
  const Tensor y = Tensor::normal(Shape{1, 3, 5, 5}, rng);
  const Tensor cx = conv.forward(x, true);
  const Tensor cty = convT.forward(y, true);
  double lhs = 0.0;
  for (std::int64_t i = 0; i < cx.numel(); ++i) lhs += static_cast<double>(cx[i]) * y[i];
  double rhs = 0.0;
  for (std::int64_t i = 0; i < x.numel(); ++i) rhs += static_cast<double>(x[i]) * cty[i];
  EXPECT_NEAR(lhs, rhs, 1e-2 * std::max(1.0, std::fabs(lhs)));
}

TEST(ConvTransposeTest, GradientsMatchFiniteDifferences) {
  Rng rng(5);
  ConvTranspose2d t({.in_channels = 2, .out_channels = 2, .kernel = 2,
                     .stride = 2, .pad = 0},
                    rng);
  const Tensor x = Tensor::normal(Shape{1, 2, 3, 3}, rng, 0.0f, 0.5f);
  const Tensor probe = Tensor::normal(Shape{1, 2, 6, 6}, rng, 0.0f, 0.5f);
  test::check_layer_gradients(t, x, probe);
}

TEST(ConvTransposeTest, GradcheckWithPadding) {
  Rng rng(6);
  ConvTranspose2d t({.in_channels = 1, .out_channels = 2, .kernel = 3,
                     .stride = 1, .pad = 1},
                    rng);
  const Tensor x = Tensor::normal(Shape{1, 1, 4, 4}, rng, 0.0f, 0.5f);
  const Tensor probe = Tensor::normal(Shape{1, 2, 4, 4}, rng, 0.0f, 0.5f);
  test::check_layer_gradients(t, x, probe);
}

TEST(ConvTransposeTest, RejectsWrongChannels) {
  Rng rng(7);
  ConvTranspose2d t({.in_channels = 2, .out_channels = 1, .kernel = 2,
                     .stride = 2, .pad = 0},
                    rng);
  EXPECT_THROW(t.forward(Tensor(Shape{1, 3, 4, 4}), true), ShapeError);
}

// The CAE decoder's backward adds each image's dW/db contribution in batch
// order on any pool size, like Conv2d's: y, dx, dW and db are bit-equal to
// the serial run. The two layers cover both ways dW is split: 6 * 5 * 5 =
// 150 columns split by column runs, 1 * 3 * 3 = 9 columns by rows.
TEST(ConvTranspose2dTest, ParallelMatchesSerial) {
  struct Case {
    ConvTranspose2dOptions opts;
    std::int64_t size;
  };
  const Case cases[] = {
      {{.in_channels = 4, .out_channels = 6, .kernel = 5, .stride = 1,
        .pad = 2},
       8},
      {{.in_channels = 10, .out_channels = 1, .kernel = 3, .stride = 2,
        .pad = 1},
       6},
  };
  for (const Case& c : cases) {
    auto run = [&](std::size_t total_threads) {
      ThreadPool::configure_global(total_threads);
      Rng rng(12);
      ConvTranspose2d t(c.opts, rng);
      const Tensor x =
          Tensor::normal(Shape{9, c.opts.in_channels, c.size, c.size}, rng);
      std::vector<Tensor> out{t.forward(x, true)};
      const Tensor dy = Tensor::normal(out[0].shape(), rng);
      t.zero_grad();
      out.push_back(t.backward(dy));
      for (Parameter* p : t.parameters()) out.push_back(p->grad);
      ThreadPool::configure_global(0);
      return out;
    };
    const std::vector<Tensor> serial = run(1);
    const std::vector<Tensor> threaded = run(4);
    for (std::size_t k = 0; k < serial.size(); ++k) {
      ASSERT_EQ(serial[k].shape(), threaded[k].shape());
      for (std::int64_t i = 0; i < serial[k].numel(); ++i) {
        ASSERT_EQ(serial[k][i], threaded[k][i])
            << "out_channels " << c.opts.out_channels << " tensor " << k
            << " index " << i;
      }
    }
  }
}

}  // namespace
}  // namespace wm::nn
