#include "nn/model_io.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <sstream>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "nn/layers/activations.hpp"
#include "nn/layers/linear.hpp"
#include "nn/sequential.hpp"
#include "tensor/tensor_ops.hpp"

namespace wm::nn {
namespace {

Sequential make_net(std::uint64_t seed) {
  Rng rng(seed);
  Sequential net;
  net.add(make_layer<Linear>(4, 6, rng))
      .add(make_layer<ReLU>())
      .add(make_layer<Linear>(6, 2, rng));
  return net;
}

TEST(ModelIoTest, RoundTripRestoresExactWeights) {
  Sequential a = make_net(1);
  Sequential b = make_net(2);  // different init

  std::stringstream ss;
  save_parameters(ss, a.parameters());
  load_parameters(ss, b.parameters());

  Rng rng(3);
  const Tensor x = Tensor::normal(Shape{5, 4}, rng);
  const Tensor ya = a.forward(x, false);
  const Tensor yb = b.forward(x, false);
  EXPECT_FLOAT_EQ(max_abs_diff(ya, yb), 0.0f);
}

TEST(ModelIoTest, CountMismatchThrows) {
  Sequential a = make_net(1);
  Rng rng(4);
  Linear lone(4, 2, rng);
  std::stringstream ss;
  save_parameters(ss, a.parameters());
  EXPECT_THROW(load_parameters(ss, lone.parameters()), IoError);
}

TEST(ModelIoTest, ShapeMismatchThrows) {
  Rng rng(5);
  Linear a(4, 2, rng);
  Linear b(4, 3, rng);
  std::stringstream ss;
  save_parameters(ss, a.parameters());
  EXPECT_THROW(load_parameters(ss, b.parameters()), IoError);
}

TEST(ModelIoTest, BadMagicThrows) {
  Rng rng(6);
  Linear a(2, 2, rng);
  std::stringstream ss;
  ss << "garbage-bytes-here";
  EXPECT_THROW(load_parameters(ss, a.parameters()), IoError);
}

TEST(ModelIoTest, FileRoundTrip) {
  const std::string path =
      "/tmp/wm_model_io_test_" + std::to_string(::getpid()) + ".ckpt";
  Sequential a = make_net(7);
  Sequential b = make_net(8);
  save_checkpoint(path, a.parameters());
  load_checkpoint(path, b.parameters());
  Rng rng(9);
  const Tensor x = Tensor::normal(Shape{2, 4}, rng);
  EXPECT_FLOAT_EQ(max_abs_diff(a.forward(x, false), b.forward(x, false)), 0.0f);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace wm::nn
