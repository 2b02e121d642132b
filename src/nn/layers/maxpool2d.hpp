// Max pooling over (N, C, H, W) with square window == stride (the paper's
// pools are all 2x2 / stride 2).
#pragma once

#include <limits>
#include <vector>

#include "nn/module.hpp"

namespace wm::nn {

/// 2x2 stride-2 max pool of one (channels, h, w) image into
/// (channels, h/2, w/2), with MaxPool2d's exact semantics: a strict `>` scan
/// from -inf over each window in row-major order. `act(c)` returns the
/// element-wise transform applied to channel c's inputs before the max, so
/// the inference trunk runs BN, ReLU and the pool as one fused epilogue pass
/// over a conv output.
template <typename ChannelAct>
void pool2x2(const float* in, std::int64_t channels, std::int64_t h,
             std::int64_t w, float* out, const ChannelAct& act) {
  const std::int64_t oh = h / 2;
  const std::int64_t ow = w / 2;
  for (std::int64_t c = 0; c < channels; ++c) {
    const auto f = act(c);
    const float* plane = in + c * h * w;
    float* oplane = out + c * oh * ow;
    for (std::int64_t y = 0; y < oh; ++y) {
      const float* r0 = plane + 2 * y * w;
      const float* r1 = r0 + w;
      float* o = oplane + y * ow;
      for (std::int64_t x = 0; x < ow; ++x) {
        float best = -std::numeric_limits<float>::infinity();
        for (const float v : {f(r0[2 * x]), f(r0[2 * x + 1]), f(r1[2 * x]),
                              f(r1[2 * x + 1])}) {
          best = v > best ? v : best;
        }
        o[x] = best;
      }
    }
  }
}

/// Plain 2x2 max pool (no transform): the int8 trunk's epilogue, whose ReLU
/// is already fused into the GEMM.
inline void pool2x2(const float* in, std::int64_t channels, std::int64_t h,
                    std::int64_t w, float* out) {
  pool2x2(in, channels, h, w, out,
          [](std::int64_t) { return [](float x) { return x; }; });
}

class MaxPool2d final : public Module {
 public:
  explicit MaxPool2d(std::int64_t window);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  void release_caches() override { std::vector<std::int64_t>().swap(argmax_); }
  std::string name() const override;

 private:
  std::int64_t window_;
  Shape input_shape_;
  std::vector<std::int64_t> argmax_;  // flat input index per output element
};

}  // namespace wm::nn
