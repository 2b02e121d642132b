// 2-D convolution over (N, C, H, W) batches, lowered to GEMM via im2col.
//
// forward() fans the batch out across ThreadPool::global() and runs
// forward_image() on each image; every chunk owns its im2col scratch, so
// forward in eval mode is reentrant and the layer is safe to call
// concurrently from the selective predictor. backward() adds each image's
// dW/db contribution in batch order on any pool size (conv_grad.hpp), so
// training is bit-identical for every thread count. The input cache needed
// by backward is only captured when training.
#pragma once

#include "nn/module.hpp"
#include "tensor/im2col.hpp"

namespace wm {
class Rng;
}

namespace wm::nn {

struct Conv2dOptions {
  std::int64_t in_channels = 0;
  std::int64_t out_channels = 0;
  std::int64_t kernel = 0;   // square kernels (the paper uses 5x5 / 3x3)
  std::int64_t stride = 1;
  std::int64_t pad = 0;      // use kernel/2 for 'same' output at stride 1

  /// Validated geometry for an (in_channels, h, w) input; sizes the im2col
  /// scratch of the convs' forward_image().
  ConvGeometry geometry(std::int64_t h, std::int64_t w) const;
};

class Conv2d final : public Module {
 public:
  Conv2d(const Conv2dOptions& opts, Rng& rng);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  void release_caches() override { input_ = Tensor(); }
  std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }
  std::string name() const override;

  const Conv2dOptions& options() const { return opts_; }

  /// Convolves one image (in_channels, g.height, g.width) into `out`
  /// (out_channels, g.out_h(), g.out_w()), using `col` (g.col_rows() x
  /// g.col_cols()) as im2col scratch. No span, counter or layer state: the
  /// building block of forward() and of the per-image inference trunk.
  void forward_image(const ConvGeometry& g, const float* image, float* col,
                     float* out) const;

 private:
  Conv2dOptions opts_;
  Parameter weight_;  // (OC, IC*K*K)
  Parameter bias_;    // (OC)
  Tensor input_;      // cached (N, C, H, W), training forward only
};

}  // namespace wm::nn
