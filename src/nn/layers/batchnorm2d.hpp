// Batch normalisation over (N, C, H, W): per-channel statistics across the
// batch and spatial dimensions, learnable scale/shift, running statistics
// for inference.
#pragma once

#include <vector>

#include "nn/module.hpp"

namespace wm::nn {

/// BatchNorm2d's eval-mode affine for one channel: (x - mean) * inv_std,
/// then gamma * norm + beta. forward(eval) and the fused inference epilogue
/// both apply it, so the two cannot drift.
struct BatchNormAffine {
  float mean = 0.0f;
  float inv_std = 1.0f;
  float gamma = 1.0f;
  float beta = 0.0f;

  float operator()(float x) const {
    const float norm = (x - mean) * inv_std;
    return gamma * norm + beta;
  }
};

struct BatchNorm2dOptions {
  std::int64_t channels = 0;
  double eps = 1e-5;
  double momentum = 0.1;  // running-stats update rate
};

class BatchNorm2d final : public Module {
 public:
  explicit BatchNorm2d(const BatchNorm2dOptions& opts);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  void release_caches() override {
    normalized_ = Tensor();
    trained_forward_ = false;
  }
  std::vector<Parameter*> parameters() override { return {&gamma_, &beta_}; }
  std::vector<Tensor*> buffers() override {
    return {&running_mean_, &running_var_};
  }
  std::string name() const override;

  const Tensor& running_mean() const { return running_mean_; }
  const Tensor& running_var() const { return running_var_; }

  /// The eval affine of every channel, from the current running statistics
  /// and parameters. inv_std is recomputed on each call (one sqrt per
  /// channel); nothing is cached, so training never leaves it stale.
  std::vector<BatchNormAffine> eval_affine() const;

 private:
  BatchNormAffine channel_affine(std::int64_t ch) const;
  float inv_std(float var) const;

  BatchNorm2dOptions opts_;
  Parameter gamma_;  // (C), initialised to 1
  Parameter beta_;   // (C), initialised to 0
  Tensor running_mean_;  // (C)
  Tensor running_var_;   // (C)

  // Caches from the last training forward.
  Tensor normalized_;          // x_hat
  std::vector<float> inv_std_; // per channel
  bool trained_forward_ = false;
};

}  // namespace wm::nn
