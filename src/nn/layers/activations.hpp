// Element-wise activation layers: ReLU, Sigmoid, Tanh.
#pragma once

#include "nn/module.hpp"

namespace wm::nn {

/// ReLU of one element. ReLU::forward and the fused inference epilogue
/// (pool2x2) both call it, so the two cannot drift.
inline float relu(float x) { return x > 0.0f ? x : 0.0f; }

class ReLU final : public Module {
 public:
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "ReLU"; }
  void release_caches() override { input_ = Tensor(); }

 private:
  Tensor input_;  // cached for the mask
};

class Sigmoid final : public Module {
 public:
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "Sigmoid"; }
  void release_caches() override { output_ = Tensor(); }

 private:
  Tensor output_;  // sigma(x); derivative is sigma*(1-sigma)
};

class Tanh final : public Module {
 public:
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "Tanh"; }
  void release_caches() override { output_ = Tensor(); }

 private:
  Tensor output_;
};

}  // namespace wm::nn
