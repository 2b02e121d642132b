// Inverted dropout: active only in training mode.
#pragma once

#include "common/rng.hpp"
#include "nn/module.hpp"

namespace wm::nn {

class Dropout final : public Module {
 public:
  /// p is the drop probability in [0, 1).
  Dropout(double p, Rng& rng);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  void release_caches() override { mask_ = Tensor(); }
  std::string name() const override { return "Dropout"; }

  double drop_probability() const { return p_; }

 private:
  double p_;
  Rng rng_;
  Tensor mask_;        // scaled keep mask from the last training forward
  bool used_mask_ = false;
};

}  // namespace wm::nn
