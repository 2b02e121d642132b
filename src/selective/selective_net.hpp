// The paper's selective CNN (Table I + Fig 2).
//
// Trunk (shared "main body blocks"):
//   Conv 5x5 x64 -> ReLU -> MaxPool 2x2
//   Conv 3x3 x32 -> ReLU -> MaxPool 2x2
//   Conv 3x3 x32 -> ReLU -> MaxPool 2x2
//   Flatten -> FC 256 -> ReLU
// Heads (departing after the main blocks):
//   prediction head f: FC(256 -> n_c) logits
//   selection head g:  FC(256 -> 1) -> sigmoid
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "nn/sequential.hpp"
#include "tensor/tensor.hpp"

namespace wm {
class Rng;
}

namespace wm::nn {
class BatchNorm2d;
class Conv2d;
}  // namespace wm::nn

namespace wm::selective {

struct SelectiveNetOptions {
  int map_size = 32;
  int num_classes = 9;
  /// Table I values; exposed so tests can shrink the net.
  int conv1_filters = 64;
  int conv2_filters = 32;
  int conv3_filters = 32;
  int fc_units = 256;
  /// Adds BatchNorm after each conv. Not part of the paper's Table I; the
  /// experiment harness enables it to converge within the reduced epoch
  /// budget of this reproduction (see DESIGN.md §1).
  bool use_batchnorm = false;
};

/// Output of one forward pass.
struct SelectiveOutput {
  Tensor logits;  // (N, n_c)
  Tensor g;       // (N, 1) selection probabilities in (0, 1)
};

class SelectiveNet {
 public:
  SelectiveNet(const SelectiveNetOptions& opts, Rng& rng);

  /// Forward through trunk and both heads. The eval forward
  /// (training = false) is infer().
  SelectiveOutput forward(const Tensor& images, bool training);

  /// Eval-mode forward: the per-image trunk (selective/trunk.hpp) with BN,
  /// ReLU and the 2x2 pool fused into one epilogue per conv, then FC and the
  /// heads batch-wide. Bit-identical to the layer chain's eval forward. It
  /// writes no layer state (DESIGN.md §7), so it is safe to call
  /// concurrently on one net.
  SelectiveOutput infer(const Tensor& images) const;

  /// Backward given the loss gradients of both heads (from SelectiveLoss).
  /// Head gradients merge at the trunk output.
  void backward(const Tensor& grad_logits, const Tensor& grad_g);

  /// Zeroes all gradients.
  void zero_grad();

  /// Drops every layer's backward caches (nn::Module::release_caches).
  void release_caches();

  std::vector<nn::Parameter*> parameters();

  /// Persistent non-parameter state (BatchNorm running statistics).
  std::vector<Tensor*> buffers();

  /// Deep copy: same architecture, parameter values, and buffer state
  /// (BatchNorm running statistics). The drift-adaptation path fine-tunes a
  /// clone so the incumbent keeps serving unchanged until the candidate
  /// passes canary verification.
  std::unique_ptr<SelectiveNet> clone() const;

  const SelectiveNetOptions& options() const { return opts_; }

  /// Number of learnable scalars (for reporting).
  std::int64_t parameter_count();

  void save(const std::string& path);
  void load(const std::string& path);

 private:
  void check_input(const Tensor& images) const;

  /// Typed views of one conv block's layers in trunk_, for infer().
  struct ConvBlock {
    nn::Conv2d* conv = nullptr;
    nn::BatchNorm2d* bn = nullptr;  // null without BatchNorm
  };

  SelectiveNetOptions opts_;
  nn::Sequential trunk_;
  nn::Sequential head_f_;
  nn::Sequential head_g_;
  std::array<ConvBlock, 3> blocks_;
  std::size_t fc_index_ = 0;  // trunk_ index of the FC layer
};

}  // namespace wm::selective
