// Layer-by-layer replays of the served forwards, built only from the public
// nn / nn::quant layers, so each layer can be timed from outside the
// program. The tests check that both replays bit-equal the nets' own
// infer(), so the per-layer times measure the arithmetic that is served.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "core.hpp"
#include "nn/module.hpp"
#include "selective/quant_net.hpp"
#include "selective/selective_net.hpp"

namespace wmbench {

/// Layer names of the fp32 replay, in forward order.
const std::vector<std::string>& fp32_layer_names();
/// Layer names of the int8 replay, in forward order.
const std::vector<std::string>& int8_layer_names();

/// Spans each replayed layer is recorded under: `<prefix>.<layer>`.
struct ReplayTrace {
  SpanRecorder* recorder = nullptr;  // nullptr = untimed
  std::string prefix;
  std::int64_t parent = -1;
};

/// The fp32 SelectiveNet trunk and heads as a chain of public layers whose
/// weights (and BatchNorm running statistics) are copied from the net.
/// fc covers flatten + linear + ReLU; head_g covers linear + sigmoid.
class Fp32Replay {
 public:
  explicit Fp32Replay(wm::selective::SelectiveNet& net);

  /// Eval forward; bit-equal to net.infer(images).
  wm::selective::SelectiveOutput infer(const wm::Tensor& images,
                                       const ReplayTrace& trace = {});

  /// One training forward + selective loss + backward through the chain,
  /// returning the backward seconds of conv1..conv3 (the per-layer view of
  /// SelectiveNet::backward). Parameter gradients accumulate; nothing is
  /// stepped.
  std::array<double, 3> conv_backward_seconds(const wm::Tensor& images,
                                              const std::vector<int>& labels);

 private:
  struct Layer {
    std::string name;
    std::vector<wm::nn::ModulePtr> modules;
  };
  static wm::Tensor run(Layer& layer, const wm::Tensor& x, bool training);
  std::vector<Layer> trunk_;
  Layer head_f_;
  Layer head_g_;
};

/// The int8 QuantizedSelectiveNet forward replayed through its layer
/// accessors: [qconv+relu -> 2x2 max pool] x3 -> flatten -> qfc+relu ->
/// {qhead_f, qhead_g + sigmoid}. Bit-equal to net.infer(images).
class Int8Replay {
 public:
  explicit Int8Replay(const wm::selective::QuantizedSelectiveNet& net)
      : net_(net) {}
  wm::selective::SelectiveOutput infer(const wm::Tensor& images,
                                       const ReplayTrace& trace = {}) const;

 private:
  const wm::selective::QuantizedSelectiveNet& net_;
};

/// Multiply-add operations (x2) of the three convolutions for one wafer of
/// the given edge, in forward order.
std::array<double, 3> conv_flops_per_wafer(
    const wm::selective::SelectiveNetOptions& opts);

}  // namespace wmbench
