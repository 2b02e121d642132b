#include "replay.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/rng.hpp"
#include "nn/layers/activations.hpp"
#include "nn/layers/batchnorm2d.hpp"
#include "nn/layers/conv2d.hpp"
#include "nn/layers/flatten.hpp"
#include "nn/layers/linear.hpp"
#include "nn/layers/maxpool2d.hpp"
#include "nn/loss/selective_loss.hpp"

namespace wmbench {

using wm::Shape;
using wm::Tensor;
using wm::selective::SelectiveOutput;
namespace nn = wm::nn;

const std::vector<std::string>& fp32_layer_names() {
  static const std::vector<std::string> names = {
      "conv1", "bn1",   "relu1", "pool1", "conv2", "bn2",  "relu2",  "pool2",
      "conv3", "bn3",   "relu3", "pool3", "fc",    "head_f", "head_g"};
  return names;
}

const std::vector<std::string>& int8_layer_names() {
  static const std::vector<std::string> names = {
      "conv1", "pool1", "conv2", "pool2",  "conv3",
      "pool3", "fc",    "head_f", "head_g"};
  return names;
}

namespace {

/// Times `fn` and records it as `<prefix>.<name>` when tracing.
template <typename Fn>
Tensor timed(const ReplayTrace& trace, const std::string& name, Fn&& fn) {
  if (trace.recorder == nullptr) return fn();
  const std::int64_t t0 = now_ns();
  Tensor out = fn();
  trace.recorder->add(trace.prefix + "." + name, t0, now_ns(), trace.parent);
  return out;
}

/// The served int8 pool: 2x2 stride-2 max over (N, C, H, W), serial, as in
/// QuantizedSelectiveNet::infer (whose helper is private to the program).
Tensor maxpool2(const Tensor& x) {
  const std::int64_t h = x.dim(2);
  const std::int64_t w = x.dim(3);
  const std::int64_t oh = h / 2;
  const std::int64_t ow = w / 2;
  Tensor out(Shape{x.dim(0), x.dim(1), oh, ow});
  const std::int64_t planes = x.dim(0) * x.dim(1);
  for (std::int64_t pl = 0; pl < planes; ++pl) {
    const float* plane = x.data() + pl * h * w;
    float* oplane = out.data() + pl * oh * ow;
    for (std::int64_t i = 0; i < oh; ++i) {
      for (std::int64_t j = 0; j < ow; ++j) {
        const float* p = plane + 2 * i * w + 2 * j;
        oplane[i * ow + j] =
            std::max(std::max(p[0], p[1]), std::max(p[w], p[w + 1]));
      }
    }
  }
  return out;
}

}  // namespace

Fp32Replay::Fp32Replay(wm::selective::SelectiveNet& net) {
  const wm::selective::SelectiveNetOptions& o = net.options();
  wm::Rng scratch(0);  // initial weights are overwritten below
  const auto add_block = [&](int idx, std::int64_t in_ch, std::int64_t out_ch,
                             std::int64_t kernel, std::int64_t pad) {
    const std::string n = std::to_string(idx);
    Layer conv{"conv" + n, {}};
    conv.modules.push_back(std::make_unique<nn::Conv2d>(
        nn::Conv2dOptions{.in_channels = in_ch, .out_channels = out_ch,
                          .kernel = kernel, .stride = 1, .pad = pad},
        scratch));
    trunk_.push_back(std::move(conv));
    if (o.use_batchnorm) {
      Layer bn{"bn" + n, {}};
      bn.modules.push_back(std::make_unique<nn::BatchNorm2d>(
          nn::BatchNorm2dOptions{.channels = out_ch}));
      trunk_.push_back(std::move(bn));
    }
    Layer relu{"relu" + n, {}};
    relu.modules.push_back(std::make_unique<nn::ReLU>());
    trunk_.push_back(std::move(relu));
    Layer pool{"pool" + n, {}};
    pool.modules.push_back(std::make_unique<nn::MaxPool2d>(2));
    trunk_.push_back(std::move(pool));
  };
  add_block(1, 1, o.conv1_filters, 5, 2);
  add_block(2, o.conv1_filters, o.conv2_filters, 3, 1);
  add_block(3, o.conv2_filters, o.conv3_filters, 3, 1);
  const std::int64_t feat = static_cast<std::int64_t>(o.conv3_filters) *
                            (o.map_size / 8) * (o.map_size / 8);
  Layer fc{"fc", {}};
  fc.modules.push_back(std::make_unique<nn::Flatten>());
  fc.modules.push_back(std::make_unique<nn::Linear>(feat, o.fc_units, scratch));
  fc.modules.push_back(std::make_unique<nn::ReLU>());
  trunk_.push_back(std::move(fc));
  head_f_.name = "head_f";
  head_f_.modules.push_back(
      std::make_unique<nn::Linear>(o.fc_units, o.num_classes, scratch));
  head_g_.name = "head_g";
  head_g_.modules.push_back(std::make_unique<nn::Linear>(o.fc_units, 1, scratch));
  head_g_.modules.push_back(std::make_unique<nn::Sigmoid>());

  // Parameters and buffers come back in construction order, trunk first,
  // then head_f, then head_g — the order the chain above was built in.
  std::vector<nn::Parameter*> dst;
  std::vector<Tensor*> dst_buf;
  for (Layer& layer : trunk_) {
    for (auto& m : layer.modules) {
      for (nn::Parameter* p : m->parameters()) dst.push_back(p);
      for (Tensor* b : m->buffers()) dst_buf.push_back(b);
    }
  }
  for (Layer* head : {&head_f_, &head_g_}) {
    for (auto& m : head->modules) {
      for (nn::Parameter* p : m->parameters()) dst.push_back(p);
    }
  }
  const std::vector<nn::Parameter*> src = net.parameters();
  const std::vector<Tensor*> src_buf = net.buffers();
  if (src.size() != dst.size() || src_buf.size() != dst_buf.size()) {
    throw std::runtime_error("replay: SelectiveNet layout changed");
  }
  for (std::size_t i = 0; i < src.size(); ++i) {
    if (src[i]->name != dst[i]->name ||
        src[i]->value.shape() != dst[i]->value.shape()) {
      throw std::runtime_error("replay: parameter " + std::to_string(i) +
                               " is " + src[i]->name + ", expected " +
                               dst[i]->name);
    }
    dst[i]->value = src[i]->value;
  }
  for (std::size_t i = 0; i < src_buf.size(); ++i) *dst_buf[i] = *src_buf[i];
}

Tensor Fp32Replay::run(Layer& layer, const Tensor& x, bool training) {
  Tensor y = layer.modules.front()->forward(x, training);
  for (std::size_t i = 1; i < layer.modules.size(); ++i) {
    y = layer.modules[i]->forward(y, training);
  }
  return y;
}

SelectiveOutput Fp32Replay::infer(const Tensor& images,
                                  const ReplayTrace& trace) {
  Tensor x;
  const Tensor* in = &images;
  for (Layer& layer : trunk_) {
    x = timed(trace, layer.name, [&] { return run(layer, *in, false); });
    in = &x;
  }
  SelectiveOutput out;
  out.logits = timed(trace, "head_f", [&] { return run(head_f_, x, false); });
  out.g = timed(trace, "head_g", [&] { return run(head_g_, x, false); });
  return out;
}

std::array<double, 3> Fp32Replay::conv_backward_seconds(
    const Tensor& images, const std::vector<int>& labels) {
  Tensor x = run(trunk_.front(), images, true);
  for (std::size_t i = 1; i < trunk_.size(); ++i) x = run(trunk_[i], x, true);
  const Tensor logits = run(head_f_, x, true);
  const Tensor g = run(head_g_, x, true);
  const nn::SelectiveLoss loss({.target_coverage = 0.5, .lambda = 4.0});
  const nn::SelectiveLossResult r = loss.compute(logits, g, labels);

  const auto backward = [](Layer& layer, Tensor grad) {
    for (auto it = layer.modules.rbegin(); it != layer.modules.rend(); ++it) {
      grad = (*it)->backward(grad);
    }
    return grad;
  };
  Tensor grad = backward(head_f_, r.grad_logits);
  grad.add_(backward(head_g_, r.grad_g));
  std::array<double, 3> conv_s{};
  for (auto it = trunk_.rbegin(); it != trunk_.rend(); ++it) {
    const auto t0 = Clock::now();
    grad = backward(*it, grad);
    if (it->name.rfind("conv", 0) == 0) {
      conv_s[static_cast<std::size_t>(it->name[4] - '1')] = seconds_since(t0);
    }
  }
  return conv_s;
}

SelectiveOutput Int8Replay::infer(const Tensor& images,
                                  const ReplayTrace& trace) const {
  Tensor x = timed(trace, "conv1", [&] { return net_.conv1().forward(images); });
  x = timed(trace, "pool1", [&] { return maxpool2(x); });
  x = timed(trace, "conv2", [&] { return net_.conv2().forward(x); });
  x = timed(trace, "pool2", [&] { return maxpool2(x); });
  x = timed(trace, "conv3", [&] { return net_.conv3().forward(x); });
  x = timed(trace, "pool3", [&] { return maxpool2(x); });
  x = timed(trace, "fc", [&] {
    const std::int64_t n = x.dim(0);
    return net_.fc().forward(
        x.reshape(Shape{n, x.numel() / std::max<std::int64_t>(n, 1)}));
  });
  SelectiveOutput out;
  out.logits = timed(trace, "head_f", [&] { return net_.head_f().forward(x); });
  out.g = timed(trace, "head_g", [&] {
    Tensor g = net_.head_g().forward(x);
    for (std::int64_t i = 0; i < g.numel(); ++i) {
      g[i] = 1.0f / (1.0f + std::exp(-g[i]));
    }
    return g;
  });
  return out;
}

std::array<double, 3> conv_flops_per_wafer(
    const wm::selective::SelectiveNetOptions& o) {
  const double s = o.map_size;
  const double c1 = o.conv1_filters;
  const double c2 = o.conv2_filters;
  const double c3 = o.conv3_filters;
  // 'same' convolutions; each conv sees the map after the previous pools.
  return {2.0 * c1 * (1 * 5 * 5) * s * s,
          2.0 * c2 * (c1 * 3 * 3) * (s / 2) * (s / 2),
          2.0 * c3 * (c2 * 3 * 3) * (s / 4) * (s / 4)};
}

}  // namespace wmbench
