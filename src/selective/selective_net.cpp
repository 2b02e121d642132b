#include "selective/selective_net.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "nn/layers/activations.hpp"
#include "nn/layers/batchnorm2d.hpp"
#include "nn/layers/conv2d.hpp"
#include "nn/layers/flatten.hpp"
#include "nn/layers/linear.hpp"
#include "nn/layers/maxpool2d.hpp"
#include "nn/model_io.hpp"
#include "obs/trace.hpp"
#include "selective/trunk.hpp"
#include "tensor/tensor_ops.hpp"

namespace wm::selective {

SelectiveNet::SelectiveNet(const SelectiveNetOptions& opts, Rng& rng)
    : opts_(opts) {
  WM_CHECK(opts.map_size >= 8 && opts.map_size % 8 == 0,
           "map size must be a positive multiple of 8 (three 2x2 pools), got ",
           opts.map_size);
  WM_CHECK(opts.num_classes >= 2, "need at least two classes");
  WM_CHECK(opts.conv1_filters > 0 && opts.conv2_filters > 0 &&
               opts.conv3_filters > 0 && opts.fc_units > 0,
           "bad layer sizes");

  const auto add_conv_block = [&](ConvBlock& block, int in_ch, int out_ch,
                                  int kernel, int pad) {
    auto conv = std::make_unique<nn::Conv2d>(
        nn::Conv2dOptions{.in_channels = in_ch, .out_channels = out_ch,
                          .kernel = kernel, .stride = 1, .pad = pad},
        rng);
    block.conv = conv.get();
    trunk_.add(std::move(conv));
    if (opts.use_batchnorm) {
      auto bn = std::make_unique<nn::BatchNorm2d>(
          nn::BatchNorm2dOptions{.channels = out_ch});
      block.bn = bn.get();
      trunk_.add(std::move(bn));
    }
    trunk_.add(nn::make_layer<nn::ReLU>());
    trunk_.add(nn::make_layer<nn::MaxPool2d>(2));
  };
  add_conv_block(blocks_[0], 1, opts.conv1_filters, 5, 2);
  add_conv_block(blocks_[1], opts.conv1_filters, opts.conv2_filters, 3, 1);
  add_conv_block(blocks_[2], opts.conv2_filters, opts.conv3_filters, 3, 1);
  trunk_.add(nn::make_layer<nn::Flatten>());
  fc_index_ = trunk_.size();
  const std::int64_t feat = static_cast<std::int64_t>(opts.conv3_filters) *
                            (opts.map_size / 8) * (opts.map_size / 8);
  trunk_.add(nn::make_layer<nn::Linear>(feat, opts.fc_units, rng))
      .add(nn::make_layer<nn::ReLU>());

  head_f_.add(nn::make_layer<nn::Linear>(opts.fc_units, opts.num_classes, rng));
  head_g_.add(nn::make_layer<nn::Linear>(opts.fc_units, 1, rng))
      .add(nn::make_layer<nn::Sigmoid>());
}

void SelectiveNet::check_input(const Tensor& images) const {
  WM_CHECK_SHAPE(images.rank() == 4 && images.dim(1) == 1 &&
                     images.dim(2) == opts_.map_size &&
                     images.dim(3) == opts_.map_size,
                 "SelectiveNet expects (N,1,", opts_.map_size, ",",
                 opts_.map_size, "), got ", images.shape().to_string());
}

SelectiveOutput SelectiveNet::forward(const Tensor& images, bool training) {
  if (!training) return infer(images);
  check_input(images);
  const Tensor features = trunk_.forward(images, training);
  SelectiveOutput out;
  out.logits = head_f_.forward(features, training);
  out.g = head_g_.forward(features, training);
  return out;
}

SelectiveOutput SelectiveNet::infer(const Tensor& images) const {
  check_input(images);
  const std::int64_t s = opts_.map_size;
  std::array<ConvGeometry, 3> geo;
  // BN's eval affine per block, read now so the trunk sees the current
  // running statistics; empty without BatchNorm.
  std::array<std::vector<nn::BatchNormAffine>, 3> bn;
  std::int64_t col_size = 0;
  for (std::size_t b = 0; b < 3; ++b) {
    geo[b] = blocks_[b].conv->options().geometry(s >> b, s >> b);
    col_size = std::max(col_size, geo[b].col_rows() * geo[b].col_cols());
    if (blocks_[b].bn != nullptr) bn[b] = blocks_[b].bn->eval_affine();
  }
  Tensor x = detail::run_trunk(images, opts_, [&] {
    return detail::TrunkBlock(
        [&, col = std::vector<float>(static_cast<std::size_t>(col_size))](
            int block, const float* in, float* conv, float* out) mutable {
          const std::size_t b = static_cast<std::size_t>(block);
          const ConvGeometry& g = geo[b];
          const nn::Conv2d& layer = *blocks_[b].conv;
          layer.forward_image(g, in, col.data(), conv);
          // The fused epilogue: BN eval affine, then ReLU, then 2x2 max.
          const std::int64_t oc = layer.options().out_channels;
          if (bn[b].empty()) {
            nn::pool2x2(conv, oc, g.out_h(), g.out_w(), out,
                        [](std::int64_t) {
                          return [](float x) { return nn::relu(x); };
                        });
          } else {
            nn::pool2x2(conv, oc, g.out_h(), g.out_w(), out,
                        [&bn, b](std::int64_t c) {
                          return [a = bn[b][static_cast<std::size_t>(c)]](
                                     float x) { return nn::relu(a(x)); };
                        });
          }
        });
  });

  WM_TRACE_SCOPE("infer.heads");
  // Eval forwards of the dense layers write no layer state (backward caches
  // are gated on `training`); they lack a const qualifier only because the
  // training path shares the signature.
  SelectiveNet& self = const_cast<SelectiveNet&>(*this);
  for (std::size_t i = fc_index_; i < trunk_.size(); ++i) {
    x = self.trunk_.layer(i).forward(x, /*training=*/false);
  }
  SelectiveOutput out;
  out.logits = self.head_f_.forward(x, /*training=*/false);
  out.g = self.head_g_.forward(x, /*training=*/false);
  return out;
}

void SelectiveNet::backward(const Tensor& grad_logits, const Tensor& grad_g) {
  Tensor grad_features = head_f_.backward(grad_logits);
  grad_features.add_(head_g_.backward(grad_g));
  trunk_.backward(grad_features);
}

void SelectiveNet::zero_grad() {
  trunk_.zero_grad();
  head_f_.zero_grad();
  head_g_.zero_grad();
}

void SelectiveNet::release_caches() {
  trunk_.release_caches();
  head_f_.release_caches();
  head_g_.release_caches();
}

std::vector<nn::Parameter*> SelectiveNet::parameters() {
  return nn::collect_parameters({&trunk_, &head_f_, &head_g_});
}

std::vector<Tensor*> SelectiveNet::buffers() {
  std::vector<Tensor*> out = trunk_.buffers();
  for (Tensor* b : head_f_.buffers()) out.push_back(b);
  for (Tensor* b : head_g_.buffers()) out.push_back(b);
  return out;
}

std::unique_ptr<SelectiveNet> SelectiveNet::clone() const {
  // The fresh net's random init is immediately overwritten, so any seed
  // works; Tensor assignment is a deep value copy.
  Rng scratch(0);
  auto copy = std::make_unique<SelectiveNet>(opts_, scratch);
  // parameters()/buffers() lack const qualifiers only because training
  // mutates through them; enumeration itself touches nothing.
  SelectiveNet& self = const_cast<SelectiveNet&>(*this);
  const std::vector<nn::Parameter*> src = self.parameters();
  const std::vector<nn::Parameter*> dst = copy->parameters();
  WM_ASSERT(src.size() == dst.size(), "clone parameter count mismatch");
  for (std::size_t i = 0; i < src.size(); ++i) {
    dst[i]->value = src[i]->value;
  }
  const std::vector<Tensor*> src_buf = self.buffers();
  const std::vector<Tensor*> dst_buf = copy->buffers();
  WM_ASSERT(src_buf.size() == dst_buf.size(), "clone buffer count mismatch");
  for (std::size_t i = 0; i < src_buf.size(); ++i) {
    *dst_buf[i] = *src_buf[i];
  }
  return copy;
}

std::int64_t SelectiveNet::parameter_count() {
  return nn::parameter_count(parameters());
}

void SelectiveNet::save(const std::string& path) {
  nn::save_checkpoint(path, parameters());
}

void SelectiveNet::load(const std::string& path) {
  nn::load_checkpoint(path, parameters());
}

}  // namespace wm::selective
