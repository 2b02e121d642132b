#include "selective/load_classifier.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/error.hpp"
#include "common/threadpool.hpp"
#include "selective/model_file.hpp"
#include "tensor/tensor_ops.hpp"

namespace wm {

namespace {

/// Wafers per forward inside predict_batch. Fixed, so batch composition (and
/// with it every output bit) never depends on the caller or the thread count.
constexpr std::size_t kEvalBatch = 256;

}  // namespace

LoadedClassifier::LoadedClassifier(Net net, std::shared_ptr<const void> owner,
                                   const ClassifierLoadOptions& opts)
    : net_(net), owner_(std::move(owner)), threshold_(opts.threshold) {
  WM_CHECK(!std::isnan(threshold_) && threshold_ >= 0.0f && threshold_ <= 1.0f,
           "threshold out of [0,1]");
}

const selective::SelectiveNetOptions& LoadedClassifier::options() const {
  return std::visit(
      [](const auto* net) -> const selective::SelectiveNetOptions& {
        return net->options();
      },
      net_);
}

std::vector<SelectivePrediction> LoadedClassifier::predict_batch(
    std::span<const WaferMap> maps) const {
  const int s = map_size();
  const std::int64_t image_elems = static_cast<std::int64_t>(s) * s;
  const std::size_t n_batches = (maps.size() + kEvalBatch - 1) / kEvalBatch;
  std::vector<SelectivePrediction> all(maps.size());
  ThreadPool::global().parallel_for(0, n_batches, [&](std::size_t b) {
    const std::size_t start = b * kEvalBatch;
    const std::size_t end = std::min(maps.size(), start + kEvalBatch);
    const std::int64_t n = static_cast<std::int64_t>(end - start);
    Tensor images(Shape{n, 1, s, s});
    for (std::int64_t k = 0; k < n; ++k) {
      const WaferMap& map = maps[start + static_cast<std::size_t>(k)];
      WM_CHECK_SHAPE(map.size() == s, "wafer size ", map.size(),
                     " does not match the net's map size ", s);
      const Tensor img = map.to_tensor();
      std::memcpy(images.data() + k * image_elems, img.data(),
                  static_cast<std::size_t>(image_elems) * sizeof(float));
    }
    const selective::SelectiveOutput out = std::visit(
        [&images](const auto* net) { return net->infer(images); }, net_);
    const Tensor probs = softmax_rows(out.logits);
    const auto arg = argmax_rows(out.logits);
    const std::int64_t nc = out.logits.dim(1);
    for (std::size_t i = 0; i < arg.size(); ++i) {
      SelectivePrediction& p = all[start + i];
      const float g = out.g[static_cast<std::int64_t>(i)];
      p.label = static_cast<int>(arg[i]);
      p.g = g;
      p.selected = g >= threshold_;
      p.confidence = probs[static_cast<std::int64_t>(i) * nc + arg[i]];
    }
  });
  return all;
}

std::unique_ptr<LoadedClassifier> load_classifier(
    const std::string& path, const ClassifierLoadOptions& opts) {
  if (selective::probe_model_file(path) == selective::ModelFileKind::kFloat) {
    return load_classifier(selective::load_model(path), opts);
  }
  std::shared_ptr<const selective::QuantizedSelectiveNet> net =
      selective::load_quantized_model(path);
  const selective::QuantizedSelectiveNet* ref = net.get();
  return std::unique_ptr<LoadedClassifier>(
      new LoadedClassifier(ref, std::move(net), opts));
}

std::unique_ptr<LoadedClassifier> load_classifier(
    const selective::SelectiveNet& net, const ClassifierLoadOptions& opts) {
  return std::unique_ptr<LoadedClassifier>(
      new LoadedClassifier(&net, nullptr, opts));
}

std::unique_ptr<LoadedClassifier> load_classifier(
    std::unique_ptr<selective::SelectiveNet> net,
    const ClassifierLoadOptions& opts) {
  WM_CHECK(net != nullptr, "load_classifier: null net");
  std::shared_ptr<const selective::SelectiveNet> owned = std::move(net);
  const selective::SelectiveNet* ref = owned.get();
  return std::unique_ptr<LoadedClassifier>(
      new LoadedClassifier(ref, std::move(owned), opts));
}

std::unique_ptr<LoadedClassifier> load_classifier(
    const selective::QuantizedSelectiveNet& net,
    const ClassifierLoadOptions& opts) {
  return std::unique_ptr<LoadedClassifier>(
      new LoadedClassifier(&net, nullptr, opts));
}

}  // namespace wm
