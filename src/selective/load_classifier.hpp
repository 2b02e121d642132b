// The selective classifier (f, g, tau) of Eq. 2 and its one factory,
// wm::load_classifier: predict f(x) when g(x) >= tau, abstain otherwise.
//
//   auto clf = wm::load_classifier("model.wsn", {.threshold = 0.7f});
//   engine = serve::InferenceEngine(*clf, ...);
//
// The file overload probes the artifact version (WSN1 fp32 / WSN2 int8 via
// selective::probe_model_file) and loads the matching net — callers never
// dispatch on the format themselves. The in-memory overloads wrap an
// already-constructed net (no file involved) behind the same class, so
// examples and benches that train a model in-process use the identical
// vocabulary as the tools that load one from disk.
//
// Precision is a property of the artifact, not of the classifier: one
// LoadedClassifier holds exactly one net, fp32 or int8, and runs the same
// batching and selection over either. It IS-A wm::Classifier (drop it into
// the inference engine, the TCP server, the hot-swap wrapper, the router
// fleet) and additionally reports the artifact metadata serving paths need:
// the wafer edge the model expects, whether the int8 net is active, and the
// abstention threshold it was built with.
#pragma once

#include <memory>
#include <string>
#include <variant>

#include "selective/quant_net.hpp"
#include "selective/selective_net.hpp"
#include "serve/classifier.hpp"

namespace wm {

struct ClassifierLoadOptions {
  /// Abstention cut on g (Eq. 2); 0.5 matches the trained sigmoid boundary.
  /// Must lie in [0, 1]; checked.
  float threshold = 0.5f;
};

class LoadedClassifier;

/// Loads a model file of either version (WSN1 fp32 / WSN2 quantized),
/// dispatching on the header, and returns it behind the classifier
/// interface. Throws wm::IoError on unreadable/truncated/unknown-version
/// files; the error names the problem.
std::unique_ptr<LoadedClassifier> load_classifier(
    const std::string& path, const ClassifierLoadOptions& opts = {});

/// Wraps an in-memory fp32 net (borrowed; must outlive the classifier).
std::unique_ptr<LoadedClassifier> load_classifier(
    const selective::SelectiveNet& net, const ClassifierLoadOptions& opts = {});

/// Takes ownership of an in-memory fp32 net — the classifier carries the
/// model for its whole lifetime. The drift-adaptation path builds hot-swap
/// candidates this way: a fine-tuned clone goes in, a self-contained
/// shared_ptr<const Classifier> comes out of swap_to's hands.
std::unique_ptr<LoadedClassifier> load_classifier(
    std::unique_ptr<selective::SelectiveNet> net,
    const ClassifierLoadOptions& opts = {});

/// Wraps an in-memory quantized net (borrowed; must outlive the classifier).
std::unique_ptr<LoadedClassifier> load_classifier(
    const selective::QuantizedSelectiveNet& net,
    const ClassifierLoadOptions& opts = {});

/// A selective classifier over one fp32 or int8 net, owned (file loads and
/// the owning overload) or borrowed (the other in-memory overloads).
///
/// predict_batch chops the request into fixed-size eval batches of 256
/// wafers, which bounds per-forward memory, and fans the batches across the
/// global pool. Both nets' infer() are const and reentrant with per-sample
/// outputs independent of batch grouping, and batch composition depends
/// only on that fixed size, so results are bit-identical for any thread
/// count and any caller-side regrouping.
class LoadedClassifier final : public Classifier {
 public:
  std::vector<SelectivePrediction> predict_batch(
      std::span<const WaferMap> maps) const override;

  int num_classes() const override { return options().num_classes; }

  /// Wafer edge length the model was trained for (resize inputs to this).
  int map_size() const { return options().map_size; }
  /// True when the int8 (WSN2) net serves the predictions.
  bool is_quantized() const {
    return std::holds_alternative<const selective::QuantizedSelectiveNet*>(
        net_);
  }
  /// The abstention threshold the classifier applies to g.
  float threshold() const { return threshold_; }

 private:
  using Net = std::variant<const selective::SelectiveNet*,
                           const selective::QuantizedSelectiveNet*>;

  LoadedClassifier(Net net, std::shared_ptr<const void> owner,
                   const ClassifierLoadOptions& opts);

  const selective::SelectiveNetOptions& options() const;

  friend std::unique_ptr<LoadedClassifier> load_classifier(
      const std::string&, const ClassifierLoadOptions&);
  friend std::unique_ptr<LoadedClassifier> load_classifier(
      const selective::SelectiveNet&, const ClassifierLoadOptions&);
  friend std::unique_ptr<LoadedClassifier> load_classifier(
      std::unique_ptr<selective::SelectiveNet>, const ClassifierLoadOptions&);
  friend std::unique_ptr<LoadedClassifier> load_classifier(
      const selective::QuantizedSelectiveNet&, const ClassifierLoadOptions&);

  Net net_;                            // never null
  std::shared_ptr<const void> owner_;  // the owned net; null when borrowed
  float threshold_;
};

}  // namespace wm
