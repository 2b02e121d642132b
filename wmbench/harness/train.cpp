// train_pipeline: the paper's offline pipeline, which is also what the
// adaptation loop's stage 2 re-runs in production: a seeded scaled Table II
// training set -> Augmentor::augment_dataset (Algorithm 1, small T) ->
// SelectiveTrainer::train for a fixed number of epochs (no early stop, no
// keep-best) -> calibrate_threshold -> quantize_selective_net -> scoring of
// a held-out set. Pipelines repeat for the run's seconds. `wps` is the
// median training throughput and `latency_ms` the median wall time of one
// whole pipeline: how long a retrain takes.
#include <cmath>

#include "augment/augmentor.hpp"
#include "common/rng.hpp"
#include "nn/loss/selective_loss.hpp"
#include "nn/optim/optimizer.hpp"
#include "parts.hpp"
#include "replay.hpp"
#include "selective/calibrate.hpp"
#include "selective/trainer.hpp"

namespace wmbench {

using wm::Dataset;

namespace {

// Sized so that a pipeline takes about 5 s on one compute thread and still
// trains a model that selects better than chance on most seeds.
constexpr int kTrainWafers = 200;    // before the Table II stratification
constexpr int kCalibWafers = 160;
constexpr int kHeldoutWafers = 256;
constexpr int kAugmentTarget = 30;   // Algorithm 1's T, scaled down
constexpr int kCaeEpochs = 6;
constexpr int kEpochs = 2;
constexpr int kBatch = 64;
// Calibration picks tau from g ranks, so the achieved coverage on the
// calibration set can only miss the target through ties.
constexpr double kCoverageTolerance = 0.05;
constexpr int kReplaySteps = 4;
constexpr std::size_t kMinPipelines = 1;

wm::augment::AugmentOptions augment_options() {
  wm::augment::AugmentOptions o;
  o.target_per_class = kAugmentTarget;
  o.cae.map_size = 32;
  o.cae_training.epochs = kCaeEpochs;
  return o;
}

struct PipelineOutcome {
  double seconds = 0.0;
  double augment_wps = 0.0;
  double train_wps = 0.0;
  double selective_acc = 0.0;
  std::unique_ptr<wm::selective::SelectiveNet> net;
  Dataset augmented;
};

PipelineOutcome pipeline(const TrainData& data, std::uint64_t seed,
                         SpanRecorder& rec, Tally& tally) {
  PipelineOutcome out;
  wm::Rng rng(seed);
  const auto start = Clock::now();
  ScopedSpan root(rec, "train.pipeline");

  auto t0 = Clock::now();
  {
    ScopedSpan s(rec, "train.augment", root.id());
    out.augmented = wm::augment::Augmentor(augment_options())
                        .augment_dataset(data.train, rng);
  }
  const double synth =
      static_cast<double>(out.augmented.size() - data.train.size());
  out.augment_wps = synth / seconds_since(t0);
  tally.check(synth > 0, "augmentation synthesized no wafers");

  out.net = std::make_unique<wm::selective::SelectiveNet>(
      wm::selective::SelectiveNetOptions{.map_size = 32,
                                         .num_classes = wm::kNumDefectTypes,
                                         .use_batchnorm = true},
      rng);
  const wm::selective::SelectiveTrainer trainer(
      {.epochs = kEpochs,
       .batch_size = kBatch,
       .learning_rate = 2e-3,
       .target_coverage = kTargetCoverage,
       .final_lr_fraction = 0.15});
  t0 = Clock::now();
  wm::selective::TrainingLog log;
  {
    ScopedSpan s(rec, "train.train", root.id());
    log = trainer.train(*out.net, out.augmented, nullptr, rng);
  }
  out.train_wps = static_cast<double>(kEpochs * out.augmented.size()) /
                  seconds_since(t0);
  bool finite = log.epochs.size() == static_cast<std::size_t>(kEpochs);
  for (const auto& e : log.epochs) finite = finite && std::isfinite(e.loss);
  tally.check(finite, "training loss is not finite in every epoch");

  float tau = 0.5f;
  {
    ScopedSpan s(rec, "train.calibrate", root.id());
    tau = wm::selective::calibrate_threshold(*out.net, data.calib,
                                             kTargetCoverage);
  }
  const auto fp32 = wm::load_classifier(*out.net, {.threshold = tau});
  const double coverage =
      wm::coverage_of(wm::predict_dataset(*fp32, data.calib));
  tally.check(std::abs(coverage - kTargetCoverage) <= kCoverageTolerance,
              "calibrated coverage " + std::to_string(coverage) +
                  " is off the target " + std::to_string(kTargetCoverage));

  std::unique_ptr<wm::selective::QuantizedSelectiveNet> qnet;
  {
    ScopedSpan s(rec, "train.quantize", root.id());
    qnet = std::make_unique<wm::selective::QuantizedSelectiveNet>(
        wm::selective::quantize_selective_net(*out.net));
  }

  std::vector<int> labels;
  for (std::size_t i = 0; i < data.heldout.size(); ++i) {
    labels.push_back(static_cast<int>(data.heldout[i].label));
  }
  {
    ScopedSpan s(rec, "train.score", root.id());
    const auto preds = wm::predict_dataset(*fp32, data.heldout);
    out.selective_acc = wm::selective_accuracy(preds, labels);
    const auto int8 = wm::load_classifier(*qnet, {.threshold = tau});
    const auto qpreds = wm::predict_dataset(*int8, data.heldout);
    bool scored = qpreds.size() == data.heldout.size();
    for (const auto& p : qpreds) {
      scored = scored && p.label >= 0 && p.label < wm::kNumDefectTypes &&
               std::isfinite(p.g);
    }
    tally.check(scored, "the quantized model did not score the held-out set");
  }
  tally.check(std::isfinite(out.selective_acc), "selective accuracy is NaN");
  out.seconds = seconds_since(start);
  return out;
}

/// Replays training steps on the trained net to split one step into
/// forward, backward and optimizer time, and the backward into its convs.
void step_metrics(PipelineOutcome& p, MetricSet& m) {
  std::vector<std::size_t> idx;
  for (int i = 0; i < kBatch; ++i) {
    idx.push_back(static_cast<std::size_t>(i) % p.augmented.size());
  }
  const wm::Batch batch = p.augmented.make_batch(idx);
  wm::selective::SelectiveNet& net = *p.net;
  wm::nn::Adam adam(net.parameters(), {.lr = 1e-4});
  const wm::nn::SelectiveLoss loss(
      {.target_coverage = kTargetCoverage, .lambda = 4.0});
  double fwd = 0.0;
  double bwd = 0.0;
  double opt = 0.0;
  std::array<double, 3> conv{};
  Fp32Replay replay(net);
  for (int s = 0; s < kReplaySteps; ++s) {
    auto t0 = Clock::now();
    const auto out = net.forward(batch.images, true);
    fwd += seconds_since(t0);
    const auto r = loss.compute(out.logits, out.g, batch.labels, &batch.weights);
    t0 = Clock::now();
    net.zero_grad();
    net.backward(r.grad_logits, r.grad_g);
    bwd += seconds_since(t0);
    t0 = Clock::now();
    adam.step();
    opt += seconds_since(t0);
    const auto c = replay.conv_backward_seconds(batch.images, batch.labels);
    for (int k = 0; k < 3; ++k) conv[k] += c[k];
  }
  const double wafers = static_cast<double>(kReplaySteps * kBatch);
  m.set("train.fwd_us_per_wafer", fwd / wafers * 1e6, "us", kReplaySteps);
  m.set("train.bwd_us_per_wafer", bwd / wafers * 1e6, "us", kReplaySteps);
  m.set("train.optim_us_per_step", opt / kReplaySteps * 1e6, "us",
        kReplaySteps);
  for (int k = 0; k < 3; ++k) {
    m.set("nn.train.conv" + std::to_string(k + 1) + ".bwd_us_per_wafer",
          conv[k] / wafers * 1e6, "us", kReplaySteps);
  }
}

/// Algorithm 1 on one class, timed whole, and the CAE training it starts
/// with, timed alone on a fresh CAE with the same options.
void augment_metrics(const TrainData& data, std::uint64_t seed, MetricSet& m) {
  const auto opts = augment_options();
  // The rarest-but-present defect class does the most generation per wafer.
  Dataset cls;
  for (wm::DefectType t : wm::all_defect_types()) {
    if (t == wm::DefectType::kNone) continue;
    Dataset c = data.train.filter(t);
    if (!c.empty() && (cls.empty() || c.size() < cls.size())) cls = c;
  }
  wm::Rng rng(seed);
  auto t0 = Clock::now();
  wm::augment::ConvAutoencoder cae(opts.cae, rng);
  wm::augment::train_cae(cae, cls, opts.cae_training, rng);
  m.set("augment.cae_train_s", seconds_since(t0), "s", 1);
  t0 = Clock::now();
  wm::augment::Augmentor(opts).augment_class(cls, rng);
  m.set("augment.class_s", seconds_since(t0), "s", 1);
}

}  // namespace

TrainData make_train_data(std::uint64_t seed) {
  wm::Rng rng(seed);
  TrainData d;
  d.train = table2_set(32, false, kTrainWafers, rng);
  d.calib = table2_set(32, true, kCalibWafers, rng);
  d.heldout = table2_set(32, true, kHeldoutWafers, rng);
  return d;
}

PartResult run_train(const TrainData& data, double seconds,
                     std::uint64_t seed, SpanRecorder& rec) {
  PartResult r;
  std::vector<double> augment_wps, train_wps, acc, pipeline_ms;
  PipelineOutcome last;
  const auto start = Clock::now();
  do {
    last = pipeline(data, seed, rec, r.tally);
    augment_wps.push_back(last.augment_wps);
    train_wps.push_back(last.train_wps);
    acc.push_back(last.selective_acc);
    pipeline_ms.push_back(last.seconds * 1e3);
  } while (train_wps.size() < kMinPipelines ||
           seconds_since(start) < seconds);
  r.headline = median(train_wps);
  if (!rec.enabled()) {
    r.metrics.set("wps", median(train_wps), "wafers/s", train_wps.size());
    r.metrics.set("latency_ms", median(pipeline_ms), "ms", pipeline_ms.size());
    return r;
  }
  r.metrics.set("train.wps", median(train_wps), "wafers/s", train_wps.size());
  r.metrics.set("train.pipeline_ms", median(pipeline_ms), "ms",
                pipeline_ms.size());
  r.metrics.set("augment.wps", median(augment_wps), "wafers/s",
                augment_wps.size());
  r.metrics.set("train.selective_acc", median(acc), "share", acc.size());
  step_metrics(last, r.metrics);
  augment_metrics(data, seed, r.metrics);
  return r;
}

}  // namespace wmbench
