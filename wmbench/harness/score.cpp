// score_lot: offline bulk scoring. Each lot goes through predict_batch in
// the classifier's default eval-batch chunks (256 wafers), once per
// precision per round; rounds repeat for the run's seconds. `wps` is the
// median over rounds of the round's wafers over its time; `latency_ms` is
// the median time to score one 32x32 wafer alone with fp32, probed between
// rounds. The traced run replays every chunk layer by layer right after
// its predict_batch call, so the layers' share of predict_batch compares
// the same chunks.
#include <algorithm>
#include <cstring>
#include <optional>
#include <span>
#include <string>

#include "common/rng.hpp"
#include "parts.hpp"
#include "replay.hpp"
#include "tensor/tensor_ops.hpp"

namespace wmbench {

using wm::SelectivePrediction;
using wm::WaferMap;

namespace {

constexpr std::size_t kEvalChunk = 256;  // ClassifierLoadOptions::eval_batch
constexpr int kAloneSamples = 8;         // batch-composition probes per lot
constexpr int kProbesPerRound = 40;      // fp32 32x32 latency probes
constexpr std::size_t kMinRounds = 2;    // timed rounds per run, at least

struct Config {
  std::string name;  // "fp32.m32" ...
  const wm::LoadedClassifier* clf;
  const std::vector<WaferMap>* lot;
};

/// One pass over the lot in eval-batch chunks. When `rec` traces, each
/// chunk's predict_batch is a span and `replay` runs right after it on the
/// same chunk.
template <typename Replay>
std::vector<SelectivePrediction> score_pass(const Config& c, SpanRecorder& rec,
                                            Replay&& replay) {
  const std::span<const WaferMap> all(*c.lot);
  std::vector<SelectivePrediction> out;
  out.reserve(all.size());
  for (std::size_t s = 0; s < all.size(); s += kEvalChunk) {
    const auto chunk = all.subspan(s, std::min(kEvalChunk, all.size() - s));
    std::vector<SelectivePrediction> preds;
    {
      ScopedSpan span(rec, "selective." + c.name + ".predict_batch");
      preds = c.clf->predict_batch(chunk);
    }
    if (rec.enabled()) replay(chunk, preds);
    out.insert(out.end(), preds.begin(), preds.end());
  }
  return out;
}

/// Packs maps into an (N, 1, S, S) tensor the way predict_batch does.
wm::Tensor pack(std::span<const WaferMap> maps) {
  const std::int64_t s = maps.empty() ? 0 : maps[0].size();
  wm::Tensor images(wm::Shape{static_cast<std::int64_t>(maps.size()), 1, s, s});
  for (std::size_t k = 0; k < maps.size(); ++k) {
    const wm::Tensor img = maps[k].to_tensor();
    std::memcpy(images.data() + static_cast<std::int64_t>(k) * s * s,
                img.data(), static_cast<std::size_t>(s * s) * sizeof(float));
  }
  return images;
}

/// Replays one chunk layer by layer (spans `nn.<config>.<layer>`) and
/// checks that it reproduces the served (label, g) bits.
class ChunkReplay {
 public:
  ChunkReplay(const Config& c, const Model& model, bool int8,
              SpanRecorder& rec, Tally& tally)
      : c_(c), q_(*model.qnet), int8_(int8), rec_(rec), tally_(tally) {
    if (!int8) fp32_.emplace(*model.net);
  }

  void operator()(std::span<const WaferMap> chunk,
                  const std::vector<SelectivePrediction>& served) {
    ScopedSpan parent(rec_, "replay.nn." + c_.name);
    const wm::Tensor images = pack(chunk);
    const ReplayTrace trace{&rec_, "nn." + c_.name, parent.id()};
    const auto out = int8_ ? q_.infer(images, trace) : fp32_->infer(images, trace);
    const std::vector<std::int64_t> labels = wm::argmax_rows(out.logits);
    bool ok = labels.size() == chunk.size() && served.size() == chunk.size();
    for (std::size_t i = 0; ok && i < chunk.size(); ++i) {
      const float g = out.g[static_cast<std::int64_t>(i)];
      ok = labels[i] == served[i].label &&
           std::memcmp(&g, &served[i].g, sizeof(float)) == 0;
    }
    tally_.check(ok, "replay of a " + c_.name +
                         " chunk differs from predict_batch");
  }

 private:
  const Config& c_;
  std::optional<Fp32Replay> fp32_;
  const Int8Replay q_;
  const bool int8_;
  SpanRecorder& rec_;
  Tally& tally_;
};

}  // namespace

PartResult run_score(const std::vector<ScoreCase>& cases, double seconds,
                     std::uint64_t seed, SpanRecorder& rec) {
  PartResult r;
  std::vector<Config> configs;
  for (const ScoreCase& sc : cases) {
    configs.push_back({std::string("fp32.") + sc.tag, sc.model->fp32.get(),
                       sc.lot});
    configs.push_back({std::string("int8.") + sc.tag, sc.model->int8.get(),
                       sc.lot});
  }
  const Config& probe = configs[0];  // fp32 at the first (32x32) lot

  std::vector<ChunkReplay> replays;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    replays.emplace_back(configs[i], *cases[i / 2].model, i % 2 == 1, rec,
                         r.tally);
  }
  // An untimed warm-up round gives the reference answers and wakes every
  // core; timed rounds then run every configuration in turn.
  std::vector<std::vector<SelectivePrediction>> first(configs.size());
  SpanRecorder untraced(false);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    first[i] = score_pass(configs[i], untraced, replays[i]);
    const bool complete = first[i].size() == configs[i].lot->size();
    r.tally.add(configs[i].lot->size(), complete ? 0 : configs[i].lot->size(),
                configs[i].name + ": predict_batch returned the wrong count");
  }

  // Batch-composition contract: a wafer scored alone bit-equals its in-lot
  // result. Probes of the fp32 32x32 lot are also the latency samples.
  wm::Rng rng(seed ^ 0x5C0E);
  std::vector<double> alone_ms;
  const auto score_alone = [&](std::size_t i) {
    const Config& c = configs[i];
    const auto idx = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(c.lot->size()) - 1));
    const auto t0 = Clock::now();
    const SelectivePrediction alone = c.clf->predict_one((*c.lot)[idx]);
    if (&c == &probe) alone_ms.push_back(seconds_since(t0) * 1e3);
    r.tally.check(same_bits(alone, first[i][idx]),
                  c.name + ": wafer " + std::to_string(idx) +
                      " scored alone differs from its in-lot result");
  };
  for (std::size_t i = 0; i < configs.size(); ++i) {
    for (int k = 0; k < kAloneSamples; ++k) score_alone(i);
  }

  std::vector<double> wps;
  std::size_t round_wafers = 0;
  for (const Config& c : configs) round_wafers += c.lot->size();
  const auto start = Clock::now();
  do {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < configs.size(); ++i) {
      const Config& c = configs[i];
      const auto preds = score_pass(c, rec, replays[i]);
      bool same = preds.size() == first[i].size();
      for (std::size_t k = 0; same && k < preds.size(); ++k) {
        same = same_bits(preds[k], first[i][k]);
      }
      r.tally.add(c.lot->size(), same ? 0 : c.lot->size(),
                  c.name + ": a repeated pass changed its answers");
    }
    wps.push_back(static_cast<double>(round_wafers) / seconds_since(t0));
    for (int k = 0; k < kProbesPerRound; ++k) score_alone(0);
  } while (wps.size() < kMinRounds || seconds_since(start) < seconds);
  r.headline = median(wps);

  if (!rec.enabled()) {
    r.metrics.set("wps", median(wps), "wafers/s", wps.size());
    r.metrics.set("latency_ms", median(alone_ms), "ms", alone_ms.size());
    return r;
  }

  // int8 agreement: share of lot wafers whose int8 (label, selected) equals
  // the fp32 answer, over both lots.
  std::uint64_t agree = 0;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i + 1 < configs.size(); i += 2) {
    const auto& f = first[i];
    const auto& q = first[i + 1];
    for (std::size_t k = 0; k < std::min(f.size(), q.size()); ++k) {
      agree += f[k].label == q[k].label && f[k].selected == q[k].selected;
      ++total;
    }
  }
  r.metrics.set("selective.int8_agreement",
                static_cast<double>(agree) / static_cast<double>(total),
                "share", total);

  // Per-layer attribution from the traced rounds: each layer's time per
  // wafer, and the share of predict_batch the layers account for over the
  // same chunks.
  const std::map<std::string, double> self =
      self_seconds_by_name(rec.snapshot());
  const auto total_s = [&](const std::string& name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  const double rounds = static_cast<double>(wps.size());
  for (std::size_t ci = 0; ci < cases.size(); ++ci) {
    const auto& opts = cases[ci].model->net->options();
    const std::array<double, 3> flops = conv_flops_per_wafer(opts);
    for (int q = 0; q < 2; ++q) {
      const Config& c = configs[2 * ci + static_cast<std::size_t>(q)];
      const double n = rounds * static_cast<double>(c.lot->size());
      const auto samples = static_cast<std::uint64_t>(n);
      const double pb = total_s("selective." + c.name + ".predict_batch");
      double layers = 0.0;
      const auto& layer_names = q == 0 ? fp32_layer_names() : int8_layer_names();
      for (const std::string& layer : layer_names) {
        const double sec = total_s("nn." + c.name + "." + layer);
        layers += sec;
        r.metrics.set("nn." + c.name + "." + layer + ".us_per_wafer",
                      sec / n * 1e6, "us", samples);
      }
      for (int k = 0; k < 3; ++k) {
        const std::string conv = "nn." + c.name + ".conv" + std::to_string(k + 1);
        r.metrics.set(conv + ".gflops",
                      flops[static_cast<std::size_t>(k)] * n / total_s(conv) / 1e9,
                      "GFLOP/s", samples);
      }
      // other = predict_batch - sum(layers) is near zero where the layers
      // are the whole call, and then can read negative, so it is reported
      // as the layers' share: other = (1 - share) x predict_batch.
      r.metrics.set("nn." + c.name + ".layers_share", layers / pb, "share",
                    samples);
      r.metrics.set("selective." + c.name + ".predict_batch_us_per_wafer",
                    pb / n * 1e6, "us", samples);
    }
  }
  return r;
}

}  // namespace wmbench
