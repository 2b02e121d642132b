// Tests of the benchmark's own code: the percentile rule, span self time,
// metric names, the layer replays (bit-equal to the nets' own forwards) and
// the serve check (a flipped answer is reported as failed).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "core.hpp"
#include "replay.hpp"
#include "serve.hpp"
#include "wafermap/synth/generator.hpp"

namespace wmbench {
namespace {

using wm::selective::SelectiveNet;
using wm::selective::SelectiveNetOptions;

TEST(Percentile, NeedsTenSamplesBeyond) {
  std::vector<double> v(1000);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i + 1);
  // n = 1000: rank ceil(990) = 990 leaves exactly 10 beyond.
  ASSERT_TRUE(percentile(v, 0.99).has_value());
  EXPECT_EQ(*percentile(v, 0.99), 990.0);
  v.pop_back();  // n = 999: rank 990 leaves 9 beyond
  EXPECT_FALSE(percentile(v, 0.99).has_value());

  std::vector<double> w(20, 1.0);  // p50 of 20: rank 10, 10 beyond
  EXPECT_TRUE(percentile(w, 0.5).has_value());
  w.pop_back();  // 19: rank 10, 9 beyond
  EXPECT_FALSE(percentile(w, 0.5).has_value());
}

TEST(Percentile, FailedSamplesCountAsMissing) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> v(1000, 1.0);
  for (int i = 0; i < 10; ++i) v[static_cast<std::size_t>(i)] = inf;
  // Ten failures sit exactly beyond p99: the percentile itself is finite.
  EXPECT_EQ(*percentile(v, 0.99), 1.0);
  v[10] = inf;  // an eleventh failure lands on the percentile
  EXPECT_FALSE(percentile(v, 0.99).has_value());
  EXPECT_EQ(*percentile(v, 0.5), 1.0);
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  std::vector<Span> s = {
      {"root", 0, 100, -1, 1},
      {"a", 10, 30, 0, 1},   // overlaps b
      {"b", 20, 50, 0, 1},
      {"c", 60, 70, 0, 1},
      {"d", 90, 120, 0, 1},  // runs past the parent: clipped to 90..100
      {"a.child", 12, 18, 1, 1},
  };
  const std::vector<std::int64_t> self = self_times_ns(s);
  EXPECT_EQ(self[0], 100 - (40 + 10 + 10));
  EXPECT_EQ(self[1], 20 - 6);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[5], 6);
  const auto by_name = self_seconds_by_name(s);
  EXPECT_DOUBLE_EQ(by_name.at("root"), 40e-9);
}

TEST(Metrics, NamesFollowThePattern) {
  EXPECT_TRUE(valid_metric_name("nn.fp32.m32.conv1.us_per_wafer"));
  EXPECT_TRUE(valid_metric_name("setup_s"));
  EXPECT_TRUE(valid_metric_name("9-lives.x"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name(".hidden"));
  EXPECT_FALSE(valid_metric_name("_x"));
  EXPECT_FALSE(valid_metric_name("a b"));
  EXPECT_FALSE(valid_metric_name("wafers/s"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));

  MetricSet m;
  m.set("ok", 1.0, "s", 1);
  EXPECT_THROW(m.set("ok", 2.0, "s", 1), std::invalid_argument);
  EXPECT_THROW(m.set("not ok", 2.0, "s", 1), std::invalid_argument);
  // A value that is not finite and positive is a broken measurement.
  EXPECT_THROW(m.set("zero", 0.0, "s", 1), std::invalid_argument);
  EXPECT_THROW(m.set("negative", -1e-9, "s", 1), std::invalid_argument);
  EXPECT_THROW(m.set("nan", std::nan(""), "s", 1), std::invalid_argument);
  EXPECT_THROW(m.set("inf", std::numeric_limits<double>::infinity(), "s", 1),
               std::invalid_argument);
  EXPECT_FALSE(m.has("zero"));
}

/// A Table I net at a small edge whose BatchNorm statistics are not the
/// identity, so folding and normalisation both matter.
std::unique_ptr<SelectiveNet> make_net(int map_size, std::uint64_t seed) {
  wm::Rng rng(seed);
  auto net = std::make_unique<SelectiveNet>(
      SelectiveNetOptions{.map_size = map_size,
                          .num_classes = wm::kNumDefectTypes,
                          .use_batchnorm = true},
      rng);
  for (wm::Tensor* b : net->buffers()) {
    for (std::int64_t i = 0; i < b->numel(); ++i) {
      (*b)[i] = static_cast<float>(rng.uniform(0.2, 1.5));
    }
  }
  return net;
}

wm::Tensor random_images(int n, int size, std::uint64_t seed) {
  wm::Rng rng(seed);
  wm::synth::DatasetSpec spec;
  spec.map_size = size;
  spec.class_counts.fill(1);
  const wm::Dataset data = wm::synth::generate_dataset(spec, rng);
  std::vector<std::size_t> idx;
  for (int i = 0; i < n; ++i) idx.push_back(static_cast<std::size_t>(i) % data.size());
  return data.make_batch(idx).images;
}

bool bit_equal(const wm::Tensor& a, const wm::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

TEST(Replay, Fp32BitEqualsInfer) {
  for (int size : {16, 32}) {
    auto net = make_net(size, 3);
    const wm::Tensor images = random_images(19, size, 4);
    const auto want = net->infer(images);
    Fp32Replay replay(*net);
    SpanRecorder rec(true);
    const auto got = replay.infer(images, {&rec, "nn.fp32", -1});
    EXPECT_TRUE(bit_equal(got.logits, want.logits)) << "size " << size;
    EXPECT_TRUE(bit_equal(got.g, want.g)) << "size " << size;
    // One span per replayed layer.
    EXPECT_EQ(rec.snapshot().size(), fp32_layer_names().size());
  }
}

TEST(Replay, Int8BitEqualsInfer) {
  for (int size : {16, 32}) {
    auto net = make_net(size, 5);
    const auto q = wm::selective::quantize_selective_net(*net);
    const wm::Tensor images = random_images(19, size, 6);
    const auto want = q.infer(images);
    SpanRecorder rec(true);
    const auto got = Int8Replay(q).infer(images, {&rec, "nn.int8", -1});
    EXPECT_TRUE(bit_equal(got.logits, want.logits)) << "size " << size;
    EXPECT_TRUE(bit_equal(got.g, want.g)) << "size " << size;
    EXPECT_EQ(rec.snapshot().size(), int8_layer_names().size());
  }
}

/// Flips the label of one answer: the first of the batch call numbered
/// `flip_call` (0-based). Everything else passes through.
class FlipOne final : public wm::Classifier {
 public:
  FlipOne(const wm::Classifier& inner, int flip_call)
      : inner_(inner), flip_call_(flip_call) {}
  std::vector<wm::SelectivePrediction> predict_batch(
      std::span<const wm::WaferMap> maps) const override {
    auto out = inner_.predict_batch(maps);
    if (calls_.fetch_add(1) == flip_call_ && !out.empty()) {
      out[0].label = (out[0].label + 1) % num_classes();
    }
    return out;
  }
  int num_classes() const override { return inner_.num_classes(); }

 private:
  const wm::Classifier& inner_;
  const int flip_call_;
  mutable std::atomic<int> calls_{0};
};

// These tests check the benchmark's answer checking, not the program's
// speed, so they run the program serially: with worker threads, serving many
// tiny batches hits the ThreadPool::parallel_chunks use-after-scope (ROADMAP
// item 1) and aborts the test binary now and then. Benchmark runs compute
// on one thread for the same reason (run.py sets WM_THREADS=1).
class Serve : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { wm::ThreadPool::configure_global(1); }
  static void TearDownTestSuite() { wm::ThreadPool::configure_global(0); }

  Serve() {
    wm::Rng rng(8);
    wm::synth::DatasetSpec spec;
    spec.map_size = 16;
    spec.class_counts.fill(4);
    const wm::Dataset data = wm::synth::generate_dataset(spec, rng);
    for (std::size_t i = 0; i < data.size(); ++i) pool.push_back(data[i].map);
  }

  std::unique_ptr<SelectiveNet> net = make_net(16, 7);
  std::unique_ptr<wm::LoadedClassifier> clf = wm::load_classifier(*net);
  std::vector<wm::WaferMap> pool;
  const ServePhases rates{.idle_seconds = 0.3, .low_wps = 200,
                          .low_requests = 40, .high_wps = 400,
                          .high_requests = 40, .peak_seconds = 1.0,
                          .peak_inflight_per_client = 4};
};

TEST_F(Serve, FlippedAnswerCountsAsFailed) {
  // Set-up sends one probe request per client and the run one warm-up
  // burst; flip the first call after the probes.
  auto flip = std::make_shared<FlipOne>(*clf, ServeFixture::kClients);
  ServeFixture f(flip, *clf, pool, /*traced=*/false);
  SpanRecorder rec(false);
  std::vector<std::string> invalid;
  const PartResult r = run_serve(f, rates, 1, rec, invalid);
  EXPECT_GT(r.tally.attempted, 80u);
  EXPECT_EQ(r.tally.failed, 1u);
  ASSERT_FALSE(r.tally.errors.empty());
  EXPECT_NE(r.tally.errors[0].find("answered differently"), std::string::npos);
  EXPECT_TRUE(r.metrics.has("latency_ms"));  // idle phase
}

TEST_F(Serve, CleanStackReportsNoFailure) {
  const std::shared_ptr<const wm::Classifier> served(
      std::shared_ptr<const wm::Classifier>(), clf.get());
  ServeFixture f(served, *clf, pool, /*traced=*/true);
  SpanRecorder rec(true);
  std::vector<std::string> invalid;
  const PartResult r = run_serve(f, rates, 1, rec, invalid);
  EXPECT_EQ(r.tally.failed, 0u);
  EXPECT_GT(r.headline, 0.0);
  EXPECT_TRUE(r.metrics.has("serve.low.batch_size_mean"));
  EXPECT_TRUE(r.metrics.has("serve.high.latency_p50_ms"));
  EXPECT_TRUE(r.metrics.has("serve.peak.wps"));
}

}  // namespace
}  // namespace wmbench
