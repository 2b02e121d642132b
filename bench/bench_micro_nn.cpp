// Micro benchmarks of the NN layers and the Table I network.
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "nn/layers/conv2d.hpp"
#include "nn/loss/selective_loss.hpp"
#include "selective/quant_net.hpp"
#include "selective/selective_net.hpp"

namespace wm {
namespace {

void BM_Conv2dForward(benchmark::State& state) {
  Rng rng(1);
  nn::Conv2d conv({.in_channels = 1, .out_channels = 64, .kernel = 5,
                   .stride = 1, .pad = 2},
                  rng);
  const Tensor x = Tensor::normal(Shape{8, 1, state.range(0), state.range(0)}, rng);
  for (auto _ : state) {
    Tensor y = conv.forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_Conv2dForward)->Arg(24)->Arg(32);

// Serial-vs-parallel batch fan-out: Args are {map size, WM_THREADS-equivalent}
// (1 = the bit-reproducible serial path). Uses a wider batch so the chunk
// split has work to distribute.
void BM_Conv2dForwardThreads(benchmark::State& state) {
  ThreadPool::configure_global(static_cast<std::size_t>(state.range(1)));
  Rng rng(1);
  nn::Conv2d conv({.in_channels = 16, .out_channels = 64, .kernel = 3,
                   .stride = 1, .pad = 1},
                  rng);
  const Tensor x =
      Tensor::normal(Shape{32, 16, state.range(0), state.range(0)}, rng);
  for (auto _ : state) {
    Tensor y = conv.forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 32);
  ThreadPool::configure_global(0);
}
BENCHMARK(BM_Conv2dForwardThreads)
    ->Args({24, 1})
    ->Args({24, 2})
    ->Args({24, 4})
    ->UseRealTime();

void BM_Conv2dBackwardThreads(benchmark::State& state) {
  ThreadPool::configure_global(static_cast<std::size_t>(state.range(1)));
  Rng rng(1);
  nn::Conv2d conv({.in_channels = 16, .out_channels = 64, .kernel = 3,
                   .stride = 1, .pad = 1},
                  rng);
  const std::int64_t s = state.range(0);
  const Tensor x = Tensor::normal(Shape{32, 16, s, s}, rng);
  const Tensor y = conv.forward(x, true);
  const Tensor dy = Tensor::normal(y.shape(), rng);
  for (auto _ : state) {
    conv.zero_grad();
    Tensor dx = conv.backward(dy);
    benchmark::DoNotOptimize(dx.data());
  }
  state.SetItemsProcessed(state.iterations() * 32);
  ThreadPool::configure_global(0);
}
BENCHMARK(BM_Conv2dBackwardThreads)
    ->Args({24, 1})
    ->Args({24, 2})
    ->Args({24, 4})
    ->UseRealTime();

/// Inference through the fused per-image trunk: Table I with BatchNorm (the
/// net `wm_tool train` serves), args are {map size, batch}.
void BM_SelectiveNetForward(benchmark::State& state) {
  Rng rng(2);
  const int size = static_cast<int>(state.range(0));
  selective::SelectiveNet net(
      {.map_size = size, .num_classes = 9, .use_batchnorm = true}, rng);
  const Tensor x = Tensor::uniform(Shape{state.range(1), 1, size, size}, rng);
  for (auto _ : state) {
    auto out = net.infer(x);
    benchmark::DoNotOptimize(out.logits.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(1));
}
BENCHMARK(BM_SelectiveNetForward)
    ->ArgsProduct({{32, 64}, {1, 256}})
    ->UseRealTime();

/// The int8 sibling of BM_SelectiveNetForward: the same net quantized.
void BM_QuantizedNetInfer(benchmark::State& state) {
  Rng rng(2);
  const int size = static_cast<int>(state.range(0));
  selective::SelectiveNet net(
      {.map_size = size, .num_classes = 9, .use_batchnorm = true}, rng);
  const selective::QuantizedSelectiveNet q =
      selective::quantize_selective_net(net);
  const Tensor x = Tensor::uniform(Shape{state.range(1), 1, size, size}, rng);
  for (auto _ : state) {
    auto out = q.infer(x);
    benchmark::DoNotOptimize(out.logits.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(1));
}
BENCHMARK(BM_QuantizedNetInfer)
    ->ArgsProduct({{32, 64}, {1, 256}})
    ->UseRealTime();

void BM_SelectiveNetTrainStep(benchmark::State& state) {
  Rng rng(3);
  selective::SelectiveNet net({.map_size = 24, .num_classes = 9}, rng);
  const std::int64_t batch = state.range(0);
  const Tensor x = Tensor::normal(Shape{batch, 1, 24, 24}, rng);
  std::vector<int> labels;
  for (std::int64_t i = 0; i < batch; ++i) labels.push_back(static_cast<int>(i % 9));
  nn::SelectiveLoss loss({.target_coverage = 0.5, .lambda = 0.5, .alpha = 0.5});
  for (auto _ : state) {
    auto out = net.forward(x, true);
    auto r = loss.compute(out.logits, out.g, labels);
    net.zero_grad();
    net.backward(r.grad_logits, r.grad_g);
    benchmark::DoNotOptimize(r.value);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_SelectiveNetTrainStep)->Arg(16)->Arg(64);

void BM_SelectiveLoss(benchmark::State& state) {
  Rng rng(4);
  const std::int64_t n = state.range(0);
  const Tensor logits = Tensor::normal(Shape{n, 9}, rng);
  Rng rng2(5);
  const Tensor g = Tensor::uniform(Shape{n, 1}, rng2, 0.05f, 0.95f);
  std::vector<int> labels;
  for (std::int64_t i = 0; i < n; ++i) labels.push_back(static_cast<int>(i % 9));
  nn::SelectiveLoss loss({.target_coverage = 0.5, .lambda = 0.5, .alpha = 0.5});
  for (auto _ : state) {
    auto r = loss.compute(logits, g, labels);
    benchmark::DoNotOptimize(r.value);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SelectiveLoss)->Arg(64)->Arg(1024);

}  // namespace
}  // namespace wm
