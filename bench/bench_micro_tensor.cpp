// Micro benchmarks of the tensor substrate (GEMM, im2col/col2im, softmax).
//
// The GEMM benchmarks report a GFLOP/s counter (2*m*n*k flops per call) so
// kernel changes can be compared directly. BM_GemmSeed pins the pre-tiling
// blocked kernel as a baseline; BM_GemmThreads sweeps the pool size via
// ThreadPool::configure_global to expose serial-vs-parallel scaling.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
#include "tensor/tensor_ops.hpp"

namespace wm {
namespace {

void set_gemm_counters(benchmark::State& state, std::int64_t m, std::int64_t n,
                       std::int64_t k) {
  state.SetItemsProcessed(state.iterations() * 2 * m * n * k);
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 2.0 * static_cast<double>(m) *
          static_cast<double>(n) * static_cast<double>(k) * 1e-9,
      benchmark::Counter::kIsRate);
}

void BM_Gemm(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(1);
  const Tensor a = Tensor::normal(Shape{n, n}, rng);
  const Tensor b = Tensor::normal(Shape{n, n}, rng);
  Tensor c(Shape{n, n});
  for (auto _ : state) {
    sgemm(n, n, n, 1.0f, a.data(), b.data(), 0.0f, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  set_gemm_counters(state, n, n, n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

// The pre-register-tiling blocked kernel, kept as a fixed baseline so the
// packed micro-kernel's speedup stays visible in benchmark diffs.
void BM_GemmSeed(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(1);
  const Tensor a = Tensor::normal(Shape{n, n}, rng);
  const Tensor b = Tensor::normal(Shape{n, n}, rng);
  Tensor c(Shape{n, n});
  for (auto _ : state) {
    detail::sgemm_seed(n, n, n, 1.0f, a.data(), b.data(), 0.0f, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  set_gemm_counters(state, n, n, n);
}
BENCHMARK(BM_GemmSeed)->Arg(256)->Arg(512);

// Serial-vs-parallel sweep: Args are {matrix size, WM_THREADS-equivalent}.
// configure_global(1) forces the bit-reproducible serial path; larger values
// add pool workers (oversubscribed on small hosts, which is still a useful
// smoke test of the panel-split path).
void BM_GemmThreads(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  ThreadPool::configure_global(static_cast<std::size_t>(state.range(1)));
  Rng rng(1);
  const Tensor a = Tensor::normal(Shape{n, n}, rng);
  const Tensor b = Tensor::normal(Shape{n, n}, rng);
  Tensor c(Shape{n, n});
  for (auto _ : state) {
    sgemm(n, n, n, 1.0f, a.data(), b.data(), 0.0f, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  set_gemm_counters(state, n, n, n);
  ThreadPool::configure_global(0);  // restore WM_THREADS/auto default
}
BENCHMARK(BM_GemmThreads)
    ->Args({512, 1})
    ->Args({512, 2})
    ->Args({512, 4})
    ->UseRealTime();  // rate counters must use wall clock, not caller CPU time

void BM_GemmTransposedA(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(2);
  const Tensor a = Tensor::normal(Shape{n, n}, rng);
  const Tensor b = Tensor::normal(Shape{n, n}, rng);
  Tensor c(Shape{n, n});
  for (auto _ : state) {
    sgemm_at(n, n, n, 1.0f, a.data(), b.data(), 0.0f, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  set_gemm_counters(state, n, n, n);
}
BENCHMARK(BM_GemmTransposedA)->Arg(128)->Arg(256);

void BM_GemmTransposedB(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(5);
  const Tensor a = Tensor::normal(Shape{n, n}, rng);
  const Tensor b = Tensor::normal(Shape{n, n}, rng);
  Tensor c(Shape{n, n});
  for (auto _ : state) {
    sgemm_bt(n, n, n, 1.0f, a.data(), b.data(), 0.0f, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  set_gemm_counters(state, n, n, n);
}
BENCHMARK(BM_GemmTransposedB)->Arg(128)->Arg(256);

void BM_Im2Col(benchmark::State& state) {
  const std::int64_t s = state.range(0);
  ConvGeometry g{.channels = 32, .height = s, .width = s, .kernel_h = 3,
                 .kernel_w = 3, .stride = 1, .pad = 1};
  Rng rng(3);
  const Tensor img = Tensor::normal(Shape{32, s, s}, rng);
  std::vector<float> col(static_cast<std::size_t>(g.col_rows() * g.col_cols()));
  for (auto _ : state) {
    im2col(g, img.data(), col.data());
    benchmark::DoNotOptimize(col.data());
  }
  state.SetItemsProcessed(state.iterations() * g.col_rows() * g.col_cols());
}
BENCHMARK(BM_Im2Col)->Arg(16)->Arg(32);

// The int8 conv's lowering: BM_Im2Col's geometry over u8 activations, with a
// non-zero zero point as the padding value.
void BM_Im2ColU8(benchmark::State& state) {
  const std::int64_t s = state.range(0);
  ConvGeometry g{.channels = 32, .height = s, .width = s, .kernel_h = 3,
                 .kernel_w = 3, .stride = 1, .pad = 1};
  Rng rng(3);
  std::vector<std::uint8_t> img(static_cast<std::size_t>(32 * s * s));
  for (auto& v : img) v = static_cast<std::uint8_t>(rng.next_u64());
  std::vector<std::uint8_t> col(
      static_cast<std::size_t>(g.col_rows() * g.col_cols()));
  for (auto _ : state) {
    im2col_u8(g, img.data(), col.data(), 17);
    benchmark::DoNotOptimize(col.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * g.col_rows() * g.col_cols());
}
BENCHMARK(BM_Im2ColU8)->Arg(16)->Arg(32);

// The conv backward's scatter of dcol into the input gradient, same geometry.
void BM_Col2Im(benchmark::State& state) {
  const std::int64_t s = state.range(0);
  ConvGeometry g{.channels = 32, .height = s, .width = s, .kernel_h = 3,
                 .kernel_w = 3, .stride = 1, .pad = 1};
  Rng rng(3);
  const Tensor col = Tensor::normal(Shape{g.col_rows(), g.col_cols()}, rng);
  Tensor img(Shape{32, s, s});
  for (auto _ : state) {
    col2im(g, col.data(), img.data());
    benchmark::DoNotOptimize(img.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * g.col_rows() * g.col_cols());
}
BENCHMARK(BM_Col2Im)->Arg(16)->Arg(32);

void BM_SoftmaxRows(benchmark::State& state) {
  Rng rng(4);
  const Tensor logits = Tensor::normal(Shape{state.range(0), 9}, rng);
  for (auto _ : state) {
    Tensor p = softmax_rows(logits);
    benchmark::DoNotOptimize(p.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SoftmaxRows)->Arg(64)->Arg(1024);

}  // namespace
}  // namespace wm
