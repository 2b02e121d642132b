#include "nn/layers/conv_grad.hpp"

#include <algorithm>
#include <atomic>
#include <vector>

#include "common/threadpool.hpp"
#include "tensor/gemm.hpp"

namespace wm::nn::detail {

namespace {

// Width of the dw column runs the parts split: a multiple of the GEMM's
// micro-tile width on every ISA path (8, 16 or 32 floats), so a run wastes
// no tile columns except at the end of the row.
constexpr std::int64_t kColumnBlock = 32;

// Fewest dw rows a row part takes: one micro-tile height on AVX-512. Every
// row part lowers and packs whole images, so thinner parts cost more in
// that repeated work than their share of the GEMM saves.
constexpr std::int64_t kMinRows = 8;

/// [begin, end) of part `part` when `count` items split into `parts` parts
/// whose sizes differ by at most one.
std::int64_t part_begin(std::int64_t count, std::size_t part,
                        std::size_t parts) {
  return count * static_cast<std::int64_t>(part) /
         static_cast<std::int64_t>(parts);
}

}  // namespace

void add_channel_sums(std::int64_t channels, std::int64_t spatial,
                      const float* dy, float* db) {
  for (std::int64_t c = 0; c < channels; ++c) {
    const float* chan = dy + c * spatial;
    float acc = 0.0f;
    for (std::int64_t s = 0; s < spatial; ++s) acc += chan[s];
    db[c] += acc;
  }
}

void accumulate_weight_grad(const ConvGeometry& g, std::int64_t n,
                            std::int64_t m, const float* a,
                            std::int64_t a_image, const float* src,
                            std::int64_t src_image, float* dw,
                            std::size_t part, std::size_t parts) {
  const std::int64_t rows = g.col_rows();
  const std::int64_t spatial = g.col_cols();
  const std::int64_t blocks = (rows + kColumnBlock - 1) / kColumnBlock;

  if (static_cast<std::size_t>(blocks) < parts) {
    // Rows of dw: A_i's rows are contiguous, so the part's sgemm_bt writes
    // its rows of dw in place; the price is lowering every whole image.
    const std::size_t row_parts = std::min(
        parts, static_cast<std::size_t>((m + kMinRows - 1) / kMinRows));
    if (part >= row_parts) return;
    const std::int64_t r0 = part_begin(m, part, row_parts);
    const std::int64_t r1 = part_begin(m, part + 1, row_parts);
    std::vector<float> col(static_cast<std::size_t>(rows * spatial));
    for (std::int64_t i = 0; i < n; ++i) {
      im2col(g, src + i * src_image, col.data());
      sgemm_bt(r1 - r0, rows, spatial, 1.0f, a + i * a_image + r0 * spatial,
               col.data(), 1.0f, dw + r0 * rows);
    }
    return;
  }

  // Columns of dw in kColumnBlock runs. Column j of dw is im2col row j, and
  // image channel c owns im2col rows [c * taps, (c + 1) * taps), so the part
  // lowers just the channels its columns touch (the sub-image of those
  // channels) and points B at its first row. sgemm_bt writes C densely, so
  // the part accumulates in a contiguous copy of its columns.
  const std::int64_t j0 = part_begin(blocks, part, parts) * kColumnBlock;
  const std::int64_t j1 =
      std::min(rows, part_begin(blocks, part + 1, parts) * kColumnBlock);
  if (j0 >= j1) return;
  const std::int64_t cols = j1 - j0;
  const std::int64_t taps = g.kernel_h * g.kernel_w;
  const std::int64_t c0 = j0 / taps;
  ConvGeometry sub = g;
  sub.channels = (j1 + taps - 1) / taps - c0;
  std::vector<float> col(static_cast<std::size_t>(sub.col_rows() * spatial));
  const float* b = col.data() + (j0 - c0 * taps) * spatial;
  std::vector<float> block(static_cast<std::size_t>(m * cols));
  for (std::int64_t r = 0; r < m; ++r) {
    std::copy_n(dw + r * rows + j0, cols, block.data() + r * cols);
  }
  for (std::int64_t i = 0; i < n; ++i) {
    im2col(sub, src + i * src_image + c0 * g.height * g.width, col.data());
    sgemm_bt(m, cols, spatial, 1.0f, a + i * a_image, b, 1.0f, block.data());
  }
  for (std::int64_t r = 0; r < m; ++r) {
    std::copy_n(block.data() + r * cols, cols, dw + r * rows + j0);
  }
}

void accumulate_bias_grad(std::int64_t n, std::int64_t channels,
                          std::int64_t spatial, const float* dy, float* db,
                          std::size_t part, std::size_t parts) {
  const std::int64_t c0 = part_begin(channels, part, parts);
  const std::int64_t c1 = part_begin(channels, part + 1, parts);
  if (c0 == c1) return;
  for (std::int64_t i = 0; i < n; ++i) {
    add_channel_sums(c1 - c0, spatial, dy + (i * channels + c0) * spatial,
                     db + c0);
  }
}

void run_split_backward(
    std::int64_t n, std::size_t scratch_size,
    const std::function<void(std::size_t, std::size_t)>& param_part,
    const std::function<void(std::int64_t, float*)>& grad_input_image) {
  ThreadPool& pool = ThreadPool::global();
  const std::size_t parts = pool.max_chunks();
  std::atomic<std::int64_t> next_image{0};
  pool.parallel_chunks(
      0, parts, [&](std::size_t lo, std::size_t hi, std::size_t /*slot*/) {
        for (std::size_t p = lo; p < hi; ++p) param_part(p, parts);
        std::vector<float> scratch(scratch_size);
        for (std::int64_t i = next_image++; i < n; i = next_image++) {
          grad_input_image(i, scratch.data());
        }
      });
}

}  // namespace wm::nn::detail
