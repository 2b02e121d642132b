// Backward of the im2col-lowered conv layers (Conv2d and ConvTranspose2d)
// on a pool: parameter gradients accumulated in batch order on any pool
// size.
//
// Both layers' backward computes dW += A_i * im2col(src_i)^T and
// db += channel sums of dY_i for every image i of the batch. The serial loop
// adds image 0, then image 1, and so on onto the running gradients. The
// functions here split the *output* (dW columns or rows, db channels) into
// parts instead of the batch: each part loops over the images in batch
// order with the same per-image sgemm_bt, and the GEMM accumulates each C
// element in one thread in a fixed order whatever the M/N split. So every
// gradient element receives the same sequence of adds as the serial loop,
// and training is bit-identical for every thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "tensor/im2col.hpp"

namespace wm::nn::detail {

/// db[c] += sum over s of dy[c * spatial + s], for c in [0, channels): one
/// image's contribution, each channel summed left to right.
void add_channel_sums(std::int64_t channels, std::int64_t spatial,
                      const float* dy, float* db);

/// Part `part` of `parts` of: dw (m x g.col_rows()) += sum over images i in
/// [0, n), in batch order, of A_i (m x g.col_cols()) * im2col(g, src_i)^T,
/// where A_i = a + i * a_image and src_i = src + i * src_image. Parts split
/// dw by runs of columns (each lowers only the image channels its columns
/// touch and accumulates in a contiguous copy of them) or, when there are
/// fewer runs than parts, by rows (each lowers whole images, so each takes
/// at least eight rows). A part may be empty.
void accumulate_weight_grad(const ConvGeometry& g, std::int64_t n,
                            std::int64_t m, const float* a,
                            std::int64_t a_image, const float* src,
                            std::int64_t src_image, float* dw,
                            std::size_t part, std::size_t parts);

/// Part `part` of `parts` of add_channel_sums over the n images of dy
/// (n, channels, spatial), in batch order; parts split the channels.
void accumulate_bias_grad(std::int64_t n, std::int64_t channels,
                          std::int64_t spatial, const float* dy, float* db,
                          std::size_t part, std::size_t parts);

/// Runs a multi-chunk backward on ThreadPool::global(): every chunk runs
/// param_part(part, parts) for its own part, then claims images one at a
/// time and runs grad_input_image(i, scratch) with `scratch_size` floats of
/// scratch, so chunks with little parameter work take more images.
void run_split_backward(
    std::int64_t n, std::size_t scratch_size,
    const std::function<void(std::size_t, std::size_t)>& param_part,
    const std::function<void(std::int64_t, float*)>& grad_input_image);

}  // namespace wm::nn::detail
