// The per-image inference trunk shared by SelectiveNet::infer (fp32) and
// QuantizedSelectiveNet::infer (int8).
//
// The eval batch fans out across ThreadPool::global() by image. Each image
// runs the three conv blocks of Table I back to back out of chunk-local
// scratch: the conv writes that image's unpooled (C, H, W) output, and one
// fused epilogue pass (nn::pool2x2) turns it into the next block's input.
// Only the (N, feat) feature matrix is materialized; FC and the heads then
// run batch-wide. Every image goes through the same arithmetic, in the same
// order, as the public layer chain, so the features are bit-identical to it
// at any thread count and batch composition (DESIGN.md §7).
#pragma once

#include <functional>

#include "selective/selective_net.hpp"
#include "tensor/tensor.hpp"

namespace wm::selective::detail {

/// Block `b` (0, 1 or 2) of one image: convolves `in` into the unpooled
/// scratch `conv`, then writes the block's pooled output to `out`.
using TrunkBlock =
    std::function<void(int b, const float* in, float* conv, float* out)>;

/// Runs the trunk over (N, 1, map, map) images and returns the (N, feat)
/// features, laid out as Flatten lays out the last pool. `make_block` is
/// called once per chunk; the block it returns owns that chunk's conv
/// scratch. Records one `infer.trunk` span.
Tensor run_trunk(const Tensor& images, const SelectiveNetOptions& opts,
                 const std::function<TrunkBlock()>& make_block);

}  // namespace wm::selective::detail
