#include "nn/layers/conv_transpose2d.hpp"

#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "nn/init.hpp"
#include "nn/layers/conv_grad.hpp"
#include "tensor/gemm.hpp"

namespace wm::nn {

ConvTranspose2d::ConvTranspose2d(const ConvTranspose2dOptions& opts, Rng& rng)
    : opts_(opts),
      weight_("convT.weight",
              Tensor(Shape{opts.in_channels,
                           opts.out_channels * opts.kernel * opts.kernel})),
      bias_("convT.bias", Tensor(Shape{opts.out_channels})) {
  WM_CHECK(opts.in_channels > 0 && opts.out_channels > 0 && opts.kernel > 0 &&
               opts.stride > 0 && opts.pad >= 0,
           "bad ConvTranspose2d options");
  he_normal(weight_.value, opts.in_channels * opts.kernel * opts.kernel, rng);
}

std::int64_t ConvTranspose2d::out_size(std::int64_t in_size) const {
  return (in_size - 1) * opts_.stride + opts_.kernel - 2 * opts_.pad;
}

ConvGeometry ConvTranspose2d::geometry(std::int64_t out_h, std::int64_t out_w) const {
  // The "image" of this geometry is the *output* of the transposed conv,
  // mirroring the forward geometry of the matching Conv2d.
  ConvGeometry g{.channels = opts_.out_channels, .height = out_h,
                 .width = out_w, .kernel_h = opts_.kernel,
                 .kernel_w = opts_.kernel, .stride = opts_.stride,
                 .pad = opts_.pad};
  g.validate();
  return g;
}

Tensor ConvTranspose2d::forward(const Tensor& input, bool training) {
  WM_TRACE_SCOPE("conv_transpose2d.fwd");
  WM_COUNTER_INC("wm_nn_conv_transpose2d_forward_total", "ConvTranspose2d forward passes");
  WM_CHECK_SHAPE(input.rank() == 4 && input.dim(1) == opts_.in_channels,
                 "ConvTranspose2d expects (N, ", opts_.in_channels,
                 ", H, W), got ", input.shape().to_string());
  if (training) input_ = input;
  const std::int64_t n = input.dim(0);
  const std::int64_t h = input.dim(2);
  const std::int64_t w = input.dim(3);
  const std::int64_t oh = out_size(h);
  const std::int64_t ow = out_size(w);
  WM_CHECK_SHAPE(oh > 0 && ow > 0, "ConvTranspose2d produces empty output");
  const ConvGeometry g = geometry(oh, ow);
  WM_CHECK_SHAPE(g.out_h() == h && g.out_w() == w,
                 "inconsistent transpose geometry (stride/pad/kernel mismatch)");

  const std::int64_t spatial = h * w;  // col_cols of g
  const std::int64_t in_image = opts_.in_channels * spatial;
  const std::int64_t out_image = opts_.out_channels * oh * ow;
  const std::size_t col_size =
      static_cast<std::size_t>(g.col_rows() * g.col_cols());
  Tensor out(Shape{n, opts_.out_channels, oh, ow});

  ThreadPool::global().parallel_chunks(
      0, static_cast<std::size_t>(n),
      [&](std::size_t lo, std::size_t hi, std::size_t /*slot*/) {
        std::vector<float> col(col_size);
        for (std::size_t ii = lo; ii < hi; ++ii) {
          const std::int64_t i = static_cast<std::int64_t>(ii);
          // col (OC*K*K x spatial) = W^T (OC*K*K x IC) * X_i (IC x spatial)
          sgemm_at(g.col_rows(), spatial, opts_.in_channels, 1.0f,
                   weight_.value.data(), input.data() + i * in_image, 0.0f,
                   col.data());
          float* oimg = out.data() + i * out_image;
          // `out` is zeroed at construction, but this layer may run twice on
          // the same tensor storage only if reused; keep the explicit clear.
          for (std::int64_t z = 0; z < out_image; ++z) oimg[z] = 0.0f;
          col2im(g, col.data(), oimg);
          const float* b = bias_.value.data();
          for (std::int64_t oc = 0; oc < opts_.out_channels; ++oc) {
            float* chan = oimg + oc * oh * ow;
            for (std::int64_t s = 0; s < oh * ow; ++s) chan[s] += b[oc];
          }
        }
      });
  return out;
}

Tensor ConvTranspose2d::backward(const Tensor& grad_output) {
  WM_TRACE_SCOPE("conv_transpose2d.bwd");
  WM_COUNTER_INC("wm_nn_conv_transpose2d_backward_total", "ConvTranspose2d backward passes");
  const std::int64_t n = input_.dim(0);
  const std::int64_t h = input_.dim(2);
  const std::int64_t w = input_.dim(3);
  const std::int64_t oh = out_size(h);
  const std::int64_t ow = out_size(w);
  WM_CHECK_SHAPE(grad_output.rank() == 4 && grad_output.dim(0) == n &&
                     grad_output.dim(1) == opts_.out_channels &&
                     grad_output.dim(2) == oh && grad_output.dim(3) == ow,
                 "ConvTranspose2d backward shape mismatch: got ",
                 grad_output.shape().to_string());
  const ConvGeometry g = geometry(oh, ow);
  const std::int64_t spatial = h * w;
  const std::int64_t in_image = opts_.in_channels * spatial;
  const std::int64_t out_image = opts_.out_channels * oh * ow;

  Tensor grad_input(input_.shape());
  const std::size_t col_size =
      static_cast<std::size_t>(g.col_rows() * g.col_cols());

  float* dw = weight_.grad.data();
  float* db = bias_.grad.data();
  // dX_i (IC x spatial) = W (IC x OC*K*K) * col (OC*K*K x spatial), with
  // col = im2col(dY_i) over the output geometry.
  const auto grad_input_image = [&](std::int64_t i, float* col) {
    im2col(g, grad_output.data() + i * out_image, col);
    sgemm(opts_.in_channels, spatial, g.col_rows(), 1.0f,
          weight_.value.data(), col, 0.0f, grad_input.data() + i * in_image);
  };

  // Batch-order dW/db on any pool size, as in Conv2d::backward.
  if (ThreadPool::global().chunk_count(static_cast<std::size_t>(n)) <= 1) {
    std::vector<float> col(col_size);
    for (std::int64_t i = 0; i < n; ++i) {
      grad_input_image(i, col.data());
      // dW (IC x OC*K*K) += X_i (IC x spatial) * col^T (spatial x OC*K*K)
      sgemm_bt(opts_.in_channels, g.col_rows(), spatial, 1.0f,
               input_.data() + i * in_image, col.data(), 1.0f, dw);
      detail::add_channel_sums(opts_.out_channels, oh * ow,
                               grad_output.data() + i * out_image, db);
    }
    return grad_input;
  }
  detail::run_split_backward(
      n, col_size,
      [&](std::size_t part, std::size_t parts) {
        detail::accumulate_weight_grad(g, n, opts_.in_channels, input_.data(),
                                       in_image, grad_output.data(),
                                       out_image, dw, part, parts);
        detail::accumulate_bias_grad(n, opts_.out_channels, oh * ow,
                                     grad_output.data(), db, part, parts);
      },
      grad_input_image);
  return grad_input;
}

std::string ConvTranspose2d::name() const {
  std::ostringstream os;
  os << "ConvTranspose2d(" << opts_.in_channels << " -> " << opts_.out_channels
     << ", k=" << opts_.kernel << ", s=" << opts_.stride << ", p=" << opts_.pad
     << ")";
  return os.str();
}

}  // namespace wm::nn
