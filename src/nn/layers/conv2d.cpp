#include "nn/layers/conv2d.hpp"

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

Conv2d::Conv2d(const Conv2dOptions& opts, Rng& rng)
    : opts_(opts),
      weight_("conv.weight",
              Tensor(Shape{opts.out_channels,
                           opts.in_channels * opts.kernel * opts.kernel})),
      bias_("conv.bias", Tensor(Shape{opts.out_channels})) {
  WM_CHECK(opts.in_channels > 0 && opts.out_channels > 0 && opts.kernel > 0 &&
               opts.stride > 0 && opts.pad >= 0,
           "bad Conv2d options");
  he_normal(weight_.value, opts.in_channels * opts.kernel * opts.kernel, rng);
}

ConvGeometry Conv2dOptions::geometry(std::int64_t h, std::int64_t w) const {
  ConvGeometry g{.channels = in_channels, .height = h, .width = w,
                 .kernel_h = kernel, .kernel_w = kernel, .stride = stride,
                 .pad = pad};
  g.validate();
  return g;
}

Tensor Conv2d::forward(const Tensor& input, bool training) {
  WM_TRACE_SCOPE("conv2d.fwd");
  WM_COUNTER_INC("wm_nn_conv2d_forward_total", "Conv2d forward passes");
  WM_CHECK_SHAPE(input.rank() == 4 && input.dim(1) == opts_.in_channels,
                 "Conv2d expects (N, ", opts_.in_channels, ", H, W), got ",
                 input.shape().to_string());
  if (training) input_ = input;
  const std::int64_t n = input.dim(0);
  const ConvGeometry g = opts_.geometry(input.dim(2), input.dim(3));
  const std::int64_t in_image = input.dim(1) * input.dim(2) * input.dim(3);
  const std::int64_t out_image = opts_.out_channels * g.col_cols();
  const std::size_t col_size =
      static_cast<std::size_t>(g.col_rows() * g.col_cols());

  Tensor out(Shape{n, opts_.out_channels, g.out_h(), g.out_w()});
  ThreadPool::global().parallel_chunks(
      0, static_cast<std::size_t>(n),
      [&](std::size_t lo, std::size_t hi, std::size_t /*slot*/) {
        std::vector<float> col(col_size);
        for (std::size_t i = lo; i < hi; ++i) {
          const std::int64_t img = static_cast<std::int64_t>(i);
          forward_image(g, input.data() + img * in_image, col.data(),
                        out.data() + img * out_image);
        }
      });
  return out;
}

void Conv2d::forward_image(const ConvGeometry& g, const float* image,
                           float* col, float* out) const {
  im2col(g, image, col);
  // out (OC x spatial) = W (OC x IC*K*K) * col (IC*K*K x spatial), with the
  // per-channel bias folded into the GEMM epilogue.
  sgemm_bias_rows(opts_.out_channels, g.col_cols(), g.col_rows(), 1.0f,
                  weight_.value.data(), col, 0.0f, out, bias_.value.data());
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  WM_TRACE_SCOPE("conv2d.bwd");
  WM_COUNTER_INC("wm_nn_conv2d_backward_total", "Conv2d backward passes");
  const std::int64_t n = input_.dim(0);
  const ConvGeometry g = opts_.geometry(input_.dim(2), input_.dim(3));
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  const std::int64_t spatial = oh * ow;
  WM_CHECK_SHAPE(grad_output.rank() == 4 && grad_output.dim(0) == n &&
                     grad_output.dim(1) == opts_.out_channels &&
                     grad_output.dim(2) == oh && grad_output.dim(3) == ow,
                 "Conv2d backward shape mismatch: got ",
                 grad_output.shape().to_string());

  const std::int64_t in_image = input_.dim(1) * input_.dim(2) * input_.dim(3);
  const std::int64_t out_image = opts_.out_channels * spatial;
  const std::size_t col_size =
      static_cast<std::size_t>(g.col_rows() * g.col_cols());
  Tensor grad_input(input_.shape());

  float* dw = weight_.grad.data();
  float* db = bias_.grad.data();
  // dX_i: dcol (R x spatial) = W^T (R x OC) * dY_i (OC x spatial), col2im.
  const auto grad_input_image = [&](std::int64_t i, float* dcol) {
    sgemm_at(g.col_rows(), spatial, opts_.out_channels, 1.0f,
             weight_.value.data(), grad_output.data() + i * out_image, 0.0f,
             dcol);
    col2im(g, dcol, grad_input.data() + i * in_image);
  };

  // dW and db take each image's contribution in batch order on any pool
  // size (conv_grad.hpp). With one chunk (no workers, one image, or a call
  // from inside a pool worker) one loop does all of an image's work.
  if (ThreadPool::global().chunk_count(static_cast<std::size_t>(n)) <= 1) {
    std::vector<float> col(col_size);
    std::vector<float> dcol(col_size);
    for (std::int64_t i = 0; i < n; ++i) {
      const float* dy = grad_output.data() + i * out_image;
      // dW (OC x R) += dY_i (OC x spatial) * col_i^T (spatial x R)
      im2col(g, input_.data() + i * in_image, col.data());
      sgemm_bt(opts_.out_channels, g.col_rows(), spatial, 1.0f, dy,
               col.data(), 1.0f, dw);
      detail::add_channel_sums(opts_.out_channels, spatial, dy, db);
      grad_input_image(i, dcol.data());
    }
    return grad_input;
  }
  detail::run_split_backward(
      n, col_size,
      [&](std::size_t part, std::size_t parts) {
        detail::accumulate_weight_grad(g, n, opts_.out_channels,
                                       grad_output.data(), out_image,
                                       input_.data(), in_image, dw, part,
                                       parts);
        detail::accumulate_bias_grad(n, opts_.out_channels, spatial,
                                     grad_output.data(), db, part, parts);
      },
      grad_input_image);
  return grad_input;
}

std::string Conv2d::name() const {
  std::ostringstream os;
  os << "Conv2d(" << opts_.in_channels << " -> " << opts_.out_channels << ", k="
     << opts_.kernel << ", s=" << opts_.stride << ", p=" << opts_.pad << ")";
  return os.str();
}

}  // namespace wm::nn
