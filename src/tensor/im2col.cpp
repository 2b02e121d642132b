#include "tensor/im2col.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace wm {

void ConvGeometry::validate() const {
  WM_CHECK_SHAPE(channels > 0 && height > 0 && width > 0,
                 "bad image geometry C=", channels, " H=", height, " W=", width);
  WM_CHECK_SHAPE(kernel_h > 0 && kernel_w > 0, "bad kernel ", kernel_h, "x", kernel_w);
  WM_CHECK_SHAPE(stride > 0, "bad stride ", stride);
  WM_CHECK_SHAPE(pad >= 0, "negative pad ", pad);
  WM_CHECK_SHAPE(out_h() > 0 && out_w() > 0, "empty conv output for H=", height,
                 " W=", width, " k=", kernel_h, "x", kernel_w, " s=", stride,
                 " p=", pad);
}

namespace {

/// Output positions [lo, hi) of one kernel tap `k` along one axis whose
/// input position o*stride + k - pad lies inside [0, size). Outside the
/// span the tap reads padding, so the loops below fill it without testing
/// each position.
struct TapSpan {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
};

TapSpan tap_span(std::int64_t k, std::int64_t size, std::int64_t out,
                 std::int64_t stride, std::int64_t pad) {
  const auto ceil_div = [stride](std::int64_t a) {
    return a <= 0 ? 0 : (a + stride - 1) / stride;
  };
  const std::int64_t lo = std::min(out, ceil_div(pad - k));
  return {lo, std::clamp(ceil_div(size + pad - k), lo, out)};
}

/// Shared expansion loop; `pad` is the value written for out-of-image taps
/// (0.0f for float images, the activation zero point for u8 ones). Each
/// (c, kh, kw) row copies the in-bounds span of every in-bounds output row
/// and fills the rest with `pad`.
template <typename T>
void im2col_impl(const ConvGeometry& g, const T* image, T* col, T pad) {
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  const std::int64_t hw = g.height * g.width;
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < g.channels; ++c) {
    const T* chan = image + c * hw;
    for (std::int64_t kh = 0; kh < g.kernel_h; ++kh) {
      const TapSpan ys = tap_span(kh, g.height, oh, g.stride, g.pad);
      for (std::int64_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        T* out_row = col + row * (oh * ow);
        const TapSpan xs = tap_span(kw, g.width, ow, g.stride, g.pad);
        const std::int64_t n = xs.hi - xs.lo;
        // A tap with no in-bounds column reads padding on every row.
        const TapSpan rows = n > 0 ? ys : TapSpan{};
        std::fill(out_row, out_row + rows.lo * ow, pad);
        for (std::int64_t y = rows.lo; y < rows.hi; ++y) {
          const T* in = chan + (y * g.stride + kh - g.pad) * g.width +
                        (xs.lo * g.stride + kw - g.pad);
          T* out = out_row + y * ow;
          std::fill(out, out + xs.lo, pad);
          if (g.stride == 1) {
            std::copy(in, in + n, out + xs.lo);
          } else {
            for (std::int64_t x = 0; x < n; ++x) out[xs.lo + x] = in[x * g.stride];
          }
          std::fill(out + xs.hi, out + ow, pad);
        }
        std::fill(out_row + rows.hi * ow, out_row + oh * ow, pad);
      }
    }
  }
}

}  // namespace

void im2col(const ConvGeometry& g, const float* image, float* col) {
  im2col_impl(g, image, col, 0.0f);
}

void im2col_u8(const ConvGeometry& g, const std::uint8_t* image,
               std::uint8_t* col, std::uint8_t pad) {
  im2col_impl(g, image, col, pad);
}

void col2im(const ConvGeometry& g, const float* col, float* image) {
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  const std::int64_t hw = g.height * g.width;
  std::int64_t row = 0;
  // Same (c, kh, kw, y, x) order as the expansion, visiting only in-bounds
  // taps, so every image element receives its contributions in tap order.
  for (std::int64_t c = 0; c < g.channels; ++c) {
    float* chan = image + c * hw;
    for (std::int64_t kh = 0; kh < g.kernel_h; ++kh) {
      const TapSpan ys = tap_span(kh, g.height, oh, g.stride, g.pad);
      for (std::int64_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        const float* in_row = col + row * (oh * ow);
        const TapSpan xs = tap_span(kw, g.width, ow, g.stride, g.pad);
        const std::int64_t n = xs.hi - xs.lo;
        if (n == 0) continue;
        for (std::int64_t y = ys.lo; y < ys.hi; ++y) {
          float* out = chan + (y * g.stride + kh - g.pad) * g.width +
                       (xs.lo * g.stride + kw - g.pad);
          const float* in = in_row + y * ow + xs.lo;
          if (g.stride == 1) {
            for (std::int64_t x = 0; x < n; ++x) out[x] += in[x];
          } else {
            for (std::int64_t x = 0; x < n; ++x) out[x * g.stride] += in[x];
          }
        }
      }
    }
  }
}

}  // namespace wm
