#include "tensor/im2col.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "tensor/tensor.hpp"

namespace wm {
namespace {

TEST(ConvGeometryTest, OutputDims) {
  ConvGeometry g{.channels = 1, .height = 32, .width = 32, .kernel_h = 5,
                 .kernel_w = 5, .stride = 1, .pad = 2};
  g.validate();
  EXPECT_EQ(g.out_h(), 32);
  EXPECT_EQ(g.out_w(), 32);
  EXPECT_EQ(g.col_rows(), 25);
  EXPECT_EQ(g.col_cols(), 1024);
}

TEST(ConvGeometryTest, StridedOutputDims) {
  ConvGeometry g{.channels = 3, .height = 7, .width = 9, .kernel_h = 3,
                 .kernel_w = 3, .stride = 2, .pad = 0};
  g.validate();
  EXPECT_EQ(g.out_h(), 3);
  EXPECT_EQ(g.out_w(), 4);
}

TEST(ConvGeometryTest, DegenerateThrows) {
  ConvGeometry g{.channels = 1, .height = 2, .width = 2, .kernel_h = 5,
                 .kernel_w = 5, .stride = 1, .pad = 0};
  EXPECT_THROW(g.validate(), ShapeError);
  ConvGeometry bad_stride{.channels = 1, .height = 4, .width = 4,
                          .kernel_h = 3, .kernel_w = 3, .stride = 0, .pad = 0};
  EXPECT_THROW(bad_stride.validate(), ShapeError);
}

TEST(Im2ColTest, Known2x2KernelNoPad) {
  // 1x3x3 image, 2x2 kernel, stride 1, no pad -> col is 4 x 4.
  ConvGeometry g{.channels = 1, .height = 3, .width = 3, .kernel_h = 2,
                 .kernel_w = 2, .stride = 1, .pad = 0};
  const std::vector<float> img = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<float> col(static_cast<std::size_t>(g.col_rows() * g.col_cols()));
  im2col(g, img.data(), col.data());
  // Row 0 = top-left tap over the 4 output pixels: 1,2,4,5.
  EXPECT_EQ(col[0], 1.0f);
  EXPECT_EQ(col[1], 2.0f);
  EXPECT_EQ(col[2], 4.0f);
  EXPECT_EQ(col[3], 5.0f);
  // Row 3 = bottom-right tap: 5,6,8,9.
  EXPECT_EQ(col[12], 5.0f);
  EXPECT_EQ(col[15], 9.0f);
}

TEST(Im2ColTest, PaddingWritesZeros) {
  ConvGeometry g{.channels = 1, .height = 2, .width = 2, .kernel_h = 3,
                 .kernel_w = 3, .stride = 1, .pad = 1};
  const std::vector<float> img = {1, 2, 3, 4};
  std::vector<float> col(static_cast<std::size_t>(g.col_rows() * g.col_cols()));
  im2col(g, img.data(), col.data());
  // Output is 2x2; top-left output pixel with kernel tap (0,0) reads the
  // padded corner -> 0.
  EXPECT_EQ(col[0], 0.0f);
  // Center tap (kh=1,kw=1) row index = (0*3+1)*3+1 = 4; reads the image as-is.
  EXPECT_EQ(col[4 * 4 + 0], 1.0f);
  EXPECT_EQ(col[4 * 4 + 3], 4.0f);
}

TEST(Im2ColTest, MultiChannelRowOrdering) {
  ConvGeometry g{.channels = 2, .height = 2, .width = 2, .kernel_h = 1,
                 .kernel_w = 1, .stride = 1, .pad = 0};
  const std::vector<float> img = {1, 2, 3, 4, 10, 20, 30, 40};
  std::vector<float> col(static_cast<std::size_t>(g.col_rows() * g.col_cols()));
  im2col(g, img.data(), col.data());
  // 1x1 kernel: col row c == channel c flattened.
  EXPECT_EQ(col[0], 1.0f);
  EXPECT_EQ(col[3], 4.0f);
  EXPECT_EQ(col[4], 10.0f);
  EXPECT_EQ(col[7], 40.0f);
}

TEST(Col2ImTest, InverseOfIm2ColForNonOverlappingWindows) {
  // stride == kernel -> each input pixel used exactly once, so col2im(im2col(x)) == x.
  ConvGeometry g{.channels = 2, .height = 4, .width = 4, .kernel_h = 2,
                 .kernel_w = 2, .stride = 2, .pad = 0};
  Rng rng(8);
  const Tensor img = Tensor::normal(Shape{2, 4, 4}, rng);
  std::vector<float> col(static_cast<std::size_t>(g.col_rows() * g.col_cols()));
  im2col(g, img.data(), col.data());
  Tensor back(Shape{2, 4, 4});
  col2im(g, col.data(), back.data());
  for (std::int64_t i = 0; i < img.numel(); ++i) EXPECT_FLOAT_EQ(back[i], img[i]);
}

TEST(Col2ImTest, OverlapAccumulates) {
  // 1x1x3 image (as 1x3x1? use 1-row): kernel 1x2, stride 1 -> middle pixel
  // belongs to two windows and must accumulate twice.
  ConvGeometry g{.channels = 1, .height = 1, .width = 3, .kernel_h = 1,
                 .kernel_w = 2, .stride = 1, .pad = 0};
  const std::vector<float> img = {1, 2, 3};
  std::vector<float> col(static_cast<std::size_t>(g.col_rows() * g.col_cols()));
  im2col(g, img.data(), col.data());
  std::vector<float> back(3, 0.0f);
  col2im(g, col.data(), back.data());
  EXPECT_FLOAT_EQ(back[0], 1.0f);
  EXPECT_FLOAT_EQ(back[1], 4.0f);  // appears in both windows
  EXPECT_FLOAT_EQ(back[2], 3.0f);
}


// The per-tap lowering loops the optimized ones replaced: every tap tests
// both bounds. Kept as the reference for the sweep below.
template <typename T>
void naive_im2col(const ConvGeometry& g, const T* image, T* col, T pad) {
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < g.channels; ++c) {
    const T* chan = image + c * g.height * g.width;
    for (std::int64_t kh = 0; kh < g.kernel_h; ++kh) {
      for (std::int64_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        for (std::int64_t y = 0; y < oh; ++y) {
          const std::int64_t iy = y * g.stride + kh - g.pad;
          for (std::int64_t x = 0; x < ow; ++x) {
            const std::int64_t ix = x * g.stride + kw - g.pad;
            const bool in = iy >= 0 && iy < g.height && ix >= 0 && ix < g.width;
            col[row * oh * ow + y * ow + x] = in ? chan[iy * g.width + ix] : pad;
          }
        }
      }
    }
  }
}

void naive_col2im(const ConvGeometry& g, const float* col, float* image) {
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < g.channels; ++c) {
    float* chan = image + c * g.height * g.width;
    for (std::int64_t kh = 0; kh < g.kernel_h; ++kh) {
      for (std::int64_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        for (std::int64_t y = 0; y < oh; ++y) {
          const std::int64_t iy = y * g.stride + kh - g.pad;
          if (iy < 0 || iy >= g.height) continue;
          for (std::int64_t x = 0; x < ow; ++x) {
            const std::int64_t ix = x * g.stride + kw - g.pad;
            if (ix >= 0 && ix < g.width) {
              chan[iy * g.width + ix] += col[row * oh * ow + y * ow + x];
            }
          }
        }
      }
    }
  }
}

float uniform(Rng& rng) { return static_cast<float>(rng.uniform(-1.0, 1.0)); }

bool is_valid(const ConvGeometry& g) {
  try {
    g.validate();
    return true;
  } catch (const ShapeError&) {
    return false;
  }
}

template <typename T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

// Sweeps channels, non-square images, non-square kernels, strides and pads
// up to the kernel size (including pads wider than the image, where some
// kernel columns never touch it) and compares all three lowerings with the
// per-tap reference bit for bit.
TEST(Im2ColTest, MatchesPerTapReferenceAcrossGeometries) {
  Rng rng(21);
  int checked = 0;
  for (std::int64_t c : {1, 3}) {
    for (std::int64_t h = 1; h <= 16; h += (h < 6 ? 1 : 5)) {
      for (std::int64_t w = 1; w <= 16; w += (w < 6 ? 1 : 4)) {
        for (std::int64_t kh = 1; kh <= 5; ++kh) {
          for (std::int64_t kw = 1; kw <= 5; kw += 2) {
            for (std::int64_t s = 1; s <= 3; ++s) {
              for (std::int64_t p = 0; p <= std::max(kh, kw); ++p) {
                const ConvGeometry g{.channels = c, .height = h, .width = w,
                                     .kernel_h = kh, .kernel_w = kw,
                                     .stride = s, .pad = p};
                if (!is_valid(g)) continue;
                SCOPED_TRACE(::testing::Message()
                             << "C=" << c << " H=" << h << " W=" << w
                             << " k=" << kh << "x" << kw << " s=" << s
                             << " p=" << p);
                const auto img_n = static_cast<std::size_t>(c * h * w);
                const auto col_n =
                    static_cast<std::size_t>(g.col_rows() * g.col_cols());

                std::vector<float> img(img_n);
                for (float& v : img) v = uniform(rng);
                std::vector<float> col(col_n, -1.0f);
                std::vector<float> want(col_n);
                im2col(g, img.data(), col.data());
                naive_im2col(g, img.data(), want.data(), 0.0f);
                ASSERT_TRUE(same_bytes(col, want));

                std::vector<std::uint8_t> qimg(img_n);
                for (auto& v : qimg) v = static_cast<std::uint8_t>(rng.next_u64());
                std::vector<std::uint8_t> qcol(col_n, 0);
                std::vector<std::uint8_t> qwant(col_n);
                im2col_u8(g, qimg.data(), qcol.data(), 17);
                naive_im2col<std::uint8_t>(g, qimg.data(), qwant.data(), 17);
                ASSERT_TRUE(same_bytes(qcol, qwant));

                for (float& v : col) v = uniform(rng);
                std::vector<float> back(img_n);
                for (float& v : back) v = uniform(rng);
                std::vector<float> back_want = back;
                col2im(g, col.data(), back.data());
                naive_col2im(g, col.data(), back_want.data());
                ASSERT_TRUE(same_bytes(back, back_want));
                ++checked;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 1000);
}

}  // namespace
}  // namespace wm
