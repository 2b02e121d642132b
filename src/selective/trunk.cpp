#include "selective/trunk.hpp"

#include <algorithm>
#include <vector>

#include "common/threadpool.hpp"
#include "obs/trace.hpp"

namespace wm::selective::detail {

Tensor run_trunk(const Tensor& images, const SelectiveNetOptions& opts,
                 const std::function<TrunkBlock()>& make_block) {
  WM_TRACE_SCOPE("infer.trunk");
  const std::int64_t n = images.dim(0);
  const std::int64_t s = opts.map_size;
  const std::int64_t c1 = opts.conv1_filters;
  const std::int64_t c2 = opts.conv2_filters;
  const std::int64_t c3 = opts.conv3_filters;
  // The convs are 'same', so block b's conv output is (c_b, s >> b, s >> b)
  // and its pooled output is a quarter of that.
  const std::size_t conv_size = static_cast<std::size_t>(
      std::max({c1 * s * s, c2 * s * s / 4, c3 * s * s / 16}));
  const std::size_t pool1_size = static_cast<std::size_t>(c1 * s * s / 4);
  const std::size_t pool2_size = static_cast<std::size_t>(c2 * s * s / 16);
  const std::int64_t feat = c3 * (s / 8) * (s / 8);

  Tensor features(Shape{n, feat});
  ThreadPool::global().parallel_chunks(
      0, static_cast<std::size_t>(n),
      [&](std::size_t lo, std::size_t hi, std::size_t /*slot*/) {
        const TrunkBlock block = make_block();
        std::vector<float> conv(conv_size);
        std::vector<float> pool1(pool1_size);
        std::vector<float> pool2(pool2_size);
        for (std::size_t i = lo; i < hi; ++i) {
          const std::int64_t img = static_cast<std::int64_t>(i);
          block(0, images.data() + img * s * s, conv.data(), pool1.data());
          block(1, pool1.data(), conv.data(), pool2.data());
          block(2, pool2.data(), conv.data(), features.data() + img * feat);
        }
      });
  return features;
}

}  // namespace wm::selective::detail
