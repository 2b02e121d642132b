// Fig 4 reproduction: original samples (top row in the paper) vs synthetic
// samples produced by Algorithm 1 (bottom row).
//
// For each defect class we train a per-class convolutional auto-encoder and
// print one original next to one synthetic wafer, plus distributional
// statistics showing the synthetics stay close to the class.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "augment/augmentor.hpp"
#include "common/env.hpp"
#include "common/rng.hpp"
#include "common/string_util.hpp"
#include "wafermap/io_pgm.hpp"
#include "wafermap/synth/generator.hpp"

using namespace wm;

namespace {

void print_pair(const WaferMap& orig, const WaferMap& synth) {
  const auto l = split(ascii_render(orig), '\n');
  const auto r = split(ascii_render(synth), '\n');
  std::printf("%s | %s\n", pad_right("original", orig.size()).c_str(),
              "synthetic");
  for (std::size_t i = 0; i + 1 < l.size() && i + 1 < r.size(); ++i) {
    std::printf("%s | %s\n", pad_right(l[i], orig.size()).c_str(), r[i].c_str());
  }
}

}  // namespace

int main() {
  std::printf("=== Fig 4: CAE data augmentation, original vs synthetic ===\n\n");
  const double scale = bench_scale();
  const auto scaled = [scale](int n, int min_value) {
    return std::max(min_value, static_cast<int>(std::lround(n * scale)));
  };
  Rng rng(2021);
  const int size = 24;
  const int n_originals = scaled(16, 8);

  augment::AugmentOptions opts;
  opts.target_per_class = 3 * n_originals;
  opts.sigma0 = 0.2;
  opts.sp_flips = 4;
  opts.cae = {.map_size = size, .encoder_filters = {16, 8}, .kernel = 5};
  opts.cae_training = {.epochs = scaled(15, 6), .batch_size = 8,
                       .learning_rate = 2e-3};
  augment::Augmentor augmentor(opts);

  for (DefectType type : all_defect_types()) {
    if (type == DefectType::kNone) continue;  // paper augments defects only
    synth::DatasetSpec spec;
    spec.map_size = size;
    spec.class_counts[static_cast<std::size_t>(type)] = n_originals;
    const Dataset originals = synth::generate_dataset(spec, rng);
    const Dataset omega = augmentor.augment_class(originals, rng);

    double orig_density = 0.0;
    for (std::size_t i = 0; i < originals.size(); ++i) {
      orig_density += originals[i].map.fail_fraction();
    }
    orig_density /= static_cast<double>(originals.size());
    double synth_density = 0.0;
    for (std::size_t i = 0; i < omega.size(); ++i) {
      synth_density += omega[i].map.fail_fraction();
    }
    synth_density /= static_cast<double>(omega.size());

    std::printf("--- %s: %zu originals -> %zu synthetics ---\n",
                to_string(type).c_str(), originals.size(), omega.size());
    std::printf("fail-density original %.3f vs synthetic %.3f\n",
                orig_density, synth_density);
    print_pair(originals[0].map, omega[0].map);
    std::printf("\n");
  }
  std::printf("paper shape check: synthetics preserve the class' spatial\n"
              "signature while varying position/rotation/noise (Fig 4 rows).\n");
  return 0;
}
