#include "augment/augmentor.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "wafermap/synth/generator.hpp"

namespace wm::augment {
namespace {

AugmentOptions fast_options(int target) {
  AugmentOptions opts;
  opts.target_per_class = target;
  opts.cae = {.map_size = 16, .encoder_filters = {8, 4}, .kernel = 5};
  opts.cae_training = {.epochs = 3, .batch_size = 8, .learning_rate = 2e-3};
  return opts;
}

Dataset one_class_dataset(DefectType type, int count, Rng& rng) {
  synth::DatasetSpec spec;
  spec.map_size = 16;
  spec.class_counts[static_cast<std::size_t>(type)] = count;
  return synth::generate_dataset(spec, rng);
}

TEST(AugmentorTest, ProducesRequestedSyntheticCount) {
  Rng rng(1);
  const Dataset cls = one_class_dataset(DefectType::kDonut, 5, rng);
  Augmentor aug(fast_options(20));  // n_r = ceil(20/5) - 1 = 3
  const Dataset omega = aug.augment_class(cls, rng);
  EXPECT_EQ(omega.size(), 15u);  // n_cl * n_r
}

TEST(AugmentorTest, SyntheticSamplesCarryLabelWeightAndFlag) {
  Rng rng(2);
  const Dataset cls = one_class_dataset(DefectType::kScratch, 4, rng);
  AugmentOptions opts = fast_options(12);
  opts.synthetic_weight = 0.25f;
  Augmentor aug(opts);
  const Dataset omega = aug.augment_class(cls, rng);
  ASSERT_GT(omega.size(), 0u);
  for (std::size_t i = 0; i < omega.size(); ++i) {
    EXPECT_EQ(omega[i].label, DefectType::kScratch);
    EXPECT_FLOAT_EQ(omega[i].weight, 0.25f);
    EXPECT_TRUE(omega[i].synthetic);
    EXPECT_EQ(omega[i].map.size(), 16);
  }
}

TEST(AugmentorTest, NoSyntheticsWhenClassMeetsTarget) {
  Rng rng(3);
  const Dataset cls = one_class_dataset(DefectType::kCenter, 10, rng);
  Augmentor aug(fast_options(10));  // n_r = 0
  EXPECT_TRUE(aug.augment_class(cls, rng).empty());
}

TEST(AugmentorTest, RotationCapBoundsOutput) {
  Rng rng(4);
  const Dataset cls = one_class_dataset(DefectType::kNearFull, 2, rng);
  AugmentOptions opts = fast_options(1000);
  opts.max_rotations_per_sample = 5;
  Augmentor aug(opts);
  const Dataset omega = aug.augment_class(cls, rng);
  EXPECT_EQ(omega.size(), 10u);  // 2 * cap
}

TEST(AugmentorTest, MixedClassInputRejected) {
  Rng rng(5);
  synth::DatasetSpec spec;
  spec.map_size = 16;
  spec.class_counts[0] = 2;
  spec.class_counts[1] = 2;
  const Dataset mixed = synth::generate_dataset(spec, rng);
  Augmentor aug(fast_options(10));
  EXPECT_THROW(aug.augment_class(mixed, rng), InvalidArgument);
  EXPECT_THROW(aug.augment_class(Dataset{}, rng), InvalidArgument);
}

TEST(AugmentorTest, AugmentDatasetSkipsNoneAndFullClasses) {
  Rng rng(6);
  synth::DatasetSpec spec;
  spec.map_size = 16;
  // Donut is rare, None is dominant, Center already at target.
  spec.class_counts[static_cast<std::size_t>(DefectType::kDonut)] = 3;
  spec.class_counts[static_cast<std::size_t>(DefectType::kCenter)] = 12;
  spec.class_counts[static_cast<std::size_t>(DefectType::kNone)] = 30;
  const Dataset train = synth::generate_dataset(spec, rng);

  Augmentor aug(fast_options(12));
  const Dataset merged = aug.augment_dataset(train, rng);
  const auto before = train.class_counts();
  const auto after = merged.class_counts();
  // Donut grew to >= target, Center and None untouched.
  EXPECT_GE(after[static_cast<std::size_t>(DefectType::kDonut)], 12);
  EXPECT_EQ(after[static_cast<std::size_t>(DefectType::kCenter)],
            before[static_cast<std::size_t>(DefectType::kCenter)]);
  EXPECT_EQ(after[static_cast<std::size_t>(DefectType::kNone)],
            before[static_cast<std::size_t>(DefectType::kNone)]);
  // Originals all kept.
  EXPECT_GE(merged.size(), train.size());
}

TEST(AugmentorTest, SyntheticWafersDifferFromOriginalsAndEachOther) {
  Rng rng(7);
  const Dataset cls = one_class_dataset(DefectType::kDonut, 3, rng);
  Augmentor aug(fast_options(12));
  const Dataset omega = aug.augment_class(cls, rng);
  ASSERT_GE(omega.size(), 2u);
  int identical = 0;
  for (std::size_t i = 1; i < omega.size(); ++i) {
    identical += (omega[i].map == omega[0].map);
  }
  EXPECT_LT(identical, static_cast<int>(omega.size()) / 2);
}

TEST(AugmentorTest, DeterministicGivenSeed) {
  AugmentOptions opts = fast_options(8);
  Rng rng_data(8);
  const Dataset cls = one_class_dataset(DefectType::kCenter, 3, rng_data);
  Rng a(99);
  Rng b(99);
  const Dataset oa = Augmentor(opts).augment_class(cls, a);
  const Dataset ob = Augmentor(opts).augment_class(cls, b);
  ASSERT_EQ(oa.size(), ob.size());
  for (std::size_t i = 0; i < oa.size(); ++i) {
    EXPECT_EQ(oa[i].map, ob[i].map);
  }
}

/// Every pool size forks the same per-class rngs, so one thread (where
/// parallel_for runs inline) and four give bit-identical synthetic maps.
TEST(AugmentorTest, AugmentDatasetBitIdenticalAcrossThreadCounts) {
  Rng data_rng(12);
  synth::DatasetSpec spec;
  spec.map_size = 16;
  for (DefectType t : {DefectType::kDonut, DefectType::kScratch,
                       DefectType::kEdgeRing}) {
    spec.class_counts[static_cast<std::size_t>(t)] = 3;
  }
  const Dataset train = synth::generate_dataset(spec, data_rng);
  const Augmentor aug(fast_options(9));
  const auto run = [&](std::size_t threads) {
    ThreadPool::configure_global(threads);
    Rng rng(2020);
    return aug.augment_dataset(train, rng);
  };
  const Dataset serial = run(1);
  const Dataset parallel = run(4);
  ThreadPool::configure_global(0);
  ASSERT_EQ(serial.size(), parallel.size());
  ASSERT_GT(serial.size(), train.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].map, parallel[i].map) << "sample " << i;
    EXPECT_EQ(serial[i].label, parallel[i].label) << "sample " << i;
  }
}

TEST(AugmentorTest, RejectsBadOptions) {
  EXPECT_THROW(Augmentor({.target_per_class = 0}), InvalidArgument);
  EXPECT_THROW(Augmentor({.sigma0 = -0.1}), InvalidArgument);
  EXPECT_THROW(Augmentor({.sp_flips = -1}), InvalidArgument);
  EXPECT_THROW(Augmentor({.synthetic_weight = 0.0f}), InvalidArgument);
  EXPECT_THROW(Augmentor({.synthetic_weight = 1.5f}), InvalidArgument);
}

}  // namespace
}  // namespace wm::augment
