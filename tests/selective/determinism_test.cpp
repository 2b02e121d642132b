// Thread-count determinism: training must not depend on the pool size (conv
// backward adds each image's dW/db in batch order on any pool size), and
// the serial path (WM_THREADS=1) must be exactly reproducible run-to-run.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "selective/trainer.hpp"
#include "wafermap/synth/generator.hpp"

namespace wm::selective {
namespace {

Dataset tiny_dataset(std::uint64_t seed) {
  Rng rng(seed);
  synth::DatasetSpec spec;
  spec.map_size = 16;
  spec.class_counts[static_cast<std::size_t>(DefectType::kCenter)] = 12;
  spec.class_counts[static_cast<std::size_t>(DefectType::kEdgeRing)] = 12;
  spec.class_counts[static_cast<std::size_t>(DefectType::kNone)] = 12;
  return synth::generate_dataset(spec, rng);
}

struct TrainedTiny {
  std::vector<float> losses;
  std::vector<Tensor> parameters;
};

TrainedTiny train_tiny(std::size_t total_threads) {
  ThreadPool::configure_global(total_threads);
  Rng rng(42);
  SelectiveNet net({.map_size = 16, .num_classes = 9, .conv1_filters = 8,
                    .conv2_filters = 8, .conv3_filters = 8, .fc_units = 32},
                   rng);
  Dataset train = tiny_dataset(7);
  train.shuffle(rng);
  SelectiveTrainer trainer({.epochs = 3, .batch_size = 12,
                            .learning_rate = 1e-3, .target_coverage = 0.8});
  const TrainingLog log = trainer.train(net, train, nullptr, rng);
  ThreadPool::configure_global(0);
  TrainedTiny out;
  for (const auto& e : log.epochs) out.losses.push_back(e.loss);
  for (const nn::Parameter* p : net.parameters()) {
    out.parameters.push_back(p->value);
  }
  return out;
}

std::vector<float> train_losses(std::size_t total_threads) {
  return train_tiny(total_threads).losses;
}

TEST(DeterminismTest, SerialPathIsExactlyReproducible) {
  const auto a = train_losses(1);
  const auto b = train_losses(1);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(DeterminismTest, ThreadedTrainingMatchesSerialWithinTolerance) {
  const auto serial = train_losses(1);
  const auto threaded = train_losses(4);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    // Every split is bit-exact, which TrainedParametersBitEqualAcrossThread-
    // Counts checks on the parameters; this checks the loss trajectory.
    EXPECT_NEAR(serial[i], threaded[i],
                1e-4f * (1.0f + std::abs(serial[i])))
        << "epoch " << i;
  }
}

// Every trained parameter is bit-equal on every pool size, so one seed
// trains one model on any host (a 1-CPU one included: the pool sizes are
// set here, not taken from the hardware).
TEST(DeterminismTest, TrainedParametersBitEqualAcrossThreadCounts) {
  const TrainedTiny serial = train_tiny(1);
  for (std::size_t threads : {2u, 3u, 4u}) {
    const TrainedTiny threaded = train_tiny(threads);
    ASSERT_EQ(serial.parameters.size(), threaded.parameters.size());
    for (std::size_t p = 0; p < serial.parameters.size(); ++p) {
      const Tensor& a = serial.parameters[p];
      const Tensor& b = threaded.parameters[p];
      ASSERT_EQ(a.shape(), b.shape());
      for (std::int64_t i = 0; i < a.numel(); ++i) {
        ASSERT_EQ(a[i], b[i]) << "threads " << threads << " parameter " << p
                              << " index " << i;
      }
    }
  }
}

}  // namespace
}  // namespace wm::selective
