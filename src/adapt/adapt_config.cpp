#include "adapt/adapt_config.hpp"

#include "common/env.hpp"

namespace wm::adapt {

AdaptConfig::Resolved AdaptConfig::resolve() const {
  Resolved r;
  overlay(r.buffer_capacity, buffer_capacity, "WM_ADAPT_BUFFER", 16,
          1'000'000);
  overlay(r.min_samples, min_samples, "WM_ADAPT_MIN_SAMPLES", 8, 1'000'000);
  overlay(r.refit_window, refit_window, "WM_ADAPT_REFIT_WINDOW", 8,
          1'000'000);
  overlay(r.cooldown_ms, cooldown_ms, "WM_ADAPT_COOLDOWN_MS", 0, 10'000'000);
  overlay(r.eval_ms, eval_ms, "WM_ADAPT_EVAL_MS", 1, 10'000'000);
  overlay(r.backoff_max_ms, backoff_max_ms, "WM_ADAPT_BACKOFF_MAX_MS", 1,
          100'000'000);
  overlay(r.fine_tune_epochs, fine_tune_epochs, "WM_ADAPT_EPOCHS", 1, 1000);
  overlay(r.fine_tune_batch, fine_tune_batch, "WM_ADAPT_BATCH", 1, 4096);
  if (fine_tune_lr) r.fine_tune_lr = *fine_tune_lr;
  overlay(r.augment_target, augment_target, "WM_ADAPT_AUGMENT_TARGET", 0,
          100'000);
  overlay(r.cae_epochs, cae_epochs, "WM_ADAPT_CAE_EPOCHS", 1, 1000);
  overlay(r.use_pseudo_labels, use_pseudo_labels, "WM_ADAPT_PSEUDO_LABELS");
  overlay(r.max_retrains, max_retrains, "WM_ADAPT_MAX_RETRAINS", 0, 1'000'000);
  overlay(r.seed, seed, "WM_ADAPT_SEED", 0, std::int64_t{1} << 31);
  return r;
}

}  // namespace wm::adapt
