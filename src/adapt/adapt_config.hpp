// adapt::AdaptConfig — one configuration for the closed-loop
// drift-adaptation controller. Every knob resolves with the precedence rule
//
//   explicit field  >  environment variable  >  default
//
// Fields are std::optional. resolve() starts from Resolved{}, whose
// initialisers are the only copy of the defaults, and overlays each set
// field, else its env var (common/env.hpp: malformed or out-of-range values
// warn and keep the default, never half-apply). The AdaptationController
// consumes the resulting plain values.
//
// Environment variables (all optional):
//   WM_ADAPT_BUFFER           sample-buffer capacity        [16, 10^6]
//   WM_ADAPT_MIN_SAMPLES      samples required to act       [8, 10^6]
//   WM_ADAPT_REFIT_WINDOW     recent g-scores for re-fit    [8, 10^6]
//   WM_ADAPT_COOLDOWN_MS      min gap between actions       [0, 10^7]
//   WM_ADAPT_EVAL_MS          post-action clear deadline    [1, 10^7]
//   WM_ADAPT_BACKOFF_MAX_MS   rollback backoff ceiling      [1, 10^8]
//   WM_ADAPT_EPOCHS           fine-tune epochs              [1, 1000]
//   WM_ADAPT_BATCH            fine-tune batch size          [1, 4096]
//   WM_ADAPT_AUGMENT_TARGET   CAE-augment per-class target  [0, 10^5] (0=off)
//   WM_ADAPT_CAE_EPOCHS       CAE training epochs           [1, 1000]
//   WM_ADAPT_PSEUDO_LABELS    pseudo-label unlabeled        (boolean)
//   WM_ADAPT_MAX_RETRAINS     lifetime retrain cap          [0, 10^6]
//   WM_ADAPT_SEED             controller RNG seed           [0, 2^31]
#pragma once

#include <cstdint>
#include <optional>

namespace wm::adapt {

struct AdaptConfig {
  /// Sliding sample-buffer capacity (wafers kept for re-fit / fine-tune).
  /// Env: WM_ADAPT_BUFFER, default 1024.
  std::optional<std::size_t> buffer_capacity;
  /// Buffered samples required before the controller acts on an alarm.
  /// Env: WM_ADAPT_MIN_SAMPLES, default 64.
  std::optional<std::size_t> min_samples;
  /// Number of most-recent buffered g-scores the stage-1 threshold re-fit
  /// uses (older scores predate the drift). Env: WM_ADAPT_REFIT_WINDOW,
  /// default 256.
  std::optional<std::size_t> refit_window;
  /// Rate limit: minimum gap between consecutive adaptation actions.
  /// Env: WM_ADAPT_COOLDOWN_MS, default 5000.
  std::optional<std::int64_t> cooldown_ms;
  /// How long the controller waits for the alarm to clear after an action
  /// before escalating (stage 1 -> stage 2) or rolling back (after a
  /// stage-2 swap). Env: WM_ADAPT_EVAL_MS, default 2000.
  std::optional<std::int64_t> eval_ms;
  /// Exponential-backoff ceiling applied after a rollback.
  /// Env: WM_ADAPT_BACKOFF_MAX_MS, default 60000.
  std::optional<std::int64_t> backoff_max_ms;
  /// Stage-2 fine-tune epochs. Env: WM_ADAPT_EPOCHS, default 4.
  std::optional<int> fine_tune_epochs;
  /// Stage-2 fine-tune batch size. Env: WM_ADAPT_BATCH, default 32.
  std::optional<int> fine_tune_batch;
  /// Stage-2 fine-tune learning rate (no env knob; a fraction of the usual
  /// training rate — nudge, don't re-learn). Default 5e-4.
  std::optional<double> fine_tune_lr;
  /// Per-class target for CAE augmentation of the fine-tune set (paper
  /// Algorithm 1); 0 disables augmentation. Env: WM_ADAPT_AUGMENT_TARGET,
  /// default 0.
  std::optional<int> augment_target;
  /// Epochs for the CAEs the adaptation path trains (pseudo-labeler and
  /// augmentor). Env: WM_ADAPT_CAE_EPOCHS, default 8.
  std::optional<int> cae_epochs;
  /// Pseudo-label unlabeled buffered samples via CAE latent nearest-centroid
  /// (arXiv 2311.12840) instead of dropping them. Env: WM_ADAPT_PSEUDO_LABELS
  /// (boolean), default true.
  std::optional<bool> use_pseudo_labels;
  /// Lifetime cap on stage-2 retrains (a runaway-drift fuse; recalibrations
  /// are not capped). Env: WM_ADAPT_MAX_RETRAINS, default 8.
  std::optional<std::uint32_t> max_retrains;
  /// Seed for the controller's private RNG (CAE init, fine-tune shuffling).
  /// Env: WM_ADAPT_SEED, default 17.
  std::optional<std::uint32_t> seed;

  /// The fully resolved view: every knob a concrete value, initialised to
  /// its default.
  struct Resolved {
    std::size_t buffer_capacity = 1024;
    std::size_t min_samples = 64;
    std::size_t refit_window = 256;
    std::int64_t cooldown_ms = 5000;
    std::int64_t eval_ms = 2000;
    std::int64_t backoff_max_ms = 60000;
    int fine_tune_epochs = 4;
    int fine_tune_batch = 32;
    double fine_tune_lr = 5e-4;
    int augment_target = 0;
    int cae_epochs = 8;
    bool use_pseudo_labels = true;
    std::uint32_t max_retrains = 8;
    std::uint32_t seed = 17;
  };

  /// Applies explicit-field > env > default to every knob.
  Resolved resolve() const;
};

}  // namespace wm::adapt
