// Score-based black-box attack via NES gradient estimation (Ilyas et al.
// 2018): the attacker sees only the monitor's output *probabilities* (no
// weights, no gradients) and estimates the loss gradient with antithetic
// Gaussian sampling, then takes FGSM-style sign steps. Complements the
// substitute-model transfer attack: no surrogate training, but many queries.
#pragma once

#include <span>

#include "attack/perturbation.h"
#include "nn/classifier.h"
#include "util/rng.h"

namespace cpsguard::attack {

struct NesConfig {
  double epsilon = 0.1;       // L∞ budget (scaled units)
  double step_size = 0.025;   // per-iteration sign step
  int iterations = 6;
  /// Gaussian probes per iteration, consumed as samples/2 antithetic pairs:
  /// each pair evaluates L(x + σu) and L(x − σu) for one shared direction u,
  /// halving estimator variance per query. Must be even and >= 2 — an odd
  /// budget would silently drop a probe (and 1 probe = zero pairs = no-op).
  int samples = 20;
  double sigma = 0.01;        // probe standard deviation
  FeatureMask mask = FeatureMask::kAll;
  std::uint64_t seed = 2024;
};

/// Craft adversarial windows against a query-only target. `labels` are the
/// attacker's best guess of the true labels (typically the target's own
/// clean predictions). Postcondition: ‖x_adv − x‖∞ ≤ ε.
/// Query cost: iterations × samples forward passes over the batch.
nn::Tensor3 nes_attack(const nn::Classifier& target,
                       const nn::Tensor3& scaled_x,
                       std::span<const int> labels, const NesConfig& config);

}  // namespace cpsguard::attack
