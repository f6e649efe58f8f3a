// Projected Gradient Descent (Madry et al. 2018): iterated FGSM with
// projection back onto the ε-ball. The paper evaluates single-step FGSM and
// calls for "a more comprehensive investigation of robustness testing";
// PGD is the standard stronger white-box attack for that investigation.
#pragma once

#include <span>

#include "attack/perturbation.h"
#include "nn/classifier.h"

namespace cpsguard::attack {

struct PgdConfig {
  double epsilon = 0.1;       // L∞ ball radius (scaled units)
  double step_size = 0.025;   // per-iteration step (α)
  int iterations = 8;
  FeatureMask mask = FeatureMask::kAll;
};

/// Craft adversarial windows with PGD. Postcondition: ‖x_adv − x‖∞ ≤ ε.
/// Strictly at least as strong as FGSM with the same ε when
/// iterations·step_size ≥ ε.
nn::Tensor3 pgd_attack(const nn::Classifier& clf,
                       const nn::Tensor3& scaled_x,
                       std::span<const int> labels, const PgdConfig& config);

}  // namespace cpsguard::attack
