// Universal adversarial perturbation (Moosavi-Dezfooli et al. 2017, and the
// CPS variant of Basak et al. 2021 the paper cites): ONE input-agnostic
// perturbation δ, ‖δ‖∞ ≤ ε, crafted on a training batch, that flips the
// monitor on as many windows as possible — including windows never seen
// while crafting. Practically relevant for CPS attackers who must commit to
// a fixed perturbation ahead of time (e.g. a constant sensor bias pattern).
#pragma once

#include <span>

#include "attack/perturbation.h"
#include "nn/classifier.h"

namespace cpsguard::attack {

struct UniversalConfig {
  double epsilon = 0.1;      // L∞ budget of the universal δ
  double step_size = 0.02;   // per-epoch sign-gradient step
  int epochs = 5;            // passes over the crafting set
  int batch_size = 64;
  FeatureMask mask = FeatureMask::kAll;
};

/// Craft a universal perturbation on `crafting_x` (scaled model space) with
/// the attacker's labels. Returns δ as a [1, T, F] tensor.
nn::Tensor3 craft_universal_perturbation(const nn::Classifier& clf,
                                         const nn::Tensor3& crafting_x,
                                         std::span<const int> labels,
                                         const UniversalConfig& config);

/// Apply δ ([1, T, F]) to every window of `x`.
nn::Tensor3 apply_universal_perturbation(const nn::Tensor3& x,
                                         const nn::Tensor3& delta);

}  // namespace cpsguard::attack
