// White-box Fast Gradient Sign Method (Goodfellow et al. 2014), Eq. 3-4 of
// the paper:
//     x_adv = x + ε · sign(∇_x J(x, y))
// applied to the *scaled* model-input space (the space the classifier was
// trained in), over the full multivariate window — both sensor and command
// features — unless a narrower mask is requested.
#pragma once

#include <span>

#include "attack/perturbation.h"
#include "nn/classifier.h"

namespace cpsguard::attack {

struct FgsmConfig {
  double epsilon = 0.1;            // L∞ budget per coordinate (scaled units)
  FeatureMask mask = FeatureMask::kAll;  // paper: sensors + commands
};

/// The gradient step, ∇_x J(x, y). It does not depend on ε, so a sweep
/// over ε computes it once per curve and applies each ε to it. This is the
/// one place FGSM computes an input gradient (counter attack.fgsm.gradients,
/// bumped once per call). It fans out over nn::kChunkRows-row chunks on the
/// shared pool, each task with its own forward cache and the whole set's
/// 1/N, so the result is bit-identical to one whole-set
/// Classifier::loss_input_gradient; called from inside a pool task, the
/// chunks run inline.
nn::Tensor3 fgsm_gradient(const nn::Classifier& clf,
                          const nn::Tensor3& scaled_x,
                          std::span<const int> labels);

/// The apply-ε step: x + ε · sign(grad) on the masked features, with the
/// attack.fgsm.* counters and event bumped once per call.
/// Postcondition: ‖x_adv − x‖∞ ≤ ε.
nn::Tensor3 fgsm_apply(const nn::Tensor3& scaled_x, const nn::Tensor3& grad,
                       const FgsmConfig& config);

/// Craft adversarial windows against `clf`: fgsm_apply(fgsm_gradient(...)).
/// `labels` are the true labels used in the loss J (untargeted attack: move
/// away from the truth).
nn::Tensor3 fgsm_attack(const nn::Classifier& clf,
                        const nn::Tensor3& scaled_x,
                        std::span<const int> labels, const FgsmConfig& config);

}  // namespace cpsguard::attack
