// Black-box attack via a substitute model (Papernot-style transfer):
// the attacker cannot read the target monitor's weights, only query it.
// They (1) label a query set with the target's own predictions, (2) train a
// two-layer MLP (128-64) substitute on those labels, and (3) run white-box
// FGSM on the substitute, betting on adversarial transferability.
#pragma once

#include <memory>
#include <span>

#include "attack/fgsm.h"
#include "nn/classifier.h"
#include "util/rng.h"

namespace cpsguard::attack {

struct SubstituteConfig {
  std::vector<int> hidden = {128, 64};  // paper's substitute architecture
  int epochs = 6;
  int batch_size = 64;
  double learning_rate = 0.001;
  std::uint64_t seed = 99;
};

class SubstituteAttack {
 public:
  explicit SubstituteAttack(SubstituteConfig config);

  /// Query the target on `scaled_queries` (already in model space, as the
  /// attacker knows the features in use) and fit the substitute on the
  /// returned labels.
  void fit(const nn::Classifier& target, const nn::Tensor3& scaled_queries);

  [[nodiscard]] bool fitted() const { return substitute_ != nullptr; }

  /// Fraction of queries where the substitute matches the target — how well
  /// the attacker cloned the decision surface.
  [[nodiscard]] double agreement(const nn::Classifier& target,
                                 const nn::Tensor3& scaled_x) const;

  /// FGSM on the substitute; the returned windows are then fed to the
  /// *target* to measure transfer. `labels` are the target's predictions on
  /// the clean input (the attacker's best knowledge of the truth).
  nn::Tensor3 craft(const nn::Tensor3& scaled_x, std::span<const int> labels,
                    const FgsmConfig& fgsm) const;

  [[nodiscard]] const nn::Classifier& substitute() const;

 private:
  SubstituteConfig config_;
  std::unique_ptr<nn::Classifier> substitute_;
};

}  // namespace cpsguard::attack
