// Classification losses operating on raw logits.
//
// SoftmaxCrossEntropy is the paper's baseline loss (sparse categorical CE).
// SemanticLoss implements Eq. (2): CE plus a knowledge term
//   w * | p(unsafe) - I(window ⊨ ∨ Φ_h) |
// where the indicator I is evaluated by the safety module on the clean window
// and supplied here as a per-sample target in {0, 1}.
#pragma once

#include <span>

#include "nn/matrix.h"

namespace cpsguard::nn {

struct LossResult {
  double loss = 0.0;  // mean loss over the batch
  Matrix dlogits;     // dLoss/dlogits, already divided by batch size
};

class Loss {
 public:
  virtual ~Loss() = default;

  /// `labels` holds the ground-truth class per row of `logits`.
  /// `semantic_targets` may be empty (losses that ignore it) or hold one
  /// value in [0,1] per row.
  virtual LossResult compute(const Matrix& logits, std::span<const int> labels,
                             std::span<const float> semantic_targets) const = 0;
};

/// Numerically-stable fused softmax + sparse categorical cross-entropy.
class SoftmaxCrossEntropy : public Loss {
 public:
  LossResult compute(const Matrix& logits, std::span<const int> labels,
                     std::span<const float> semantic_targets) const override;
};

/// dCE/dlogits alone: (softmax(logits) − onehot(labels)) · inv_batch.
/// SoftmaxCrossEntropy scales by 1/rows; a caller that scores one chunk of a
/// larger set passes that set's 1/N, so each row is bit-identical to the
/// same row of the whole-set gradient.
Matrix cross_entropy_logit_grad(const Matrix& logits,
                                std::span<const int> labels, float inv_batch);

/// How the knowledge term treats windows where no rule fires.
enum class SemanticMode {
  /// Eq. (2) verbatim: penalize |p1 - s| for both s = 1 and s = 0.
  kSymmetric,
  /// One-sided: penalize only where a rule fires (s = 1). STPA rules name
  /// contexts where an action IS potentially unsafe; silence is not
  /// evidence of safety, so pulling p1 toward 0 on rule-silent windows
  /// (which include most true hazards the rules miss) injures recall.
  kUnsafeOnly,
};

/// Eq. (2): cross-entropy + w * |p_1 - s|, with the knowledge term
/// backpropagated through the softmax. Class 1 is "unsafe".
class SemanticLoss : public Loss {
 public:
  explicit SemanticLoss(double weight,
                        SemanticMode mode = SemanticMode::kSymmetric);

  LossResult compute(const Matrix& logits, std::span<const int> labels,
                     std::span<const float> semantic_targets) const override;

  [[nodiscard]] double weight() const { return weight_; }
  [[nodiscard]] SemanticMode mode() const { return mode_; }

 private:
  double weight_;
  SemanticMode mode_;
};

}  // namespace cpsguard::nn
