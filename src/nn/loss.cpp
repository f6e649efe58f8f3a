#include "nn/loss.h"

#include <cmath>

#include "util/contracts.h"

namespace cpsguard::nn {

namespace {

// Shared CE core: returns mean CE loss and writes (p - onehot) * inv_batch
// into dlogits.
double cross_entropy_core(const Matrix& logits, std::span<const int> labels,
                          float inv_batch, Matrix& probs, Matrix& dlogits) {
  const int batch = logits.rows();
  const int classes = logits.cols();
  cpsguard::expects(batch > 0, "empty batch");
  cpsguard::expects(static_cast<int>(labels.size()) == batch,
                    "one label per logit row required");
  probs = softmax_rows(logits);
  dlogits = probs;
  double total = 0.0;
  for (int r = 0; r < batch; ++r) {
    const int y = labels[static_cast<std::size_t>(r)];
    cpsguard::expects(y >= 0 && y < classes, "label out of range");
    const float p = probs.at(r, y);
    total += -std::log(std::max(p, 1e-12f));
    dlogits.at(r, y) -= 1.0f;
  }
  dlogits.scale(inv_batch);
  return total / batch;
}

float mean_scale(const Matrix& logits) {
  return 1.0f / static_cast<float>(logits.rows());
}

}  // namespace

Matrix cross_entropy_logit_grad(const Matrix& logits,
                                std::span<const int> labels, float inv_batch) {
  Matrix probs;
  Matrix dlogits;
  (void)cross_entropy_core(logits, labels, inv_batch, probs, dlogits);
  return dlogits;
}

LossResult SoftmaxCrossEntropy::compute(
    const Matrix& logits, std::span<const int> labels,
    std::span<const float> /*semantic_targets*/) const {
  LossResult out;
  Matrix probs;
  out.loss = cross_entropy_core(logits, labels, mean_scale(logits), probs,
                                out.dlogits);
  return out;
}

SemanticLoss::SemanticLoss(double weight, SemanticMode mode)
    : weight_(weight), mode_(mode) {
  cpsguard::expects(weight >= 0.0, "semantic weight must be non-negative");
}

LossResult SemanticLoss::compute(const Matrix& logits,
                                 std::span<const int> labels,
                                 std::span<const float> semantic_targets) const {
  cpsguard::expects(logits.rows() > 0, "empty batch");
  cpsguard::expects(logits.cols() == 2,
                    "semantic loss assumes binary safe/unsafe classification");
  cpsguard::expects(semantic_targets.size() == static_cast<std::size_t>(logits.rows()),
                    "one semantic target per sample required");
  LossResult out;
  Matrix probs;
  out.loss = cross_entropy_core(logits, labels, mean_scale(logits), probs,
                                out.dlogits);

  // Knowledge term: w * |p1 - s| per sample, averaged over the batch.
  // d|p1 - s|/dp1 = sign(p1 - s); dp1/dz_k = p1 * (δ_{1k} - p_k).
  const int batch = logits.rows();
  const float w_over_b = static_cast<float>(weight_ / batch);
  double sem_total = 0.0;
  for (int r = 0; r < batch; ++r) {
    const float p1 = probs.at(r, 1);
    const float s = semantic_targets[static_cast<std::size_t>(r)];
    cpsguard::expects(s >= 0.0f && s <= 1.0f, "semantic target must be in [0,1]");
    if (mode_ == SemanticMode::kUnsafeOnly && s < 0.5f) continue;
    const float diff = p1 - s;
    sem_total += std::fabs(diff);
    if (diff == 0.0f) continue;
    const float sign = diff > 0.0f ? 1.0f : -1.0f;
    const float p0 = probs.at(r, 0);
    out.dlogits.at(r, 1) += w_over_b * sign * p1 * (1.0f - p1);
    out.dlogits.at(r, 0) += w_over_b * sign * p1 * (-p0);
  }
  out.loss += weight_ * sem_total / batch;
  return out;
}

}  // namespace cpsguard::nn
