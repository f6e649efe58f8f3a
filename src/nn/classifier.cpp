#include "nn/classifier.h"

#include <string>

#include "nn/activations.h"
#include "nn/dense.h"
#include "util/contracts.h"
#include "util/error.h"

namespace cpsguard::nn {

double Classifier::train_batch(const Tensor3& x, std::span<const int> labels,
                               std::span<const float> semantic_targets,
                               const Loss& loss, Optimizer& opt) {
  zero_grad();
  const double batch_loss = accumulate_gradients(x, labels, semantic_targets, loss);
  const auto ps = params();
  opt.step(ps);
  zero_grad();
  return batch_loss;
}

void Classifier::zero_grad() {
  for (Param* p : params()) p->zero_grad();
}

Tensor3 Classifier::loss_input_gradient(const Tensor3& x,
                                        std::span<const int> labels) const {
  ForwardCache cache;
  return input_gradient(x, labels, 1.0f / static_cast<float>(x.batch()), cache);
}

std::vector<int> predict_classes(const Classifier& clf, const Tensor3& x) {
  const Matrix probs = clf.predict_proba(x);
  std::vector<int> out(static_cast<std::size_t>(probs.rows()));
  for (int r = 0; r < probs.rows(); ++r) {
    const int verdict = decide(x.window(r), probs.row(r));
    if (verdict == kNoVerdict) {
      throw CpsError("predict_classes: window " + std::to_string(r) +
                     " or its probabilities are not finite; an offline batch "
                     "has no slot for a missing verdict");
    }
    out[static_cast<std::size_t>(r)] = verdict;
  }
  return out;
}

MlpClassifier::MlpClassifier(int time_steps, int features,
                             std::vector<int> hidden, int classes,
                             util::Rng& rng)
    : time_steps_(time_steps), features_(features), classes_(classes),
      hidden_(std::move(hidden)) {
  expects(time_steps > 0 && features > 0 && classes >= 2, "bad MLP dimensions");
  expects(!hidden_.empty(), "MLP needs at least one hidden layer");
  int in = time_steps * features;
  for (int h : hidden_) {
    expects(h > 0, "hidden size must be positive");
    net_.add(std::make_unique<Dense>(in, h, rng));
    net_.add(std::make_unique<Relu>(h));
    in = h;
  }
  net_.add(std::make_unique<Dense>(in, classes, rng));
}

std::string MlpClassifier::arch() const {
  std::string s = "MLP(";
  for (std::size_t i = 0; i < hidden_.size(); ++i) {
    if (i) s += '-';
    s += std::to_string(hidden_[i]);
  }
  return s + ")";
}

Matrix MlpClassifier::predict_proba(const Tensor3& x) const {
  expects(x.time() == time_steps_ && x.features() == features_,
          "MLP: window shape mismatch");
  return softmax_rows(net_.infer(x.flatten()));
}

double MlpClassifier::accumulate_gradients(
    const Tensor3& x, std::span<const int> labels,
    std::span<const float> semantic_targets, const Loss& loss) {
  expects(x.batch() == static_cast<int>(labels.size()), "batch/label mismatch");
  FeedForward::Cache cache;
  const Matrix logits = net_.forward(x.flatten(), cache);
  const LossResult lr = loss.compute(logits, labels, semantic_targets);
  net_.backward(lr.dlogits, cache, net_.params());
  return lr.loss;
}

Tensor3 MlpClassifier::input_gradient(const Tensor3& x,
                                      std::span<const int> labels,
                                      float inv_batch,
                                      ForwardCache& cache) const {
  expects(x.batch() == static_cast<int>(labels.size()), "batch/label mismatch");
  const Matrix logits = net_.forward(x.flatten(), cache.dense);
  const Matrix dx = net_.backward(
      cross_entropy_logit_grad(logits, labels, inv_batch), cache.dense, {});
  return Tensor3::from_flat(dx, time_steps_, features_);
}

std::vector<Param*> MlpClassifier::params() { return net_.params(); }

}  // namespace cpsguard::nn
