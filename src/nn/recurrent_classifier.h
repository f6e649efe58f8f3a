// Generic stacked-recurrent classifier: any cell layer exposing
//   Tensor3 infer(const Tensor3&) const, Tensor3 forward(const Tensor3&),
//   Tensor3 backward(const Tensor3&, bool accumulate_param_grads),
//   std::vector<Param*> params(), int hidden_size()
// can be stacked under a dense softmax head. Instantiated for the LSTM
// (nn/lstm_classifier.h) and the GRU (nn/gru_classifier.h).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/classifier.h"
#include "nn/dense.h"
#include "util/contracts.h"

namespace cpsguard::nn {

template <typename Cell>
class RecurrentClassifier : public Classifier {
 public:
  RecurrentClassifier(std::string arch_prefix, int time_steps, int features,
                      std::vector<int> hidden, int classes, util::Rng& rng)
      : arch_prefix_(std::move(arch_prefix)), time_steps_(time_steps),
        features_(features), classes_(classes), hidden_(std::move(hidden)) {
    expects(time_steps > 0 && features > 0 && classes >= 2,
            "bad recurrent-classifier dimensions");
    expects(!hidden_.empty(), "recurrent stack needs at least one layer");
    int in = features;
    for (const int h : hidden_) {
      expects(h > 0, "hidden size must be positive");
      cells_.push_back(std::make_unique<Cell>(in, h, rng));
      in = h;
    }
    head_.add(std::make_unique<Dense>(in, classes, rng));
  }

  [[nodiscard]] int num_classes() const override { return classes_; }
  [[nodiscard]] int time_steps() const override { return time_steps_; }
  [[nodiscard]] int features() const override { return features_; }

  [[nodiscard]] std::string arch() const override {
    std::string s = arch_prefix_ + "(";
    for (std::size_t i = 0; i < hidden_.size(); ++i) {
      if (i) s += '-';
      s += std::to_string(hidden_[i]);
    }
    return s + ")";
  }

  [[nodiscard]] Matrix predict_proba(const Tensor3& x) const override {
    check_shape(x);
    Tensor3 h = x;
    for (const auto& cell : cells_) h = cell->infer(h);
    return softmax_rows(head_.infer(h.time_slice(h.time() - 1)));
  }

  double accumulate_gradients(const Tensor3& x, std::span<const int> labels,
                              std::span<const float> semantic_targets,
                              const Loss& loss) override {
    expects(x.batch() == static_cast<int>(labels.size()), "batch/label mismatch");
    const Matrix logits = head_.forward(encode(x));
    const LossResult lr = loss.compute(logits, labels, semantic_targets);
    const Matrix dh_last = head_.backward(lr.dlogits);
    decode_gradient(dh_last, /*accumulate_param_grads=*/true);
    return lr.loss;
  }

  /// Input-only BPTT: the cells skip their weight-gradient products, which
  /// are half the backward's arithmetic and would be zeroed anyway. Only
  /// the small dense head accumulates, and zero_grad() clears it.
  Tensor3 loss_input_gradient(const Tensor3& x,
                              std::span<const int> labels) override {
    expects(x.batch() == static_cast<int>(labels.size()), "batch/label mismatch");
    const Matrix logits = head_.forward(encode(x));
    const SoftmaxCrossEntropy ce;
    const LossResult lr = ce.compute(logits, labels, {});
    const Matrix dh_last = head_.backward(lr.dlogits);
    Tensor3 dx = decode_gradient(dh_last, /*accumulate_param_grads=*/false);
    zero_grad();
    return dx;
  }

  std::vector<Param*> params() override {
    std::vector<Param*> out;
    for (auto& cell : cells_) {
      for (Param* p : cell->params()) out.push_back(p);
    }
    for (Param* p : head_.params()) out.push_back(p);
    return out;
  }

 private:
  void check_shape(const Tensor3& x) const {
    expects(x.time() == time_steps_ && x.features() == features_,
            "recurrent classifier: window shape mismatch");
  }

  // The last hidden state, caching every cell for decode_gradient.
  Matrix encode(const Tensor3& x) {
    check_shape(x);
    Tensor3 h = x;
    for (auto& cell : cells_) h = cell->forward(h);
    return h.time_slice(h.time() - 1);
  }

  Tensor3 decode_gradient(const Matrix& dh_last, bool accumulate_param_grads) {
    Tensor3 dh(dh_last.rows(), time_steps_, cells_.back()->hidden_size());
    dh.set_time_slice(time_steps_ - 1, dh_last);
    for (auto it = cells_.rbegin(); it != cells_.rend(); ++it) {
      dh = (*it)->backward(dh, accumulate_param_grads);
    }
    return dh;
  }

  std::string arch_prefix_;
  int time_steps_;
  int features_;
  int classes_;
  std::vector<int> hidden_;
  std::vector<std::unique_ptr<Cell>> cells_;
  FeedForward head_;
};

}  // namespace cpsguard::nn
