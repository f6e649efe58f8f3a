// Generic stacked-recurrent classifier: a cell layer exposing
//   Tensor3 infer(const Tensor3&) const,
//   Tensor3 forward(const Tensor3&, Cache&) const,
//   Tensor3 backward(const Tensor3&, const Cache&, std::span<Param* const>) const,
//   std::vector<Param*> params(), int hidden_size()
// can be stacked under a dense softmax head. Instantiated for the LSTM
// (nn/lstm_classifier.h) and the GRU (nn/gru_classifier.h); each keeps its
// cells' step caches in its own ForwardCache field.
#pragma once

#include <memory>
#include <string>
#include <type_traits>
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
    ForwardCache cache;
    const Matrix logits = head_.forward(encode(x, cache), cache.dense);
    const LossResult lr = loss.compute(logits, labels, semantic_targets);
    const Matrix dh_last = head_.backward(lr.dlogits, cache.dense, head_.params());
    decode_gradient(dh_last, cache,
                    [&](std::size_t i) { return cells_[i]->params(); });
    return lr.loss;
  }

  /// Input-only BPTT: neither the cells nor the head compute their
  /// weight-gradient products, which are half the backward's arithmetic.
  Tensor3 input_gradient(const Tensor3& x, std::span<const int> labels,
                         float inv_batch, ForwardCache& cache) const override {
    expects(x.batch() == static_cast<int>(labels.size()), "batch/label mismatch");
    const Matrix logits = head_.forward(encode(x, cache), cache.dense);
    const Matrix dh_last = head_.backward(
        cross_entropy_logit_grad(logits, labels, inv_batch), cache.dense, {});
    return decode_gradient(dh_last, cache,
                           [](std::size_t) { return std::vector<Param*>{}; });
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

  template <typename Cache>  // ForwardCache, const or not
  static auto& cell_caches(Cache& cache) {
    if constexpr (std::is_same_v<Cell, LstmLayer>) {
      return cache.lstm;
    } else {
      return cache.gru;
    }
  }

  // The last hidden state, recording every cell into `cache` for
  // decode_gradient.
  Matrix encode(const Tensor3& x, ForwardCache& cache) const {
    check_shape(x);
    auto& caches = cell_caches(cache);
    caches.resize(cells_.size());
    Tensor3 h = x;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      h = cells_[i]->forward(h, caches[i]);
    }
    return h.time_slice(h.time() - 1);
  }

  // BPTT from dLoss/dh_last down through every cell; cell i adds its weight
  // gradients into grads_of(i) (empty: none).
  template <typename GradsOf>
  Tensor3 decode_gradient(const Matrix& dh_last, const ForwardCache& cache,
                          const GradsOf& grads_of) const {
    const auto& caches = cell_caches(cache);
    Tensor3 dh(dh_last.rows(), time_steps_, cells_.back()->hidden_size());
    dh.set_time_slice(time_steps_ - 1, dh_last);
    for (std::size_t i = cells_.size(); i-- > 0;) {
      const Cell& cell = *cells_[i];
      dh = cell.backward(dh, caches[i], grads_of(i));
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
