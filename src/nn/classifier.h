// Classifier: the common interface the monitors, attacks and evaluation code
// program against. Every architecture consumes [batch, time, features]
// windows; the MLP flattens them, the recurrent ones consume them
// sequentially.
//
// The interface deliberately exposes `input_gradient` — the gradient of the
// cross-entropy loss with respect to the *input window* — because FGSM
// (Eq. 3-4 of the paper) is defined in terms of exactly that quantity. It is
// const: its forward records into a ForwardCache the caller owns, so any
// number of threads may take gradients and predict on one classifier, and
// no classifier holds a forward cache after a call returns.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "nn/feedforward.h"
#include "nn/gru.h"
#include "nn/loss.h"
#include "nn/lstm.h"
#include "nn/optimizer.h"
#include "nn/tensor3.h"
#include "util/rng.h"

namespace cpsguard::nn {

/// Rows per task when a classifier call over a whole test set fans out on
/// the shared pool: the Fig. 9 sweep's predict phase and the FGSM input
/// gradient (attack::fgsm_gradient). 64, 128 and 218 rows gave 101k, 109k
/// and 85k windows/s on the Fig. 9 workload (4 threads): smaller chunks pay
/// per-call overhead, larger ones leave threads idle at the end of a curve.
inline constexpr int kChunkRows = 128;

/// What one classifier forward records for its backward. The caller owns
/// it, one per concurrent call, and may reuse it (each forward overwrites
/// it); an architecture uses only its own fields.
struct ForwardCache {
  FeedForward::Cache dense;            // the MLP net, or a recurrent head
  std::vector<LstmLayer::Cache> lstm;  // one per LSTM cell
  std::vector<GruLayer::Cache> gru;    // one per GRU cell
};

class Classifier {
 public:
  virtual ~Classifier() = default;

  [[nodiscard]] virtual int num_classes() const = 0;
  [[nodiscard]] virtual int time_steps() const = 0;
  [[nodiscard]] virtual int features() const = 0;
  [[nodiscard]] virtual std::string arch() const = 0;

  /// Softmax probabilities, [batch, classes]. Const: inference records no
  /// training cache, so one classifier serves concurrent callers.
  [[nodiscard]] virtual Matrix predict_proba(const Tensor3& x) const = 0;

  /// Forward + loss + backward: accumulates parameter gradients (without
  /// applying an update) and returns the batch loss. Grad buffers are *not*
  /// zeroed first, so callers control accumulation. The forward cache is
  /// local to the call.
  virtual double accumulate_gradients(const Tensor3& x,
                                      std::span<const int> labels,
                                      std::span<const float> semantic_targets,
                                      const Loss& loss) = 0;

  /// dCE/dx for the given labels — the raw material of FGSM — with every
  /// dlogits row scaled by `inv_batch` (cross_entropy_logit_grad). The
  /// forward records into `cache`; no parameter gradient is computed or
  /// touched. Rows are independent, so a chunk of a set called with the
  /// whole set's 1/N returns exactly that chunk's rows of the whole-set
  /// gradient.
  virtual Tensor3 input_gradient(const Tensor3& x, std::span<const int> labels,
                                 float inv_batch, ForwardCache& cache) const = 0;

  /// input_gradient over the whole batch: 1/B and a local cache.
  [[nodiscard]] Tensor3 loss_input_gradient(const Tensor3& x,
                                            std::span<const int> labels) const;

  [[nodiscard]] virtual std::vector<Param*> params() = 0;

  /// One optimizer step on a mini-batch. Returns the batch loss.
  double train_batch(const Tensor3& x, std::span<const int> labels,
                     std::span<const float> semantic_targets, const Loss& loss,
                     Optimizer& opt);

  void zero_grad();
};

/// nn::decide over every window and its predict_proba row. Throws CpsError
/// naming the first window that gets no verdict (non-finite input or
/// probabilities).
std::vector<int> predict_classes(const Classifier& clf, const Tensor3& x);

/// Multi-layer perceptron over the flattened window.
/// Paper architecture: Dense(256)-ReLU-Dense(128)-ReLU-Dense(C)-softmax.
class MlpClassifier : public Classifier {
 public:
  MlpClassifier(int time_steps, int features, std::vector<int> hidden,
                int classes, util::Rng& rng);

  [[nodiscard]] int num_classes() const override { return classes_; }
  [[nodiscard]] int time_steps() const override { return time_steps_; }
  [[nodiscard]] int features() const override { return features_; }
  [[nodiscard]] std::string arch() const override;

  [[nodiscard]] Matrix predict_proba(const Tensor3& x) const override;
  double accumulate_gradients(const Tensor3& x, std::span<const int> labels,
                              std::span<const float> semantic_targets,
                              const Loss& loss) override;
  Tensor3 input_gradient(const Tensor3& x, std::span<const int> labels,
                         float inv_batch, ForwardCache& cache) const override;
  std::vector<Param*> params() override;

 private:
  int time_steps_;
  int features_;
  int classes_;
  std::vector<int> hidden_;
  FeedForward net_;
};

// The recurrent classifiers (LstmClassifier, GruClassifier) live in
// nn/lstm_classifier.h and nn/gru_classifier.h.

}  // namespace cpsguard::nn
