// LSTM layer over sequences with full backpropagation-through-time.
//
// Forward consumes a [batch, T, in] tensor and produces the hidden states for
// every timestep as a [batch, T, hidden] tensor. Backward accepts gradients
// on every timestep's hidden output and returns gradients with respect to the
// input tensor — the piece FGSM needs to attack sequence models.
//
// Gate layout inside the fused weight matrices is [i | f | g | o]:
//   a_t = x_t Wx + h_{t-1} Wh + b
//   i = σ(a_i), f = σ(a_f), g = tanh(a_g), o = σ(a_o)
//   c_t = f ⊙ c_{t-1} + i ⊙ g
//   h_t = o ⊙ tanh(c_t)
#pragma once

#include <vector>

#include "nn/layer.h"
#include "nn/tensor3.h"
#include "util/rng.h"

namespace cpsguard::nn {

class LstmLayer {
 public:
  LstmLayer(int input, int hidden, util::Rng& rng);

  /// Inference over the whole sequence; records nothing, so concurrent
  /// callers may share one layer.
  [[nodiscard]] Tensor3 infer(const Tensor3& x) const {
    return run(x, nullptr);
  }

  /// infer(x), caching per-step state for backward.
  Tensor3 forward(const Tensor3& x);

  /// BPTT. `dh` holds dLoss/dh_t for every timestep ([batch, T, hidden]);
  /// callers that only use the last hidden state pass zeros elsewhere.
  /// Returns dLoss/dx ([batch, T, input]). With `accumulate_param_grads`
  /// false the weight-gradient products are skipped and every Param::grad
  /// is left untouched; dx is bit-identical either way.
  Tensor3 backward(const Tensor3& dh, bool accumulate_param_grads = true);

  [[nodiscard]] std::vector<Param*> params();

  [[nodiscard]] int input_size() const { return input_; }
  [[nodiscard]] int hidden_size() const { return hidden_; }

 private:
  int input_;
  int hidden_;
  Param wx_;  // [input, 4*hidden]
  Param wh_;  // [hidden, 4*hidden]
  Param b_;   // [1, 4*hidden]

  // Per-timestep caches from the last forward call.
  struct StepCache {
    Matrix x;       // [B, input]
    Matrix h_prev;  // [B, hidden]
    Matrix c_prev;  // [B, hidden]
    Matrix gates;   // [B, 4*hidden] post-activation (i,f,g,o)
    Matrix c;       // [B, hidden]
    Matrix tanh_c;  // [B, hidden]
  };

  // The one time loop; fills `cache` (one StepCache per step) when non-null.
  Tensor3 run(const Tensor3& x, std::vector<StepCache>* cache) const;

  std::vector<StepCache> cache_;
  int cached_batch_ = 0;
};

}  // namespace cpsguard::nn
