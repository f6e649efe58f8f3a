// GRU layer (Cho et al. 2014, PyTorch/cuDNN gate formulation) with full
// backpropagation-through-time. A second recurrent architecture for testing
// whether the paper's conclusions (semantic-loss robustness gains, FGSM
// sensitivity of recurrent monitors) generalize beyond the LSTM. As for the
// LSTM, every call is const and the step cache belongs to the caller.
//
// Gate layout inside the fused weights is [z | r | n]:
//   a  = x Wx + bx          (input contribution,  [B, 3H])
//   ah = h Wh + bh          (hidden contribution, [B, 3H])
//   z = σ(a_z + ah_z)       update gate
//   r = σ(a_r + ah_r)       reset gate
//   n = tanh(a_n + r ⊙ ah_n)
//   h' = (1 - z) ⊙ n + z ⊙ h
#pragma once

#include <vector>

#include "nn/layer.h"
#include "nn/tensor3.h"
#include "util/rng.h"

namespace cpsguard::nn {

class GruLayer {
 public:
  /// What one timestep of forward records for backward.
  struct StepCache {
    Matrix x;       // [B, input]
    Matrix h_prev;  // [B, hidden]
    Matrix z;       // [B, hidden] post-activation
    Matrix r;       // [B, hidden] post-activation
    Matrix n;       // [B, hidden] post-activation
    Matrix ah_n;    // [B, hidden] the hidden contribution gated by r
  };
  /// One StepCache per timestep of the last forward into it.
  using Cache = std::vector<StepCache>;

  GruLayer(int input, int hidden, util::Rng& rng);

  /// Inference over the whole sequence; records nothing, so concurrent
  /// callers may share one layer.
  [[nodiscard]] Tensor3 infer(const Tensor3& x) const {
    return run(x, nullptr);
  }

  /// infer(x), recording per-step state for backward into `cache`
  /// (overwriting it).
  Tensor3 forward(const Tensor3& x, Cache& cache) const {
    return run(x, &cache);
  }

  /// BPTT over the cache of the matching forward. `dh` holds dLoss/dh_t for
  /// every timestep; returns dLoss/dx. `grads` is empty or exactly params()
  /// (see LstmLayer::backward).
  Tensor3 backward(const Tensor3& dh, const Cache& cache,
                   std::span<Param* const> grads) const;

  [[nodiscard]] std::vector<Param*> params();

  [[nodiscard]] int input_size() const { return input_; }
  [[nodiscard]] int hidden_size() const { return hidden_; }

 private:
  int input_;
  int hidden_;
  Param wx_;  // [input, 3*hidden]
  Param wh_;  // [hidden, 3*hidden]
  Param bx_;  // [1, 3*hidden]
  Param bh_;  // [1, 3*hidden]

  // The one time loop; fills `cache` (one StepCache per step) when non-null.
  Tensor3 run(const Tensor3& x, Cache* cache) const;
};

}  // namespace cpsguard::nn
