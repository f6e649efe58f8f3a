// LSTM layer over sequences with full backpropagation-through-time.
//
// Forward consumes a [batch, T, in] tensor and produces the hidden states for
// every timestep as a [batch, T, hidden] tensor. Backward accepts gradients
// on every timestep's hidden output and returns gradients with respect to the
// input tensor — the piece FGSM needs to attack sequence models. Every call
// is const: the per-step state backward needs lives in a Cache the caller
// owns, one per concurrent call, so the layer never holds one.
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
  /// What one timestep of forward records for backward.
  struct StepCache {
    Matrix x;       // [B, input]
    Matrix h_prev;  // [B, hidden]
    Matrix c_prev;  // [B, hidden]
    Matrix gates;   // [B, 4*hidden] post-activation (i,f,g,o)
    Matrix c;       // [B, hidden]
    Matrix tanh_c;  // [B, hidden]
  };
  /// One StepCache per timestep of the last forward into it.
  using Cache = std::vector<StepCache>;

  LstmLayer(int input, int hidden, util::Rng& rng);

  /// Inference over the whole sequence; records nothing, so concurrent
  /// callers may share one layer.
  [[nodiscard]] Tensor3 infer(const Tensor3& x) const {
    return run(x, nullptr);
  }

  /// The one-argument spelling the benchmark's layer probe
  /// (perfsuite/suite/probes.cpp) still calls: infer(x), recording nothing.
  /// Goes when that probe next changes.
  [[nodiscard]] Tensor3 forward(const Tensor3& x) const { return infer(x); }

  /// infer(x), recording per-step state for backward into `cache`
  /// (overwriting it).
  Tensor3 forward(const Tensor3& x, Cache& cache) const {
    return run(x, &cache);
  }

  /// BPTT over the cache of the matching forward. `dh` holds dLoss/dh_t for
  /// every timestep ([batch, T, hidden]); callers that only use the last
  /// hidden state pass zeros elsewhere. Returns dLoss/dx ([batch, T, input]).
  /// `grads` is empty or exactly params(): when given, the weight gradients
  /// are added into each Param::grad; when empty, those products (half the
  /// arithmetic) are skipped. dx is bit-identical either way.
  Tensor3 backward(const Tensor3& dh, const Cache& cache,
                   std::span<Param* const> grads) const;

  [[nodiscard]] std::vector<Param*> params();

  [[nodiscard]] int input_size() const { return input_; }
  [[nodiscard]] int hidden_size() const { return hidden_; }

 private:
  int input_;
  int hidden_;
  Param wx_;  // [input, 4*hidden]
  Param wh_;  // [hidden, 4*hidden]
  Param b_;   // [1, 4*hidden]

  // The one time loop; fills `cache` (one StepCache per step) when non-null.
  Tensor3 run(const Tensor3& x, Cache* cache) const;
};

}  // namespace cpsguard::nn
