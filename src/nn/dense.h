// Fully connected layer: y = x W + b. The forward cache is the input x.
#pragma once

#include "nn/layer.h"
#include "util/rng.h"

namespace cpsguard::nn {

class Dense : public Layer {
 public:
  /// Glorot-uniform weights, zero bias.
  Dense(int in, int out, util::Rng& rng);

  [[nodiscard]] Matrix infer(const Matrix& x) const override;
  Matrix forward(const Matrix& x, Matrix& cache) const override;
  /// The two-argument spelling the benchmark's layer probe
  /// (perfsuite/suite/probes.cpp) still calls; the flag is ignored and the
  /// call is infer(x). Goes when that probe next changes.
  [[nodiscard]] Matrix forward(const Matrix& x, bool /*ignored*/) const {
    return infer(x);
  }
  Matrix backward(const Matrix& dy, const Matrix& cache,
                  std::span<Param* const> grads) const override;
  std::vector<Param*> params() override;
  [[nodiscard]] std::size_t param_count() const override { return 2; }
  [[nodiscard]] double flops_per_row() const override {
    return 2.0 * input_size() * output_size();
  }

  [[nodiscard]] std::string name() const override { return "Dense"; }
  [[nodiscard]] int input_size() const override { return w_.value.rows(); }
  [[nodiscard]] int output_size() const override { return w_.value.cols(); }

 private:
  Param w_;
  Param b_;
};

}  // namespace cpsguard::nn
