// Layer abstraction for feed-forward networks. infer is the const forward
// pass: it records nothing, so one layer can serve any number of concurrent
// callers. forward is infer plus the cache store backward needs; backward
// accumulates parameter gradients and returns the gradient with respect to
// the layer input (which is what FGSM ultimately consumes).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/matrix.h"

namespace cpsguard::nn {

/// A trainable parameter: value plus accumulated gradient of the same shape.
struct Param {
  Param() = default;
  Param(std::string name, Matrix value)
      : name(std::move(name)), value(std::move(value)),
        grad(Matrix::zeros(this->value.rows(), this->value.cols())) {}

  std::string name;
  Matrix value;
  Matrix grad;

  void zero_grad() { grad.set_zero(); }
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// Inference over a [batch, in] matrix; touches no layer state.
  [[nodiscard]] virtual Matrix infer(const Matrix& x) const = 0;

  /// infer(x), caching what the next backward needs.
  virtual Matrix forward(const Matrix& x) = 0;

  /// Backward pass: given dLoss/dOutput, accumulate parameter gradients and
  /// return dLoss/dInput. Must be called after forward with matching batch.
  virtual Matrix backward(const Matrix& dy) = 0;

  /// Trainable parameters (empty for stateless layers). Pointers remain valid
  /// for the lifetime of the layer.
  virtual std::vector<Param*> params() { return {}; }

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual int input_size() const = 0;
  [[nodiscard]] virtual int output_size() const = 0;
};

}  // namespace cpsguard::nn
