// Layer abstraction for feed-forward networks. Every call is const: infer
// records nothing, forward records what backward needs into a cache the
// caller owns, and backward reads that cache. So one layer serves any number
// of concurrent callers, each with its own cache, and no layer holds a cache
// after a call returns. backward returns the gradient with respect to the
// layer input (which is what FGSM ultimately consumes) and adds parameter
// gradients only into the Param pointers its caller hands it.
#pragma once

#include <memory>
#include <span>
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

  /// infer(x), recording in `cache` what backward needs (Dense: its input;
  /// ReLU: its output). Overwrites whatever `cache` held.
  virtual Matrix forward(const Matrix& x, Matrix& cache) const = 0;

  /// Given dLoss/dOutput and the cache of the matching forward, return
  /// dLoss/dInput. `grads` is empty or exactly this layer's params(): when
  /// given, the parameter gradients are added into each Param::grad; when
  /// empty, those products are skipped. dLoss/dInput is bit-identical
  /// either way.
  virtual Matrix backward(const Matrix& dy, const Matrix& cache,
                          std::span<Param* const> grads) const = 0;

  /// Trainable parameters (empty for stateless layers). Pointers remain valid
  /// for the lifetime of the layer.
  virtual std::vector<Param*> params() { return {}; }
  /// params().size(), without write access.
  [[nodiscard]] virtual std::size_t param_count() const { return 0; }
  /// Matmul flops infer spends per input row (2 per multiply-add); 0 for a
  /// layer without a product. FeedForward::infer's fan-out rule sums them.
  [[nodiscard]] virtual double flops_per_row() const { return 0.0; }

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual int input_size() const = 0;
  [[nodiscard]] virtual int output_size() const = 0;
};

}  // namespace cpsguard::nn
