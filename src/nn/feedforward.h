// Sequential container of feed-forward layers. Like every layer it keeps no
// forward cache: forward fills one the caller owns, and backward reads it.
#pragma once

#include <memory>
#include <vector>

#include "nn/layer.h"

namespace cpsguard::nn {

class FeedForward {
 public:
  /// One Layer cache per layer, in order.
  using Cache = std::vector<Matrix>;

  FeedForward() = default;

  /// Append a layer; its input size must match the current output size.
  void add(std::unique_ptr<Layer> layer);

  /// Inference through all layers; records nothing. When the whole stack
  /// passes the fan-out rule (nn/row_blocks.h) it makes one pool fan-out
  /// over row blocks, each running every layer; otherwise the layers run
  /// in turn over the whole batch. Bit-identical either way.
  [[nodiscard]] Matrix infer(const Matrix& x) const;

  /// Forward through all layers, recording each layer's cache in `cache`.
  Matrix forward(const Matrix& x, Cache& cache) const;

  /// Backward through all layers over the cache of the matching forward;
  /// returns dLoss/dInput. `grads` is empty (no parameter-gradient products)
  /// or exactly params(), whose gradients it adds to (see Layer::backward).
  Matrix backward(const Matrix& dy, const Cache& cache,
                  std::span<Param* const> grads) const;

  [[nodiscard]] std::vector<Param*> params();

  [[nodiscard]] int input_size() const;
  [[nodiscard]] int output_size() const;
  [[nodiscard]] std::size_t layer_count() const { return layers_.size(); }

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace cpsguard::nn
