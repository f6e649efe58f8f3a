// Sequential container of feed-forward layers.
#pragma once

#include <memory>
#include <vector>

#include "nn/layer.h"

namespace cpsguard::nn {

class FeedForward {
 public:
  FeedForward() = default;

  /// Append a layer; its input size must match the current output size.
  void add(std::unique_ptr<Layer> layer);

  /// Inference through all layers; records nothing.
  [[nodiscard]] Matrix infer(const Matrix& x) const;

  /// Forward through all layers, caching for backward.
  Matrix forward(const Matrix& x);

  /// Backward through all layers; returns dLoss/dInput.
  Matrix backward(const Matrix& dy);

  [[nodiscard]] std::vector<Param*> params();
  void zero_grad();

  [[nodiscard]] int input_size() const;
  [[nodiscard]] int output_size() const;
  [[nodiscard]] std::size_t layer_count() const { return layers_.size(); }

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace cpsguard::nn
