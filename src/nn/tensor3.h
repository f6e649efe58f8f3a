// Rank-3 tensor [batch, time, features] — the canonical input shape for all
// monitors (MLPs flatten it, LSTMs consume it step by step).
#pragma once

#include <span>
#include <vector>

#include "nn/matrix.h"

namespace cpsguard::nn {

class Tensor3 {
 public:
  Tensor3() = default;
  Tensor3(int batch, int time, int features);

  [[nodiscard]] int batch() const { return batch_; }
  [[nodiscard]] int time() const { return time_; }
  [[nodiscard]] int features() const { return features_; }
  [[nodiscard]] int size() const { return batch_ * time_ * features_; }
  [[nodiscard]] bool empty() const { return size() == 0; }

  float& at(int b, int t, int f);
  [[nodiscard]] float at(int b, int t, int f) const;

  [[nodiscard]] std::span<float> data() { return data_; }
  [[nodiscard]] std::span<const float> data() const { return data_; }

  /// View of batch entry b's whole window (time * features floats).
  [[nodiscard]] std::span<float> window(int b);
  [[nodiscard]] std::span<const float> window(int b) const;

  /// View of one (batch, time) feature row.
  [[nodiscard]] std::span<float> row(int b, int t);
  [[nodiscard]] std::span<const float> row(int b, int t) const;

  /// Copy of time slice t as a [batch, features] matrix.
  [[nodiscard]] Matrix time_slice(int t) const;
  /// Write a [batch, features] matrix back into time slice t.
  void set_time_slice(int t, const Matrix& m);

  /// Flatten to [batch, time*features] (row-major — matches memory layout).
  [[nodiscard]] Matrix flatten() const;
  /// Inverse of flatten().
  static Tensor3 from_flat(const Matrix& m, int time, int features);

  /// Select a subset of batch entries by index.
  [[nodiscard]] Tensor3 gather(std::span<const int> indices) const;

  void fill(float value);
  [[nodiscard]] float max_abs() const;

  friend bool operator==(const Tensor3& a, const Tensor3& b);

 private:
  int batch_ = 0;
  int time_ = 0;
  int features_ = 0;
  std::vector<float> data_;
};

}  // namespace cpsguard::nn
