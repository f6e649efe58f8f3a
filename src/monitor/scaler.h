// Per-feature standardization fitted on the training windows. Monitors hold
// a fitted scaler and apply it in front of the classifier; attack code uses
// the stored raw-unit standard deviations to scale Gaussian noise (the
// paper's σ values are multiples of each feature's std).
#pragma once

#include <iosfwd>
#include <span>
#include <vector>

#include "nn/tensor3.h"

namespace cpsguard::monitor {

class StandardScaler {
 public:
  /// Fit per-feature mean/std over all (sample, time) rows.
  void fit(const nn::Tensor3& x);

  [[nodiscard]] bool fitted() const { return !mean_.empty(); }
  [[nodiscard]] int features() const { return static_cast<int>(mean_.size()); }

  /// (x - mean) / std per feature. Features with ~zero variance pass
  /// through centered but unscaled.
  [[nodiscard]] nn::Tensor3 transform(const nn::Tensor3& x) const;
  /// In-place transform of one feature row — bit-identical to transform()
  /// on the same values (scaling is element-wise). The streaming engine
  /// scales each staged window here, one time step at a time.
  void transform_row(std::span<float> row) const;
  /// Inverse mapping (used to visualize adversarial windows in raw units).
  [[nodiscard]] nn::Tensor3 inverse_transform(const nn::Tensor3& x) const;

  [[nodiscard]] double mean_of(int feature) const;
  /// Raw-unit standard deviation of a feature in the training data.
  [[nodiscard]] double std_of(int feature) const;

  void save(std::ostream& os) const;
  void load(std::istream& is);

 private:
  std::vector<double> mean_;
  std::vector<double> std_;
};

}  // namespace cpsguard::monitor
