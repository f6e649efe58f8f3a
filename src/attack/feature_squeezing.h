// Feature-squeezing adversarial-input detector (Xu, Evans & Qi, NDSS 2018 —
// the paper's reference [29]): run the monitor on the input and on
// "squeezed" (information-reduced) versions; a large prediction discrepancy
// flags the input as adversarial. Squeezers adapted to multivariate time
// series: value quantization and temporal median smoothing.
#pragma once

#include <span>
#include <vector>

#include "nn/classifier.h"

namespace cpsguard::attack {

struct SqueezeConfig {
  int quantization_levels = 64;  // per-feature value grid over [-q, q]
  double quantization_range = 4.0;  // grid half-width in scaled units
  int median_window = 3;         // odd temporal window for median smoothing
};

/// Quantize every coordinate to the nearest of `levels` grid points.
nn::Tensor3 squeeze_quantize(const nn::Tensor3& x, const SqueezeConfig& cfg);

/// Median-smooth each feature channel along time.
nn::Tensor3 squeeze_median(const nn::Tensor3& x, const SqueezeConfig& cfg);

class FeatureSqueezingDetector {
 public:
  explicit FeatureSqueezingDetector(SqueezeConfig config = {});

  /// Per-sample score: max over squeezers of the L1 distance between the
  /// model's probability vectors on raw vs squeezed input. High = suspect.
  [[nodiscard]] std::vector<double> scores(const nn::Classifier& clf,
                                           const nn::Tensor3& scaled_x) const;

  /// Fit the alarm threshold as the `quantile` of scores on clean data.
  void calibrate(const nn::Classifier& clf, const nn::Tensor3& clean_scaled_x,
                 double quantile = 0.95);

  [[nodiscard]] bool calibrated() const { return threshold_ >= 0.0; }
  [[nodiscard]] double threshold() const;

  /// Per-sample adversarial verdicts (requires calibrate()).
  [[nodiscard]] std::vector<int> detect(const nn::Classifier& clf,
                                        const nn::Tensor3& scaled_x) const;

  /// Fraction of samples flagged (requires calibrate()).
  [[nodiscard]] double detection_rate(const nn::Classifier& clf,
                                      const nn::Tensor3& scaled_x) const;

 private:
  SqueezeConfig config_;
  double threshold_ = -1.0;
};

}  // namespace cpsguard::attack
