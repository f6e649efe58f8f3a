#include "attack/feature_squeezing.h"

#include <algorithm>
#include <cmath>

#include "util/contracts.h"
#include "util/stats.h"

namespace cpsguard::attack {

nn::Tensor3 squeeze_quantize(const nn::Tensor3& x, const SqueezeConfig& cfg) {
  expects(cfg.quantization_levels >= 2, "need at least two levels");
  expects(cfg.quantization_range > 0.0, "range must be positive");
  nn::Tensor3 out = x;
  const float lo = static_cast<float>(-cfg.quantization_range);
  const float width = static_cast<float>(2.0 * cfg.quantization_range /
                                         (cfg.quantization_levels - 1));
  for (float& v : out.data()) {
    const float clamped = std::clamp(v, lo, -lo);
    v = lo + std::round((clamped - lo) / width) * width;
  }
  return out;
}

nn::Tensor3 squeeze_median(const nn::Tensor3& x, const SqueezeConfig& cfg) {
  expects(cfg.median_window >= 1 && cfg.median_window % 2 == 1,
          "median window must be odd");
  const int half = cfg.median_window / 2;
  nn::Tensor3 out = x;
  std::vector<float> buf;
  for (int b = 0; b < x.batch(); ++b) {
    for (int f = 0; f < x.features(); ++f) {
      for (int t = 0; t < x.time(); ++t) {
        buf.clear();
        for (int u = std::max(0, t - half); u <= std::min(x.time() - 1, t + half); ++u) {
          buf.push_back(x.at(b, u, f));
        }
        // NaN-last comparator: the raw-ML resilience path feeds windows with
        // NaN readings straight through, and nth_element with operator< on
        // NaN input is strict-weak-ordering UB. Finite windows are unchanged.
        std::nth_element(buf.begin(), buf.begin() + static_cast<long>(buf.size() / 2),
                         buf.end(), [](float a, float b) {
                           if (std::isnan(a)) return false;
                           if (std::isnan(b)) return true;
                           return a < b;
                         });
        out.at(b, t, f) = buf[buf.size() / 2];
      }
    }
  }
  return out;
}

FeatureSqueezingDetector::FeatureSqueezingDetector(SqueezeConfig config)
    : config_(config) {}

std::vector<double> FeatureSqueezingDetector::scores(
    const nn::Classifier& clf, const nn::Tensor3& scaled_x) const {
  expects(scaled_x.batch() > 0, "empty input");
  const nn::Matrix p_raw = clf.predict_proba(scaled_x);
  const nn::Matrix p_quant = clf.predict_proba(squeeze_quantize(scaled_x, config_));
  const nn::Matrix p_median = clf.predict_proba(squeeze_median(scaled_x, config_));

  std::vector<double> out(static_cast<std::size_t>(scaled_x.batch()));
  for (int i = 0; i < scaled_x.batch(); ++i) {
    double d_quant = 0.0, d_median = 0.0;
    for (int c = 0; c < p_raw.cols(); ++c) {
      d_quant += std::fabs(static_cast<double>(p_raw.at(i, c)) - p_quant.at(i, c));
      d_median += std::fabs(static_cast<double>(p_raw.at(i, c)) - p_median.at(i, c));
    }
    out[static_cast<std::size_t>(i)] = std::max(d_quant, d_median);
  }
  return out;
}

void FeatureSqueezingDetector::calibrate(const nn::Classifier& clf,
                                         const nn::Tensor3& clean_scaled_x,
                                         double quantile) {
  expects(quantile > 0.0 && quantile < 1.0, "quantile must be in (0,1)");
  threshold_ = util::quantile(scores(clf, clean_scaled_x), quantile);
}

double FeatureSqueezingDetector::threshold() const {
  expects(calibrated(), "detector not calibrated");
  return threshold_;
}

std::vector<int> FeatureSqueezingDetector::detect(
    const nn::Classifier& clf, const nn::Tensor3& scaled_x) const {
  expects(calibrated(), "detector not calibrated");
  const auto s = scores(clf, scaled_x);
  std::vector<int> out(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) out[i] = s[i] > threshold_ ? 1 : 0;
  return out;
}

double FeatureSqueezingDetector::detection_rate(
    const nn::Classifier& clf, const nn::Tensor3& scaled_x) const {
  const auto verdicts = detect(clf, scaled_x);
  std::size_t hits = 0;
  for (int v : verdicts) hits += static_cast<std::size_t>(v);
  return verdicts.empty() ? 0.0
                          : static_cast<double>(hits) / static_cast<double>(verdicts.size());
}

}  // namespace cpsguard::attack
