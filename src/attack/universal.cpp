#include "attack/universal.h"

#include <algorithm>

#include "obs/events.h"
#include "obs/metrics.h"
#include "util/contracts.h"

namespace cpsguard::attack {

nn::Tensor3 craft_universal_perturbation(const nn::Classifier& clf,
                                         const nn::Tensor3& crafting_x,
                                         std::span<const int> labels,
                                         const UniversalConfig& config) {
  expects(config.epsilon >= 0.0, "epsilon must be non-negative");
  expects(config.step_size > 0.0, "step size must be positive");
  expects(config.epochs > 0 && config.batch_size > 0, "bad crafting budget");
  expects(crafting_x.batch() == static_cast<int>(labels.size()),
          "one label per window required");

  static obs::Counter& crafts =
      obs::Registry::instance().counter("attack.universal.crafts");
  static obs::Counter& windows =
      obs::Registry::instance().counter("attack.universal.crafting_windows");
  static obs::Histogram& linf_hist =
      obs::Registry::instance().histogram("attack.universal.linf");
  crafts.increment();
  windows.add(static_cast<std::uint64_t>(crafting_x.batch()));

  const int time = crafting_x.time();
  const int features = crafting_x.features();
  nn::Tensor3 delta(1, time, features);
  const auto eps = static_cast<float>(config.epsilon);
  const auto alpha = static_cast<float>(config.step_size);
  const int n = crafting_x.batch();

  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    for (int start = 0; start < n; start += config.batch_size) {
      const int count = std::min(config.batch_size, n - start);
      std::vector<int> idx(static_cast<std::size_t>(count));
      for (int i = 0; i < count; ++i) idx[static_cast<std::size_t>(i)] = start + i;
      nn::Tensor3 xb = crafting_x.gather(idx);
      // Shift the whole batch by the current δ, then average the resulting
      // input gradient over the batch to update δ.
      for (int b = 0; b < count; ++b) {
        for (int t = 0; t < time; ++t) {
          auto row = xb.row(b, t);
          const auto d = delta.row(0, t);
          for (std::size_t f = 0; f < row.size(); ++f) row[f] += d[f];
        }
      }
      std::vector<int> yb(labels.begin() + start, labels.begin() + start + count);
      const nn::Tensor3 grad = clf.loss_input_gradient(xb, yb);
      for (int t = 0; t < time; ++t) {
        auto d = delta.row(0, t);
        for (int f = 0; f < features; ++f) {
          double g = 0.0;
          for (int b = 0; b < count; ++b) g += grad.at(b, t, f);
          const float step = g > 0.0 ? alpha : (g < 0.0 ? -alpha : 0.0f);
          d[static_cast<std::size_t>(f)] =
              std::clamp(d[static_cast<std::size_t>(f)] + step, -eps, eps);
        }
      }
    }
  }
  apply_feature_mask(delta, config.mask);
  const double linf = delta.max_abs();
  linf_hist.record(linf);
  CPSGUARD_OBS_EVENT("attack.universal", obs::f("windows", crafting_x.batch()),
                     obs::f("epsilon", config.epsilon), obs::f("linf", linf));
  ensures(linf <= config.epsilon + 1e-4,
          "universal delta must respect the L-infinity budget");
  return delta;
}

nn::Tensor3 apply_universal_perturbation(const nn::Tensor3& x,
                                         const nn::Tensor3& delta) {
  expects(delta.batch() == 1 && delta.time() == x.time() &&
              delta.features() == x.features(),
          "delta must be a single window matching x's shape");
  nn::Tensor3 out = x;
  for (int b = 0; b < x.batch(); ++b) {
    for (int t = 0; t < x.time(); ++t) {
      auto row = out.row(b, t);
      const auto d = delta.row(0, t);
      for (std::size_t f = 0; f < row.size(); ++f) row[f] += d[f];
    }
  }
  return out;
}

}  // namespace cpsguard::attack
