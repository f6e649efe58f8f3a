#include "attack/pgd.h"

#include <algorithm>

#include "obs/events.h"
#include "obs/metrics.h"
#include "util/contracts.h"

namespace cpsguard::attack {

nn::Tensor3 pgd_attack(const nn::Classifier& clf,
                       const nn::Tensor3& scaled_x,
                       std::span<const int> labels, const PgdConfig& config) {
  expects(config.epsilon >= 0.0, "epsilon must be non-negative");
  expects(config.step_size > 0.0, "step size must be positive");
  expects(config.iterations > 0, "need at least one iteration");
  expects(scaled_x.batch() == static_cast<int>(labels.size()),
          "one label per window required");

  static obs::Counter& calls =
      obs::Registry::instance().counter("attack.pgd.calls");
  static obs::Counter& windows =
      obs::Registry::instance().counter("attack.pgd.windows");
  static obs::Counter& grad_steps =
      obs::Registry::instance().counter("attack.pgd.grad_steps");
  static obs::Histogram& linf_hist =
      obs::Registry::instance().histogram("attack.pgd.linf");
  calls.increment();
  windows.add(static_cast<std::uint64_t>(scaled_x.batch()));
  grad_steps.add(static_cast<std::uint64_t>(config.iterations));

  nn::Tensor3 adv = scaled_x;
  const auto eps = static_cast<float>(config.epsilon);
  const auto alpha = static_cast<float>(config.step_size);

  for (int it = 0; it < config.iterations; ++it) {
    nn::Tensor3 grad = clf.loss_input_gradient(adv, labels);
    apply_feature_mask(grad, config.mask);
    auto a = adv.data();
    const auto g = grad.data();
    const auto x0 = scaled_x.data();
    for (std::size_t i = 0; i < a.size(); ++i) {
      const float step = g[i] > 0.0f ? alpha : (g[i] < 0.0f ? -alpha : 0.0f);
      // Ascend the loss, then project onto the ε-ball around the original.
      a[i] = std::clamp(a[i] + step, x0[i] - eps, x0[i] + eps);
    }
  }

  const double linf = linf_distance(adv, scaled_x);
  linf_hist.record(linf);
  CPSGUARD_OBS_EVENT("attack.pgd", obs::f("windows", scaled_x.batch()),
                     obs::f("epsilon", config.epsilon),
                     obs::f("iterations", config.iterations),
                     obs::f("linf", linf));
  ensures(linf <= config.epsilon + 1e-4,
          "PGD must respect the L-infinity budget");
  return adv;
}

}  // namespace cpsguard::attack
