#include "attack/nes.h"

#include <algorithm>
#include <cmath>

#include "obs/events.h"
#include "obs/metrics.h"
#include "util/contracts.h"

namespace cpsguard::attack {

namespace {

// Per-sample cross-entropy −log p_y from the target's output probabilities —
// the score an output-only attacker can compute.
std::vector<double> ce_scores(const nn::Classifier& target,
                              const nn::Tensor3& x,
                              std::span<const int> labels) {
  const nn::Matrix probs = target.predict_proba(x);
  std::vector<double> out(static_cast<std::size_t>(probs.rows()));
  for (int i = 0; i < probs.rows(); ++i) {
    const float p = probs.at(i, labels[static_cast<std::size_t>(i)]);
    out[static_cast<std::size_t>(i)] = -std::log(std::max(p, 1e-12f));
  }
  return out;
}

}  // namespace

nn::Tensor3 nes_attack(const nn::Classifier& target,
                       const nn::Tensor3& scaled_x,
                       std::span<const int> labels, const NesConfig& config) {
  expects(config.epsilon >= 0.0, "epsilon must be non-negative");
  expects(config.step_size > 0.0, "step size must be positive");
  expects(config.iterations > 0, "bad NES budget");
  // Probes are consumed as antithetic ± pairs; an odd budget would silently
  // drop a probe, and samples == 1 used to make the whole attack a no-op
  // (zero pairs -> zero gradient estimate -> adv == x).
  expects(config.samples >= 2 && config.samples % 2 == 0,
          "NES sample budget must be an even count >= 2 (antithetic pairs)");
  expects(config.sigma > 0.0, "probe sigma must be positive");
  expects(scaled_x.batch() == static_cast<int>(labels.size()),
          "one label per window required");

  static obs::Counter& calls =
      obs::Registry::instance().counter("attack.nes.calls");
  static obs::Counter& queries =
      obs::Registry::instance().counter("attack.nes.queries");
  static obs::Histogram& linf_hist =
      obs::Registry::instance().histogram("attack.nes.linf");
  calls.increment();

  util::Rng rng(config.seed, 0x4e45530aULL);
  nn::Tensor3 adv = scaled_x;
  const auto eps = static_cast<float>(config.epsilon);
  const auto alpha = static_cast<float>(config.step_size);
  const int batch = scaled_x.batch();
  const int dims = scaled_x.time() * scaled_x.features();

  for (int it = 0; it < config.iterations; ++it) {
    // NES gradient estimate: g ≈ (1/(2σn)) Σ_k [L(x+σu_k) − L(x−σu_k)] u_k
    nn::Tensor3 grad_est(batch, scaled_x.time(), scaled_x.features());
    const int pairs = std::max(1, config.samples / 2);
    for (int k = 0; k < pairs; ++k) {
      nn::Tensor3 noise(batch, scaled_x.time(), scaled_x.features());
      for (float& v : noise.data()) {
        v = static_cast<float>(rng.gaussian());
      }
      nn::Tensor3 plus = adv;
      nn::Tensor3 minus = adv;
      {
        auto p = plus.data();
        auto m = minus.data();
        const auto u = noise.data();
        const auto s = static_cast<float>(config.sigma);
        for (std::size_t i = 0; i < p.size(); ++i) {
          p[i] += s * u[i];
          m[i] -= s * u[i];
        }
      }
      const auto score_plus = ce_scores(target, plus, labels);
      const auto score_minus = ce_scores(target, minus, labels);
      // Each antithetic pair costs two full-batch probes of the target.
      queries.add(2 * static_cast<std::uint64_t>(batch));
      auto g = grad_est.data();
      const auto u = noise.data();
      for (int b = 0; b < batch; ++b) {
        const auto delta = static_cast<float>(score_plus[static_cast<std::size_t>(b)] -
                                              score_minus[static_cast<std::size_t>(b)]);
        const std::size_t base = static_cast<std::size_t>(b) * static_cast<std::size_t>(dims);
        for (int d = 0; d < dims; ++d) {
          g[base + static_cast<std::size_t>(d)] +=
              delta * u[base + static_cast<std::size_t>(d)];
        }
      }
    }
    apply_feature_mask(grad_est, config.mask);

    // Sign step + projection onto the ε-ball.
    auto a = adv.data();
    const auto g = grad_est.data();
    const auto x0 = scaled_x.data();
    for (std::size_t i = 0; i < a.size(); ++i) {
      const float step = g[i] > 0.0f ? alpha : (g[i] < 0.0f ? -alpha : 0.0f);
      a[i] = std::clamp(a[i] + step, x0[i] - eps, x0[i] + eps);
    }
  }

  const double linf = linf_distance(adv, scaled_x);
  linf_hist.record(linf);
  CPSGUARD_OBS_EVENT(
      "attack.nes", obs::f("windows", batch), obs::f("epsilon", config.epsilon),
      obs::f("queries",
             static_cast<std::uint64_t>(config.iterations) *
                 static_cast<std::uint64_t>(2 * (config.samples / 2)) *
                 static_cast<std::uint64_t>(batch)),
      obs::f("linf", linf));
  ensures(linf <= config.epsilon + 1e-4,
          "NES must respect the L-infinity budget");
  return adv;
}

}  // namespace cpsguard::attack
