#include "attack/fgsm.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "obs/events.h"
#include "obs/metrics.h"
#include "util/contracts.h"
#include "util/thread_pool.h"

namespace cpsguard::attack {

nn::Tensor3 fgsm_gradient(const nn::Classifier& clf,
                          const nn::Tensor3& scaled_x,
                          std::span<const int> labels) {
  const int rows = scaled_x.batch();
  expects(rows == static_cast<int>(labels.size()),
          "one label per window required");
  expects(rows > 0, "empty batch");
  static obs::Counter& gradients =
      obs::Registry::instance().counter("attack.fgsm.gradients");
  gradients.increment();

  // Every row's dlogits carries the whole set's 1/N and every later product
  // is row-local, so each chunk's rows equal the whole-set call's.
  const float inv_batch = 1.0f / static_cast<float>(rows);
  const int chunks = (rows + nn::kChunkRows - 1) / nn::kChunkRows;
  std::vector<int> row_ids(static_cast<std::size_t>(rows));
  std::iota(row_ids.begin(), row_ids.end(), 0);
  nn::Tensor3 grad(rows, scaled_x.time(), scaled_x.features());
  util::parallel_for(chunks, [&](int c) {
    const int r0 = c * nn::kChunkRows;
    const auto n = static_cast<std::size_t>(std::min(rows - r0, nn::kChunkRows));
    const auto ids = std::span<const int>(row_ids).subspan(
        static_cast<std::size_t>(r0), n);
    nn::ForwardCache cache;
    const nn::Tensor3 part = clf.input_gradient(
        scaled_x.gather(ids), labels.subspan(static_cast<std::size_t>(r0), n),
        inv_batch, cache);
    std::copy(part.data().begin(), part.data().end(),
              grad.data().begin() +
                  static_cast<std::ptrdiff_t>(r0) * scaled_x.time() *
                      scaled_x.features());
  });
  return grad;
}

nn::Tensor3 fgsm_apply(const nn::Tensor3& scaled_x, const nn::Tensor3& grad,
                       const FgsmConfig& config) {
  expects(config.epsilon >= 0.0, "epsilon must be non-negative");
  expects(grad.batch() == scaled_x.batch() && grad.time() == scaled_x.time() &&
              grad.features() == scaled_x.features(),
          "gradient shape must match the input");

  static obs::Counter& calls =
      obs::Registry::instance().counter("attack.fgsm.calls");
  static obs::Counter& windows =
      obs::Registry::instance().counter("attack.fgsm.windows");
  static obs::Histogram& linf_hist =
      obs::Registry::instance().histogram("attack.fgsm.linf");
  calls.increment();
  windows.add(static_cast<std::uint64_t>(scaled_x.batch()));

  // Δx = ε · sign(∇x J)
  nn::Tensor3 delta = grad;
  auto g = delta.data();
  const auto eps = static_cast<float>(config.epsilon);
  for (float& v : g) {
    v = v > 0.0f ? eps : (v < 0.0f ? -eps : 0.0f);
  }
  apply_feature_mask(delta, config.mask);

  nn::Tensor3 adv = scaled_x;
  auto a = adv.data();
  for (std::size_t i = 0; i < a.size(); ++i) a[i] += g[i];

  const double linf = linf_distance(adv, scaled_x);
  linf_hist.record(linf);
  CPSGUARD_OBS_EVENT("attack.fgsm", obs::f("windows", scaled_x.batch()),
                     obs::f("epsilon", config.epsilon), obs::f("linf", linf));
  ensures(linf <= config.epsilon + 1e-4,
          "FGSM must respect the L-infinity budget");
  return adv;
}

nn::Tensor3 fgsm_attack(const nn::Classifier& clf,
                        const nn::Tensor3& scaled_x,
                        std::span<const int> labels, const FgsmConfig& config) {
  expects(config.epsilon >= 0.0, "epsilon must be non-negative");
  return fgsm_apply(scaled_x, fgsm_gradient(clf, scaled_x, labels), config);
}

}  // namespace cpsguard::attack
