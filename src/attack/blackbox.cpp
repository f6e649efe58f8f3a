#include "attack/blackbox.h"

#include "obs/events.h"
#include "obs/span.h"
#include "util/contracts.h"

namespace cpsguard::attack {

SubstituteAttack::SubstituteAttack(SubstituteConfig config)
    : config_(std::move(config)) {
  expects(config_.epochs > 0 && config_.batch_size > 0, "bad substitute config");
}

void SubstituteAttack::fit(const nn::Classifier& target,
                           const nn::Tensor3& scaled_queries) {
  expects(scaled_queries.batch() > 0, "empty query set");
  static obs::Counter& fits =
      obs::Registry::instance().counter("attack.substitute.fits");
  static obs::Counter& oracle_queries =
      obs::Registry::instance().counter("attack.substitute.oracle_queries");
  fits.increment();
  oracle_queries.add(static_cast<std::uint64_t>(scaled_queries.batch()));
  const obs::ScopedSpan span("attack.substitute.fit");
  CPSGUARD_OBS_EVENT("attack.substitute.fit",
                     obs::f("queries", scaled_queries.batch()));

  // Oracle labels: the target's own outputs.
  const std::vector<int> oracle = nn::predict_classes(target, scaled_queries);

  util::Rng rng(config_.seed, 0x53554253u /* 'SUBS' */);
  substitute_ = std::make_unique<nn::MlpClassifier>(
      scaled_queries.time(), scaled_queries.features(), config_.hidden,
      target.num_classes(), rng);

  nn::Adam adam(config_.learning_rate);
  const nn::SoftmaxCrossEntropy ce;
  util::Rng shuffle_rng(config_.seed ^ 0xabcdefULL, 0x51515151u);

  const int n = scaled_queries.batch();
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    const std::vector<int> order = shuffle_rng.permutation(n);
    for (int start = 0; start < n; start += config_.batch_size) {
      const int count = std::min(config_.batch_size, n - start);
      const std::vector<int> idx(order.begin() + start,
                                 order.begin() + start + count);
      const nn::Tensor3 xb = scaled_queries.gather(idx);
      std::vector<int> yb(static_cast<std::size_t>(count));
      for (int i = 0; i < count; ++i) {
        yb[static_cast<std::size_t>(i)] =
            oracle[static_cast<std::size_t>(idx[static_cast<std::size_t>(i)])];
      }
      substitute_->train_batch(xb, yb, {}, ce, adam);
    }
  }
}

double SubstituteAttack::agreement(const nn::Classifier& target,
                                   const nn::Tensor3& scaled_x) const {
  expects(fitted(), "substitute not fitted");
  expects(scaled_x.batch() > 0, "empty input");
  const std::vector<int> t = nn::predict_classes(target, scaled_x);
  const std::vector<int> s = nn::predict_classes(*substitute_, scaled_x);
  int same = 0;
  for (std::size_t i = 0; i < t.size(); ++i) same += (t[i] == s[i]) ? 1 : 0;
  return static_cast<double>(same) / static_cast<double>(t.size());
}

nn::Tensor3 SubstituteAttack::craft(const nn::Tensor3& scaled_x,
                                    std::span<const int> labels,
                                    const FgsmConfig& fgsm) const {
  expects(fitted(), "substitute not fitted");
  return fgsm_attack(*substitute_, scaled_x, labels, fgsm);
}

const nn::Classifier& SubstituteAttack::substitute() const {
  expects(fitted(), "substitute not fitted");
  return *substitute_;
}

}  // namespace cpsguard::attack
