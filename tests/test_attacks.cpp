// Attack-model properties: Gaussian noise hits only sensor features with the
// configured magnitude; FGSM respects its L∞ budget exactly and increases
// the loss; the black-box substitute clones the target and transfers.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "attack/blackbox.h"
#include "attack/fgsm.h"
#include "attack/gaussian.h"
#include "monitor/features.h"
#include "nn/gru_classifier.h"
#include "nn/lstm_classifier.h"
#include "obs/metrics.h"
#include "util/contracts.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace cpsguard::attack {
namespace {

using monitor::Features;

nn::Tensor3 random_windows(int n, int t, util::Rng& rng) {
  nn::Tensor3 x(n, t, Features::kNumFeatures);
  for (float& v : x.data()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return x;
}

monitor::StandardScaler unit_scaler(int t) {
  // Fit on data with per-feature std ≈ feature index + 1 for testability.
  util::Rng rng(123);
  nn::Tensor3 x(500, t, Features::kNumFeatures);
  for (int b = 0; b < 500; ++b) {
    for (int tt = 0; tt < t; ++tt) {
      for (int f = 0; f < Features::kNumFeatures; ++f) {
        x.at(b, tt, f) = static_cast<float>(rng.gaussian(0.0, f + 1.0));
      }
    }
  }
  monitor::StandardScaler s;
  s.fit(x);
  return s;
}

TEST(FeatureMask, SensorAndCommandPartition) {
  EXPECT_TRUE(feature_in_mask(Features::kBg, FeatureMask::kSensorsOnly));
  EXPECT_TRUE(feature_in_mask(Features::kDiob, FeatureMask::kSensorsOnly));
  EXPECT_FALSE(feature_in_mask(Features::kRate, FeatureMask::kSensorsOnly));
  EXPECT_TRUE(feature_in_mask(Features::kRate, FeatureMask::kCommandsOnly));
  EXPECT_TRUE(feature_in_mask(Features::kActionBase, FeatureMask::kCommandsOnly));
  EXPECT_FALSE(feature_in_mask(Features::kBg, FeatureMask::kCommandsOnly));
  for (int f = 0; f < Features::kNumFeatures; ++f) {
    EXPECT_TRUE(feature_in_mask(f, FeatureMask::kAll));
  }
}

TEST(FeatureMask, ApplyZerosMaskedCoordinates) {
  util::Rng rng(1);
  nn::Tensor3 p = random_windows(3, 2, rng);
  apply_feature_mask(p, FeatureMask::kSensorsOnly);
  for (int b = 0; b < 3; ++b) {
    for (int t = 0; t < 2; ++t) {
      EXPECT_FLOAT_EQ(p.at(b, t, Features::kRate), 0.0f);
      EXPECT_FLOAT_EQ(p.at(b, t, Features::kActionBase + 1), 0.0f);
    }
  }
}

TEST(LinfDistance, MeasuresLargestChange) {
  nn::Tensor3 a(1, 1, 9), b(1, 1, 9);
  b.at(0, 0, 3) = 0.5f;
  b.at(0, 0, 7) = -0.2f;
  EXPECT_NEAR(linf_distance(a, b), 0.5, 1e-7);
}

TEST(GaussianNoise, PerturbsOnlySensorFeatures) {
  util::Rng data_rng(2);
  const nn::Tensor3 x = random_windows(50, 6, data_rng);
  const auto scaler = unit_scaler(6);
  GaussianNoiseConfig cfg;
  cfg.sigma_factor = 0.5;
  util::Rng rng(3);
  const nn::Tensor3 noisy = add_gaussian_noise(x, scaler, cfg, rng);
  for (int b = 0; b < x.batch(); ++b) {
    for (int t = 0; t < x.time(); ++t) {
      for (int f = 0; f < x.features(); ++f) {
        if (Features::is_command_feature(f)) {
          EXPECT_FLOAT_EQ(noisy.at(b, t, f), x.at(b, t, f));
        }
      }
    }
  }
  EXPECT_GT(linf_distance(noisy, x), 0.0);
}

TEST(GaussianNoise, MagnitudeScalesWithFeatureStd) {
  util::Rng data_rng(4);
  const nn::Tensor3 x = random_windows(800, 2, data_rng);
  const auto scaler = unit_scaler(2);
  GaussianNoiseConfig cfg;
  cfg.sigma_factor = 0.5;
  util::Rng rng(5);
  const nn::Tensor3 noisy = add_gaussian_noise(x, scaler, cfg, rng);
  // Empirical std of the added noise per feature ≈ 0.5 * std_of(f).
  for (const int f : {Features::kBg, Features::kDiob}) {
    util::RunningStats s;
    for (int b = 0; b < x.batch(); ++b) {
      for (int t = 0; t < x.time(); ++t) {
        s.add(noisy.at(b, t, f) - x.at(b, t, f));
      }
    }
    EXPECT_NEAR(s.stddev(), 0.5 * scaler.std_of(f), 0.06 * scaler.std_of(f));
    EXPECT_NEAR(s.mean(), 0.0, 0.05 * scaler.std_of(f));
  }
}

TEST(GaussianNoise, ZeroSigmaIsIdentity) {
  util::Rng data_rng(6);
  const nn::Tensor3 x = random_windows(10, 2, data_rng);
  const auto scaler = unit_scaler(2);
  GaussianNoiseConfig cfg;
  cfg.sigma_factor = 0.0;
  util::Rng rng(7);
  EXPECT_TRUE(add_gaussian_noise(x, scaler, cfg, rng) == x);
}

TEST(GaussianNoise, DeterministicInRng) {
  util::Rng data_rng(8);
  const nn::Tensor3 x = random_windows(10, 2, data_rng);
  const auto scaler = unit_scaler(2);
  GaussianNoiseConfig cfg;
  util::Rng r1(9), r2(9);
  EXPECT_TRUE(add_gaussian_noise(x, scaler, cfg, r1) ==
              add_gaussian_noise(x, scaler, cfg, r2));
}

class FgsmTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::Rng rng(10);
    clf_ = std::make_unique<nn::MlpClassifier>(
        3, Features::kNumFeatures, std::vector<int>{16}, 2, rng);
    util::Rng xr(11);
    x_ = random_windows(20, 3, xr);
    labels_.assign(20, 0);
    for (int i = 10; i < 20; ++i) labels_[static_cast<std::size_t>(i)] = 1;
  }

  std::unique_ptr<nn::Classifier> clf_;
  nn::Tensor3 x_;
  std::vector<int> labels_;
};

TEST_F(FgsmTest, RespectsLinfBudgetExactly) {
  FgsmConfig cfg;
  cfg.epsilon = 0.07;
  const nn::Tensor3 adv = fgsm_attack(*clf_, x_, labels_, cfg);
  EXPECT_LE(linf_distance(adv, x_), cfg.epsilon + 1e-6);
  // And the budget should be met (sign() is ±ε almost everywhere).
  EXPECT_NEAR(linf_distance(adv, x_), cfg.epsilon, 1e-4);
}

TEST_F(FgsmTest, IncreasesCrossEntropyLoss) {
  FgsmConfig cfg;
  cfg.epsilon = 0.2;
  const nn::Tensor3 adv = fgsm_attack(*clf_, x_, labels_, cfg);
  const nn::SoftmaxCrossEntropy ce;
  clf_->zero_grad();
  const double clean = clf_->accumulate_gradients(x_, labels_, {}, ce);
  clf_->zero_grad();
  const double attacked = clf_->accumulate_gradients(adv, labels_, {}, ce);
  clf_->zero_grad();
  EXPECT_GT(attacked, clean);
}

TEST_F(FgsmTest, ZeroEpsilonIsIdentity) {
  FgsmConfig cfg;
  cfg.epsilon = 0.0;
  EXPECT_TRUE(fgsm_attack(*clf_, x_, labels_, cfg) == x_);
}

TEST_F(FgsmTest, MaskLimitsPerturbedFeatures) {
  FgsmConfig cfg;
  cfg.epsilon = 0.1;
  cfg.mask = FeatureMask::kSensorsOnly;
  const nn::Tensor3 adv = fgsm_attack(*clf_, x_, labels_, cfg);
  for (int b = 0; b < x_.batch(); ++b) {
    for (int t = 0; t < x_.time(); ++t) {
      for (int f = 0; f < x_.features(); ++f) {
        if (Features::is_command_feature(f)) {
          EXPECT_FLOAT_EQ(adv.at(b, t, f), x_.at(b, t, f));
        }
      }
    }
  }
}

TEST_F(FgsmTest, WorksAgainstLstm) {
  util::Rng rng(12);
  nn::LstmClassifier lstm(3, Features::kNumFeatures, {8}, 2, rng);
  FgsmConfig cfg;
  cfg.epsilon = 0.15;
  const nn::Tensor3 adv = fgsm_attack(lstm, x_, labels_, cfg);
  EXPECT_LE(linf_distance(adv, x_), cfg.epsilon + 1e-6);
  EXPECT_GT(linf_distance(adv, x_), 0.0);
}

TEST_F(FgsmTest, RejectsLabelMismatch) {
  FgsmConfig cfg;
  const std::vector<int> too_few = {0, 1};
  EXPECT_THROW(fgsm_attack(*clf_, x_, too_few, cfg), cpsguard::ContractViolation);
}

bool same_bits(const nn::Tensor3& a, const nn::Tensor3& b) {
  return a.batch() == b.batch() && a.time() == b.time() &&
         a.features() == b.features() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(float)) == 0;
}

// fgsm_gradient fans out over nn::kChunkRows-row chunks. On the Fig. 9 test
// set's 870 rows (six chunks and a 102-row tail) it returns the whole-set
// gradient bit for bit for every architecture: pooled, serial, and from
// inside a pool task (where its chunks run inline). Each call counts one
// gradient, however many chunks it ran.
TEST(FgsmGradient, ChunkedFanOutMatchesWholeSetGradient) {
  constexpr int kRows = 870;
  util::Rng rng(18);
  std::vector<std::unique_ptr<nn::Classifier>> clfs;
  clfs.push_back(std::make_unique<nn::MlpClassifier>(
      6, Features::kNumFeatures, std::vector<int>{256, 128}, 2, rng));
  clfs.push_back(std::make_unique<nn::LstmClassifier>(
      6, Features::kNumFeatures, std::vector<int>{128, 64}, 2, rng));
  clfs.push_back(std::make_unique<nn::GruClassifier>(
      6, Features::kNumFeatures, std::vector<int>{128, 64}, 2, rng));
  util::Rng xr(19);
  const nn::Tensor3 x = random_windows(kRows, 6, xr);
  std::vector<int> labels(kRows);
  for (int i = 0; i < kRows; ++i) labels[static_cast<std::size_t>(i)] = i % 3 == 0;
  const obs::Counter& gradients =
      obs::Registry::instance().counter("attack.fgsm.gradients");

  std::vector<nn::Tensor3> whole;
  for (const auto& clf : clfs) {
    whole.push_back(std::as_const(*clf).loss_input_gradient(x, labels));
    const std::uint64_t before = gradients.value();
    EXPECT_TRUE(same_bits(fgsm_gradient(*clf, x, labels), whole.back()))
        << clf->arch() << " pooled";
    EXPECT_EQ(gradients.value() - before, 1u) << "one gradient per call";
    util::set_max_parallelism(1);
    EXPECT_TRUE(same_bits(fgsm_gradient(*clf, x, labels), whole.back()))
        << clf->arch() << " serial";
    util::set_max_parallelism(0);
  }
  std::vector<nn::Tensor3> nested(clfs.size());
  util::parallel_for(static_cast<int>(clfs.size()), [&](int k) {
    const auto sk = static_cast<std::size_t>(k);
    nested[sk] = fgsm_gradient(*clfs[sk], x, labels);
  });
  for (std::size_t k = 0; k < clfs.size(); ++k) {
    EXPECT_TRUE(same_bits(nested[k], whole[k])) << clfs[k]->arch() << " nested";
  }
}

TEST(SubstituteAttack, ClonesSimpleTargetDecision) {
  // Target: an MLP trained to threshold on BG-feature mean. The substitute
  // must reach high agreement from query access alone.
  util::Rng rng(13);
  nn::MlpClassifier target(2, Features::kNumFeatures, {16}, 2, rng);
  util::Rng data_rng(14);
  nn::Tensor3 x = random_windows(400, 2, data_rng);
  std::vector<int> y(400);
  for (int i = 0; i < 400; ++i) {
    y[static_cast<std::size_t>(i)] =
        x.at(i, 0, Features::kBg) + x.at(i, 1, Features::kBg) > 0 ? 1 : 0;
  }
  nn::Adam adam(0.01);
  const nn::SoftmaxCrossEntropy ce;
  for (int e = 0; e < 30; ++e) target.train_batch(x, y, {}, ce, adam);

  SubstituteConfig sc;
  sc.hidden = {32};
  sc.epochs = 20;
  SubstituteAttack sub(sc);
  EXPECT_FALSE(sub.fitted());
  sub.fit(target, x);
  EXPECT_TRUE(sub.fitted());
  EXPECT_GT(sub.agreement(target, x), 0.8);
}

TEST(SubstituteAttack, CraftRespectsBudgetAndUsesSubstitute) {
  util::Rng rng(15);
  nn::MlpClassifier target(2, Features::kNumFeatures, {8}, 2, rng);
  util::Rng data_rng(16);
  const nn::Tensor3 x = random_windows(100, 2, data_rng);

  SubstituteAttack sub(SubstituteConfig{});
  sub.fit(target, x);
  const std::vector<int> oracle = nn::predict_classes(target, x);
  FgsmConfig cfg;
  cfg.epsilon = 0.1;
  const nn::Tensor3 adv = sub.craft(x, oracle, cfg);
  EXPECT_LE(linf_distance(adv, x), cfg.epsilon + 1e-6);
}

TEST(SubstituteAttack, UnfittedOperationsThrow) {
  SubstituteAttack sub(SubstituteConfig{});
  util::Rng rng(17);
  const nn::Tensor3 x = random_windows(2, 2, rng);
  const std::vector<int> labels = {0, 1};
  EXPECT_THROW(sub.craft(x, labels, FgsmConfig{}), cpsguard::ContractViolation);
  EXPECT_THROW((void)sub.substitute(), cpsguard::ContractViolation);
}

TEST(ToString, MaskNames) {
  EXPECT_EQ(to_string(FeatureMask::kSensorsOnly), "sensors");
  EXPECT_EQ(to_string(FeatureMask::kCommandsOnly), "commands");
  EXPECT_EQ(to_string(FeatureMask::kAll), "sensors+commands");
}

}  // namespace
}  // namespace cpsguard::attack
