// Cross-module property tests: parameterized sweeps over attack budgets,
// noise levels, patient profiles, and randomly generated STL formulas.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "attack/fgsm.h"
#include "attack/gaussian.h"
#include "attack/pgd.h"
#include "monitor/features.h"
#include "nn/classifier.h"
#include "safety/stl.h"
#include "sim/closed_loop.h"
#include "util/rng.h"
#include "util/stats.h"

namespace cpsguard {
namespace {

using monitor::Features;

nn::Tensor3 random_windows(int n, int t, util::Rng& rng) {
  nn::Tensor3 x(n, t, Features::kNumFeatures);
  for (float& v : x.data()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return x;
}

// ---------- attack budget sweep -------------------------------------------

class EpsilonSweep : public ::testing::TestWithParam<double> {};

INSTANTIATE_TEST_SUITE_P(Budgets, EpsilonSweep,
                         ::testing::Values(0.01, 0.05, 0.1, 0.2, 0.5));

TEST_P(EpsilonSweep, FgsmSaturatesItsBudgetExactly) {
  const double eps = GetParam();
  util::Rng rng(1);
  nn::MlpClassifier clf(3, Features::kNumFeatures, {12}, 2, rng);
  util::Rng xr(2);
  const nn::Tensor3 x = random_windows(10, 3, xr);
  const std::vector<int> labels(10, 1);
  attack::FgsmConfig cfg;
  cfg.epsilon = eps;
  const nn::Tensor3 adv = attack::fgsm_attack(clf, x, labels, cfg);
  const double dist = attack::linf_distance(adv, x);
  EXPECT_LE(dist, eps + 1e-4);
  EXPECT_NEAR(dist, eps, eps * 0.05 + 1e-5) << "sign step should be saturated";
}

TEST_P(EpsilonSweep, PgdStaysInsideBallForAnyIterationCount) {
  const double eps = GetParam();
  util::Rng rng(3);
  nn::MlpClassifier clf(2, Features::kNumFeatures, {8}, 2, rng);
  util::Rng xr(4);
  const nn::Tensor3 x = random_windows(8, 2, xr);
  const std::vector<int> labels(8, 0);
  for (const int iters : {1, 4, 16}) {
    attack::PgdConfig cfg;
    cfg.epsilon = eps;
    cfg.step_size = eps;  // deliberately aggressive: projection must hold
    cfg.iterations = iters;
    const nn::Tensor3 adv = attack::pgd_attack(clf, x, labels, cfg);
    EXPECT_LE(attack::linf_distance(adv, x), eps + 1e-4) << "iters=" << iters;
  }
}

// ---------- noise scaling sweep --------------------------------------------

class SigmaSweep : public ::testing::TestWithParam<double> {};

INSTANTIATE_TEST_SUITE_P(Sigmas, SigmaSweep,
                         ::testing::Values(0.1, 0.25, 0.5, 0.75, 1.0));

TEST_P(SigmaSweep, NoiseMagnitudeTracksSigma) {
  const double sigma = GetParam();
  util::Rng data_rng(5);
  nn::Tensor3 x(300, 2, Features::kNumFeatures);
  for (int b = 0; b < 300; ++b) {
    for (int t = 0; t < 2; ++t) {
      for (int f = 0; f < Features::kNumFeatures; ++f) {
        x.at(b, t, f) = static_cast<float>(data_rng.gaussian(0.0, 2.0));
      }
    }
  }
  monitor::StandardScaler scaler;
  scaler.fit(x);
  attack::GaussianNoiseConfig cfg;
  cfg.sigma_factor = sigma;
  util::Rng rng(6);
  const nn::Tensor3 noisy = attack::add_gaussian_noise(x, scaler, cfg, rng);
  util::RunningStats s;
  for (int b = 0; b < x.batch(); ++b) {
    for (int t = 0; t < x.time(); ++t) {
      s.add(noisy.at(b, t, Features::kBg) - x.at(b, t, Features::kBg));
    }
  }
  EXPECT_NEAR(s.stddev(), sigma * scaler.std_of(Features::kBg),
              0.12 * sigma * scaler.std_of(Features::kBg));
}

// ---------- all patient profiles settle ------------------------------------

class ProfileSweep
    : public ::testing::TestWithParam<std::tuple<sim::Testbed, int>> {};

INSTANTIATE_TEST_SUITE_P(
    AllProfiles, ProfileSweep,
    ::testing::Combine(::testing::Values(sim::Testbed::kGlucosymOpenAps,
                                         sim::Testbed::kT1dBasalBolus),
                       ::testing::Range(0, 20)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == sim::Testbed::kGlucosymOpenAps
                             ? "Glucosym"
                             : "T1DS2013") +
             "_p" + std::to_string(std::get<1>(info.param));
    });

TEST_P(ProfileSweep, EveryProfileHoldsSteadyAtRecommendedBasal) {
  const auto [tb, pid] = GetParam();
  const auto profiles = sim::testbed_profiles(tb, 20, 42);
  auto patient = sim::make_patient(tb);
  util::Rng rng(static_cast<std::uint64_t>(pid) + 100);
  patient->reset(profiles[static_cast<std::size_t>(pid)], rng);
  const double basal = patient->recommended_basal_u_per_h();
  ASSERT_GT(basal, 0.0);
  const double start = patient->bg();
  for (int i = 0; i < 24; ++i) patient->step(basal, 0.0, 5.0);  // 2 h
  EXPECT_TRUE(std::isfinite(patient->bg()));
  EXPECT_NEAR(patient->bg(), start, 30.0) << "profile " << pid;
  const auto cal = patient->effective_profile();
  EXPECT_GE(cal.isf_mg_dl_per_u, 5.0);
  EXPECT_LE(cal.carb_ratio_g_per_u, 150.0);
}

// ---------- random STL formulas --------------------------------------------

safety::StlFormula::Ptr random_formula(util::Rng& rng, int depth) {
  using F = safety::StlFormula;
  const auto signal = std::string("s") + std::to_string(rng.uniform_int(0, 2));
  if (depth == 0 || rng.bernoulli(0.3)) {
    const auto cmp = static_cast<safety::Cmp>(rng.uniform_int(0, 3));  // skip EqApprox
    return F::atom(signal, cmp, rng.uniform(-1.0, 1.0));
  }
  switch (rng.uniform_int(0, 4)) {
    case 0: return F::negate(random_formula(rng, depth - 1));
    case 1:
      return F::conj(random_formula(rng, depth - 1), random_formula(rng, depth - 1));
    case 2:
      return F::disj(random_formula(rng, depth - 1), random_formula(rng, depth - 1));
    case 3: {
      const int a = rng.uniform_int(0, 2);
      return F::always(random_formula(rng, depth - 1), a, a + rng.uniform_int(0, 3));
    }
    default: {
      const int a = rng.uniform_int(0, 2);
      return F::eventually(random_formula(rng, depth - 1), a,
                           a + rng.uniform_int(0, 3));
    }
  }
}

TEST(StlProperty, RobustnessSignAgreesWithBooleanSemantics) {
  util::Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    safety::SignalTrace st;
    for (int s = 0; s < 3; ++s) {
      std::vector<double> values(8);
      for (double& v : values) v = rng.uniform(-1.5, 1.5);
      st.add_signal(std::string("s").append(std::to_string(s)), std::move(values));
    }
    const auto f = random_formula(rng, 3);
    for (int t = 0; t < st.length(); ++t) {
      const double rob = f->robustness(st, t);
      if (rob > 1e-9) {
        EXPECT_TRUE(f->eval(st, t)) << f->to_string() << " @ " << t;
      } else if (rob < -1e-9) {
        EXPECT_FALSE(f->eval(st, t)) << f->to_string() << " @ " << t;
      }
    }
  }
}

TEST(StlProperty, NegationFlipsRobustnessSign) {
  util::Rng rng(8);
  for (int trial = 0; trial < 100; ++trial) {
    safety::SignalTrace st;
    std::vector<double> values(5);
    for (double& v : values) v = rng.uniform(-1.0, 1.0);
    st.add_signal("s0", values);
    st.add_signal("s1", values);
    st.add_signal("s2", values);
    const auto f = random_formula(rng, 2);
    const auto g = safety::StlFormula::negate(f);
    for (int t = 0; t < st.length(); ++t) {
      EXPECT_DOUBLE_EQ(g->robustness(st, t), -f->robustness(st, t));
    }
  }
}

}  // namespace
}  // namespace cpsguard
