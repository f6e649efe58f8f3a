// GRU layer and stacked-classifier checks, mirroring the LSTM suite:
// shapes, bounded activations, memory, and full BPTT gradient verification.
#include "nn/gru.h"

#include <gtest/gtest.h>

#include <cmath>

#include "nn/gradcheck.h"
#include "nn/gru_classifier.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace cpsguard::nn {
namespace {

Tensor3 random_tensor(int b, int t, int f, util::Rng& rng) {
  Tensor3 x(b, t, f);
  for (float& v : x.data()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return x;
}

TEST(GruLayer, OutputShape) {
  util::Rng rng(1);
  GruLayer gru(5, 8, rng);
  GruLayer::Cache cache;
  const Tensor3 y = gru.forward(random_tensor(3, 4, 5, rng), cache);
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(y.batch(), 3);
  EXPECT_EQ(y.time(), 4);
  EXPECT_EQ(y.features(), 8);
}

TEST(GruLayer, HiddenStatesBounded) {
  util::Rng rng(2);
  GruLayer gru(4, 6, rng);
  Tensor3 x = random_tensor(2, 10, 4, rng);
  x.fill(100.0f);
  const Tensor3 y = gru.infer(x);
  // h is a convex combination of tanh outputs and previous h → |h| <= 1.
  for (float v : y.data()) {
    EXPECT_LE(std::fabs(v), 1.0f + 1e-5f);
    EXPECT_FALSE(std::isnan(v));
  }
}

TEST(GruLayer, RemembersEarlyInputs) {
  util::Rng rng(3);
  GruLayer gru(2, 4, rng);
  util::Rng xr(4);
  Tensor3 x = random_tensor(1, 6, 2, xr);
  const Tensor3 y1 = gru.infer(x);
  x.at(0, 0, 0) += 2.0f;
  const Tensor3 y2 = gru.infer(x);
  double diff = 0.0;
  for (int f = 0; f < 4; ++f) diff += std::fabs(y1.at(0, 5, f) - y2.at(0, 5, f));
  EXPECT_GT(diff, 1e-4);
}

TEST(GruLayer, DeterministicForward) {
  util::Rng rng1(5), rng2(5);
  GruLayer a(3, 5, rng1), b(3, 5, rng2);
  util::Rng xr(6);
  const Tensor3 x = random_tensor(2, 6, 3, xr);
  EXPECT_TRUE(a.infer(x) == b.infer(x));
}

TEST(GruLayer, BackwardRequiresForward) {
  util::Rng rng(7);
  GruLayer gru(2, 3, rng);
  Tensor3 dh(1, 2, 3);
  EXPECT_THROW((void)gru.backward(dh, GruLayer::Cache{}, {}),
               ContractViolation);
}

TEST(GruLayer, HasFourParams) {
  util::Rng rng(8);
  GruLayer gru(3, 4, rng);
  const auto ps = gru.params();
  ASSERT_EQ(ps.size(), 4u);
  EXPECT_EQ(ps[0]->value.rows(), 3);   // Wx
  EXPECT_EQ(ps[0]->value.cols(), 12);  // 3H
  EXPECT_EQ(ps[1]->value.rows(), 4);   // Wh
  EXPECT_EQ(ps[2]->value.rows(), 1);   // bx
  EXPECT_EQ(ps[3]->value.rows(), 1);   // bh
}

TEST(GruClassifier, ProbabilitiesWellFormed) {
  util::Rng rng(9);
  GruClassifier clf(6, 4, {8, 6}, 2, rng);
  EXPECT_EQ(clf.arch(), "GRU(8-6)");
  util::Rng xr(10);
  const Tensor3 x = random_tensor(5, 6, 4, xr);
  const Matrix p = clf.predict_proba(x);
  ASSERT_EQ(p.rows(), 5);
  for (int r = 0; r < 5; ++r) {
    EXPECT_NEAR(p.at(r, 0) + p.at(r, 1), 1.0f, 1e-5);
  }
}

TEST(GruClassifier, InputGradientMatchesFiniteDifference) {
  util::Rng rng(11);
  GruClassifier clf(4, 3, {6, 5}, 2, rng);
  util::Rng xr(12);
  const Tensor3 x = random_tensor(3, 4, 3, xr);
  const std::vector<int> labels = {0, 1, 0};
  util::Rng probe_rng(13);
  const auto res = check_input_gradient(clf, x, labels, probe_rng, 60, 1e-2);
  EXPECT_LT(res.max_rel_error, 0.05) << "abs=" << res.max_abs_error;
}

TEST(GruClassifier, ParamGradientsMatchFiniteDifference) {
  util::Rng rng(14);
  GruClassifier clf(3, 2, {5}, 2, rng);
  util::Rng xr(15);
  const Tensor3 x = random_tensor(4, 3, 2, xr);
  const std::vector<int> labels = {0, 1, 1, 0};
  const SoftmaxCrossEntropy ce;
  util::Rng probe_rng(16);
  const auto res =
      check_param_gradients(clf, x, labels, {}, ce, probe_rng, 60, 1e-2);
  EXPECT_LT(res.max_rel_error, 0.05) << "abs=" << res.max_abs_error;
}

TEST(GruClassifier, ParamGradientsWithSemanticLoss) {
  util::Rng rng(17);
  GruClassifier clf(3, 2, {4}, 2, rng);
  util::Rng xr(18);
  const Tensor3 x = random_tensor(4, 3, 2, xr);
  const std::vector<int> labels = {0, 1, 1, 0};
  const std::vector<float> sem = {0.0f, 1.0f, 0.0f, 1.0f};
  const SemanticLoss loss(0.7);
  util::Rng probe_rng(19);
  const auto res =
      check_param_gradients(clf, x, labels, sem, loss, probe_rng, 60, 1e-2);
  EXPECT_LT(res.max_rel_error, 0.06) << "abs=" << res.max_abs_error;
}

TEST(GruClassifier, LearnsTemporalPattern) {
  util::Rng rng(20);
  GruClassifier clf(4, 1, {8}, 2, rng);
  util::Rng data_rng(21);
  const int n = 256;
  Tensor3 x(n, 4, 1);
  std::vector<int> y(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    for (int t = 0; t < 4; ++t) {
      x.at(i, t, 0) = static_cast<float>(data_rng.uniform(-1.0, 1.0));
    }
    y[static_cast<std::size_t>(i)] = x.at(i, 0, 0) > x.at(i, 3, 0) ? 1 : 0;
  }
  Adam adam(0.01);
  const SoftmaxCrossEntropy ce;
  for (int epoch = 0; epoch < 60; ++epoch) clf.train_batch(x, y, {}, ce, adam);
  const auto preds = predict_classes(clf, x);
  int correct = 0;
  for (int i = 0; i < n; ++i) {
    correct += preds[static_cast<std::size_t>(i)] == y[static_cast<std::size_t>(i)];
  }
  EXPECT_GT(correct, n * 85 / 100);
}

}  // namespace
}  // namespace cpsguard::nn
