// LSTM layer and stacked-classifier checks, including full BPTT gradient
// verification against finite differences — the property FGSM correctness
// ultimately rests on.
#include "nn/lstm.h"

#include <gtest/gtest.h>

#include <cmath>

#include "nn/lstm_classifier.h"
#include "nn/gradcheck.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace cpsguard::nn {
namespace {

Tensor3 random_tensor(int b, int t, int f, util::Rng& rng) {
  Tensor3 x(b, t, f);
  for (float& v : x.data()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return x;
}

TEST(LstmLayer, OutputShape) {
  util::Rng rng(1);
  LstmLayer lstm(5, 8, rng);
  LstmLayer::Cache cache;
  const Tensor3 y = lstm.forward(random_tensor(3, 4, 5, rng), cache);
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(y.batch(), 3);
  EXPECT_EQ(y.time(), 4);
  EXPECT_EQ(y.features(), 8);
}

TEST(LstmLayer, HiddenStatesBounded) {
  util::Rng rng(2);
  LstmLayer lstm(4, 6, rng);
  Tensor3 x = random_tensor(2, 10, 4, rng);
  x.fill(100.0f);  // extreme inputs must not blow up h = o*tanh(c)
  const Tensor3 y = lstm.forward(x);
  for (float v : y.data()) {
    EXPECT_LE(std::fabs(v), 1.0f + 1e-5f);
    EXPECT_FALSE(std::isnan(v));
  }
}

TEST(LstmLayer, ForgetBiasInitializedToOne) {
  util::Rng rng(3);
  LstmLayer lstm(2, 4, rng);
  const auto params = lstm.params();
  // params: Wx, Wh, b. Forget block of b is [hidden, 2*hidden).
  const Matrix& b = params[2]->value;
  for (int j = 4; j < 8; ++j) EXPECT_FLOAT_EQ(b.at(0, j), 1.0f);
  for (int j = 0; j < 4; ++j) EXPECT_FLOAT_EQ(b.at(0, j), 0.0f);
}

TEST(LstmLayer, DeterministicForward) {
  util::Rng rng1(4), rng2(4);
  LstmLayer a(3, 5, rng1), b(3, 5, rng2);
  util::Rng xr(5);
  const Tensor3 x = random_tensor(2, 6, 3, xr);
  EXPECT_TRUE(a.forward(x) == b.forward(x));
}

TEST(LstmLayer, LongerHistoryChangesLastOutput) {
  // Memory check: the last-step hidden state must depend on early inputs.
  util::Rng rng(6);
  LstmLayer lstm(2, 4, rng);
  util::Rng xr(7);
  Tensor3 x = random_tensor(1, 6, 2, xr);
  const Tensor3 y1 = lstm.forward(x);
  x.at(0, 0, 0) += 2.0f;  // perturb the *first* timestep
  const Tensor3 y2 = lstm.forward(x);
  double diff = 0.0;
  for (int f = 0; f < 4; ++f) {
    diff += std::fabs(y1.at(0, 5, f) - y2.at(0, 5, f));
  }
  EXPECT_GT(diff, 1e-4);
}

TEST(LstmLayer, BackwardRequiresForward) {
  util::Rng rng(8);
  LstmLayer lstm(2, 3, rng);
  Tensor3 dh(1, 2, 3);
  EXPECT_THROW((void)lstm.backward(dh, LstmLayer::Cache{}, {}),
               ContractViolation);
}

TEST(LstmClassifier, ProbabilitiesWellFormed) {
  util::Rng rng(9);
  LstmClassifier clf(6, 4, {8, 6}, 2, rng);
  util::Rng xr(10);
  const Tensor3 x = random_tensor(5, 6, 4, xr);
  const Matrix p = clf.predict_proba(x);
  ASSERT_EQ(p.rows(), 5);
  ASSERT_EQ(p.cols(), 2);
  for (int r = 0; r < 5; ++r) {
    EXPECT_NEAR(p.at(r, 0) + p.at(r, 1), 1.0f, 1e-5);
  }
}

TEST(LstmClassifier, InputGradientMatchesFiniteDifference) {
  util::Rng rng(11);
  LstmClassifier clf(4, 3, {6, 5}, 2, rng);
  util::Rng xr(12);
  const Tensor3 x = random_tensor(3, 4, 3, xr);
  const std::vector<int> labels = {0, 1, 0};
  util::Rng probe_rng(13);
  const auto res = check_input_gradient(clf, x, labels, probe_rng, 60, 1e-2);
  EXPECT_LT(res.max_rel_error, 0.05) << "abs=" << res.max_abs_error;
}

TEST(LstmClassifier, ParamGradientsMatchFiniteDifference) {
  util::Rng rng(14);
  LstmClassifier clf(3, 2, {5}, 2, rng);
  util::Rng xr(15);
  const Tensor3 x = random_tensor(4, 3, 2, xr);
  const std::vector<int> labels = {0, 1, 1, 0};
  const SoftmaxCrossEntropy ce;
  util::Rng probe_rng(16);
  const auto res =
      check_param_gradients(clf, x, labels, {}, ce, probe_rng, 60, 1e-2);
  EXPECT_LT(res.max_rel_error, 0.05) << "abs=" << res.max_abs_error;
}

TEST(LstmClassifier, ParamGradientsWithSemanticLoss) {
  util::Rng rng(17);
  LstmClassifier clf(3, 2, {4}, 2, rng);
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

TEST(LstmClassifier, LearnsTemporalPattern) {
  // Class = whether the first-step signal exceeds the last-step signal;
  // requires using memory across the sequence.
  util::Rng rng(20);
  LstmClassifier clf(4, 1, {8}, 2, rng);
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
  for (int epoch = 0; epoch < 60; ++epoch) {
    clf.train_batch(x, y, {}, ce, adam);
  }
  const auto preds = predict_classes(clf, x);
  int correct = 0;
  for (int i = 0; i < n; ++i) {
    correct += preds[static_cast<std::size_t>(i)] == y[static_cast<std::size_t>(i)];
  }
  EXPECT_GT(correct, n * 85 / 100);
}

TEST(LstmClassifier, ArchString) {
  util::Rng rng(22);
  LstmClassifier clf(6, 9, {128, 64}, 2, rng);
  EXPECT_EQ(clf.arch(), "LSTM(128-64)");
  EXPECT_EQ(clf.time_steps(), 6);
  EXPECT_EQ(clf.features(), 9);
  EXPECT_EQ(clf.num_classes(), 2);
}

}  // namespace
}  // namespace cpsguard::nn
