// Layer-level forward/backward checks: analytic gradients of every
// feed-forward layer are pinned against central finite differences.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <utility>

#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/feedforward.h"
#include "nn/init.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace cpsguard::nn {
namespace {

Matrix random_matrix(int r, int c, util::Rng& rng) {
  Matrix m(r, c);
  for (float& v : m.data()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return m;
}

// Scalar objective L = sum(W_out ⊙ layer(x)) with a fixed random W_out; its
// input gradient via layer.backward must match finite differences.
double layer_objective(const Layer& layer, const Matrix& x,
                       const Matrix& w_out) {
  const Matrix y = layer.infer(x);
  return static_cast<double>(hadamard(y, w_out).sum());
}

void check_input_gradient(const Layer& layer, int in, util::Rng& rng,
                          double tol = 2e-2) {
  const Matrix x = random_matrix(3, in, rng);
  const Matrix w_out = random_matrix(3, layer.output_size(), rng);

  Matrix cache;
  layer.forward(x, cache);
  const Matrix dx = layer.backward(w_out, cache, {});

  Matrix probe = x;
  const double eps = 1e-3;
  for (int i = 0; i < probe.rows(); ++i) {
    for (int j = 0; j < probe.cols(); ++j) {
      const float orig = probe.at(i, j);
      probe.at(i, j) = orig + static_cast<float>(eps);
      const double lp = layer_objective(layer, probe, w_out);
      probe.at(i, j) = orig - static_cast<float>(eps);
      const double lm = layer_objective(layer, probe, w_out);
      probe.at(i, j) = orig;
      const double numeric = (lp - lm) / (2 * eps);
      EXPECT_NEAR(dx.at(i, j), numeric, tol) << "input grad at " << i << "," << j;
    }
  }
}

TEST(Dense, ForwardComputesAffine) {
  util::Rng rng(1);
  Dense d(2, 2, rng);
  // Overwrite with known weights for a closed-form check.
  auto params = d.params();
  params[0]->value = Matrix::from_rows({{1, 2}, {3, 4}});
  params[1]->value = Matrix::from_rows({{10, 20}});
  Matrix cache;
  const Matrix y = d.forward(Matrix::from_rows({{1, 1}}), cache);
  EXPECT_FLOAT_EQ(y.at(0, 0), 1 + 3 + 10);
  EXPECT_FLOAT_EQ(y.at(0, 1), 2 + 4 + 20);
}

TEST(Dense, BackwardInputGradientMatchesFiniteDifference) {
  util::Rng rng(2);
  Dense d(5, 4, rng);
  check_input_gradient(d, 5, rng);
}

TEST(Dense, BackwardAccumulatesParamGradients) {
  util::Rng rng(3);
  Dense d(3, 2, rng);
  const Matrix x = random_matrix(4, 3, rng);
  const Matrix dy = random_matrix(4, 2, rng);
  Matrix cache;
  d.forward(x, cache);
  d.backward(dy, cache, d.params());
  const Matrix g1 = d.params()[0]->grad;
  d.forward(x, cache);
  d.backward(dy, cache, d.params());  // second call without zero_grad accumulates
  const Matrix g2 = d.params()[0]->grad;
  for (int i = 0; i < g1.rows(); ++i) {
    for (int j = 0; j < g1.cols(); ++j) {
      EXPECT_NEAR(g2.at(i, j), 2.0f * g1.at(i, j), 1e-4);
    }
  }
}

TEST(Dense, WeightGradientMatchesFiniteDifference) {
  util::Rng rng(4);
  Dense d(3, 2, rng);
  const Matrix x = random_matrix(2, 3, rng);
  const Matrix w_out = random_matrix(2, 2, rng);

  d.params()[0]->zero_grad();
  d.params()[1]->zero_grad();
  Matrix cache;
  d.forward(x, cache);
  d.backward(w_out, cache, d.params());
  const Matrix dw = d.params()[0]->grad;
  const Matrix db = d.params()[1]->grad;

  const double eps = 1e-3;
  Matrix& w = d.params()[0]->value;
  for (int i = 0; i < w.rows(); ++i) {
    for (int j = 0; j < w.cols(); ++j) {
      const float orig = w.at(i, j);
      w.at(i, j) = orig + static_cast<float>(eps);
      const double lp = layer_objective(d, x, w_out);
      w.at(i, j) = orig - static_cast<float>(eps);
      const double lm = layer_objective(d, x, w_out);
      w.at(i, j) = orig;
      EXPECT_NEAR(dw.at(i, j), (lp - lm) / (2 * eps), 2e-2);
    }
  }
  Matrix& b = d.params()[1]->value;
  for (int j = 0; j < b.cols(); ++j) {
    const float orig = b.at(0, j);
    b.at(0, j) = orig + static_cast<float>(eps);
    const double lp = layer_objective(d, x, w_out);
    b.at(0, j) = orig - static_cast<float>(eps);
    const double lm = layer_objective(d, x, w_out);
    b.at(0, j) = orig;
    EXPECT_NEAR(db.at(0, j), (lp - lm) / (2 * eps), 2e-2);
  }
}

TEST(Relu, ForwardClampsNegatives) {
  Relu r(3);
  Matrix cache;
  const Matrix y = r.forward(Matrix::from_rows({{-1, 0, 2}}), cache);
  EXPECT_TRUE(cache == y);
  EXPECT_FLOAT_EQ(y.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(y.at(0, 2), 2.0f);
}

TEST(Relu, BackwardMasksGradient) {
  Relu r(2);
  Matrix cache;
  r.forward(Matrix::from_rows({{-1, 3}}), cache);
  const Matrix dx = r.backward(Matrix::from_rows({{5, 7}}), cache, {});
  EXPECT_FLOAT_EQ(dx.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(dx.at(0, 1), 7.0f);
}

TEST(Sigmoid, StableForExtremeInputs) {
  EXPECT_NEAR(sigmoid(50.0f), 1.0f, 1e-6);
  EXPECT_NEAR(sigmoid(-50.0f), 0.0f, 1e-6);
  EXPECT_FALSE(std::isnan(sigmoid(-1000.0f)));
}

TEST(FeedForward, ChainsLayersAndValidatesShapes) {
  util::Rng rng(11);
  FeedForward net;
  net.add(std::make_unique<Dense>(4, 8, rng));
  net.add(std::make_unique<Relu>(8));
  net.add(std::make_unique<Dense>(8, 2, rng));
  EXPECT_EQ(net.input_size(), 4);
  EXPECT_EQ(net.output_size(), 2);
  EXPECT_EQ(net.layer_count(), 3u);
  FeedForward::Cache cache;
  const Matrix y = net.forward(random_matrix(5, 4, rng), cache);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(y.rows(), 5);
  EXPECT_EQ(y.cols(), 2);
}

TEST(FeedForward, RejectsMismatchedLayer) {
  util::Rng rng(12);
  FeedForward net;
  net.add(std::make_unique<Dense>(4, 8, rng));
  EXPECT_THROW(net.add(std::make_unique<Dense>(9, 2, rng)), ContractViolation);
}

TEST(FeedForward, EndToEndInputGradient) {
  util::Rng rng(13);
  FeedForward net;
  net.add(std::make_unique<Dense>(3, 6, rng));
  net.add(std::make_unique<Relu>(6));
  net.add(std::make_unique<Dense>(6, 2, rng));

  const Matrix x = random_matrix(2, 3, rng);
  const Matrix w_out = random_matrix(2, 2, rng);
  FeedForward::Cache cache;
  net.forward(x, cache);
  const Matrix dx = net.backward(w_out, cache, net.params());

  const double eps = 1e-3;
  Matrix probe = x;
  for (int i = 0; i < probe.rows(); ++i) {
    for (int j = 0; j < probe.cols(); ++j) {
      const float orig = probe.at(i, j);
      probe.at(i, j) = orig + static_cast<float>(eps);
      const double lp = static_cast<double>(hadamard(net.infer(probe), w_out).sum());
      probe.at(i, j) = orig - static_cast<float>(eps);
      const double lm = static_cast<double>(hadamard(net.infer(probe), w_out).sum());
      probe.at(i, j) = orig;
      EXPECT_NEAR(dx.at(i, j), (lp - lm) / (2 * eps), 2e-2);
    }
  }
}

// The input-only backward (no grads) returns the same dx bits as the one
// that accumulates, and leaves every Param::grad untouched.
TEST(FeedForward, InputOnlyBackwardMatchesFullAndWritesNoGrad) {
  util::Rng rng(16);
  FeedForward net;
  net.add(std::make_unique<Dense>(5, 7, rng));
  net.add(std::make_unique<Relu>(7));
  net.add(std::make_unique<Dense>(7, 3, rng));
  const Matrix x = random_matrix(4, 5, rng);
  const Matrix dy = random_matrix(4, 3, rng);
  FeedForward::Cache cache;
  net.forward(x, cache);
  const Matrix input_only = std::as_const(net).backward(dy, cache, {});
  for (const Param* p : net.params()) EXPECT_EQ(p->grad.max_abs(), 0.0f);
  const Matrix full = net.backward(dy, cache, net.params());
  EXPECT_TRUE(input_only == full);
  EXPECT_GT(net.params()[0]->grad.max_abs(), 0.0f);
}

// A backward only writes into the Param pointers of its own layer.
TEST(Dense, BackwardRejectsAnotherLayersParams) {
  util::Rng rng(17);
  Dense a(3, 2, rng);
  Dense b(3, 2, rng);
  Matrix cache;
  a.forward(random_matrix(2, 3, rng), cache);
  const Matrix dy = random_matrix(2, 2, rng);
  EXPECT_THROW((void)a.backward(dy, cache, b.params()), ContractViolation);
  for (const Param* p : b.params()) EXPECT_EQ(p->grad.max_abs(), 0.0f);
}

TEST(Init, GlorotWithinLimit) {
  util::Rng rng(14);
  const Matrix w = glorot_uniform(10, 20, rng);
  const double limit = std::sqrt(6.0 / 30.0);
  for (float v : w.data()) {
    EXPECT_LE(std::fabs(v), limit + 1e-6);
  }
}

TEST(Init, HeNormalStddev) {
  util::Rng rng(15);
  const Matrix w = he_normal(100, 200, rng);
  double sum = 0.0, sq = 0.0;
  for (float v : w.data()) {
    sum += v;
    sq += static_cast<double>(v) * v;
  }
  const double n = w.size();
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(std::sqrt(var), std::sqrt(2.0 / 100.0), 0.01);
}

}  // namespace
}  // namespace cpsguard::nn
