#include "nn/classifier.h"

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <span>
#include <thread>
#include <utility>

#include "nn/gradcheck.h"
#include "nn/gru_classifier.h"
#include "nn/lstm_classifier.h"
#include "nn/simd_kernels.h"
#include "obs/metrics.h"
#include "util/contracts.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace cpsguard::nn {
namespace {

Tensor3 random_tensor(int b, int t, int f, util::Rng& rng) {
  Tensor3 x(b, t, f);
  for (float& v : x.data()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return x;
}

// Linearly separable toy task: class = sign of the mean of the window.
void make_threshold_task(int n, int t, int f, Tensor3& x, std::vector<int>& y,
                         util::Rng& rng) {
  x = random_tensor(n, t, f, rng);
  y.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    double mean = 0.0;
    for (int tt = 0; tt < t; ++tt) {
      for (int ff = 0; ff < f; ++ff) mean += x.at(i, tt, ff);
    }
    y[static_cast<std::size_t>(i)] = mean > 0.0 ? 1 : 0;
  }
}

TEST(MlpClassifier, ShapesAndArch) {
  util::Rng rng(1);
  MlpClassifier clf(6, 9, {256, 128}, 2, rng);
  EXPECT_EQ(clf.arch(), "MLP(256-128)");
  EXPECT_EQ(clf.time_steps(), 6);
  EXPECT_EQ(clf.features(), 9);
  util::Rng xr(2);
  const Matrix p = clf.predict_proba(random_tensor(3, 6, 9, xr));
  ASSERT_EQ(p.rows(), 3);
  ASSERT_EQ(p.cols(), 2);
  for (int r = 0; r < 3; ++r) EXPECT_NEAR(p.at(r, 0) + p.at(r, 1), 1.0f, 1e-5);
}

TEST(MlpClassifier, RejectsWrongWindowShape) {
  util::Rng rng(3);
  MlpClassifier clf(6, 9, {16}, 2, rng);
  util::Rng xr(4);
  const Tensor3 bad = random_tensor(2, 5, 9, xr);
  EXPECT_THROW(clf.predict_proba(bad), ContractViolation);
}

TEST(MlpClassifier, LearnsThresholdTask) {
  util::Rng rng(5);
  MlpClassifier clf(3, 2, {16}, 2, rng);
  Tensor3 x;
  std::vector<int> y;
  util::Rng data_rng(6);
  make_threshold_task(256, 3, 2, x, y, data_rng);
  Adam adam(0.01);
  const SoftmaxCrossEntropy ce;
  for (int epoch = 0; epoch < 40; ++epoch) clf.train_batch(x, y, {}, ce, adam);
  const auto preds = predict_classes(clf, x);
  int correct = 0;
  for (std::size_t i = 0; i < preds.size(); ++i) correct += preds[i] == y[i];
  EXPECT_GT(correct, 256 * 9 / 10);
}

TEST(MlpClassifier, InputGradientMatchesFiniteDifference) {
  util::Rng rng(7);
  MlpClassifier clf(3, 4, {10, 6}, 2, rng);
  util::Rng xr(8);
  const Tensor3 x = random_tensor(3, 3, 4, xr);
  const std::vector<int> labels = {1, 0, 1};
  util::Rng probe_rng(9);
  const auto res = check_input_gradient(clf, x, labels, probe_rng, 50, 1e-2);
  EXPECT_LT(res.max_rel_error, 0.05) << "abs=" << res.max_abs_error;
}

TEST(MlpClassifier, ParamGradientsWithSemanticLoss) {
  util::Rng rng(10);
  MlpClassifier clf(2, 3, {8}, 2, rng);
  util::Rng xr(11);
  const Tensor3 x = random_tensor(4, 2, 3, xr);
  const std::vector<int> labels = {0, 1, 0, 1};
  const std::vector<float> sem = {1.0f, 1.0f, 0.0f, 0.0f};
  const SemanticLoss loss(0.5);
  util::Rng probe_rng(12);
  const auto res =
      check_param_gradients(clf, x, labels, sem, loss, probe_rng, 50, 1e-2);
  EXPECT_LT(res.max_rel_error, 0.06) << "abs=" << res.max_abs_error;
}

TEST(Classifier, TrainBatchReducesLoss) {
  util::Rng rng(13);
  MlpClassifier clf(2, 2, {12}, 2, rng);
  Tensor3 x;
  std::vector<int> y;
  util::Rng data_rng(14);
  make_threshold_task(128, 2, 2, x, y, data_rng);
  Adam adam(0.01);
  const SoftmaxCrossEntropy ce;
  const double first = clf.train_batch(x, y, {}, ce, adam);
  double last = first;
  for (int i = 0; i < 30; ++i) last = clf.train_batch(x, y, {}, ce, adam);
  EXPECT_LT(last, first * 0.7);
}

TEST(Classifier, ZeroGradClearsAccumulation) {
  util::Rng rng(15);
  MlpClassifier clf(2, 2, {4}, 2, rng);
  util::Rng xr(16);
  const Tensor3 x = random_tensor(2, 2, 2, xr);
  const std::vector<int> labels = {0, 1};
  const SoftmaxCrossEntropy ce;
  clf.accumulate_gradients(x, labels, {}, ce);
  clf.zero_grad();
  for (Param* p : clf.params()) {
    EXPECT_FLOAT_EQ(p->grad.max_abs(), 0.0f);
  }
}

TEST(Classifier, InputGradientDoesNotDisturbParams) {
  util::Rng rng(17);
  MlpClassifier clf(2, 2, {4}, 2, rng);
  util::Rng xr(18);
  const Tensor3 x = random_tensor(2, 2, 2, xr);
  const std::vector<int> labels = {0, 1};
  std::vector<Matrix> before;
  for (Param* p : clf.params()) before.push_back(p->value);
  (void)clf.loss_input_gradient(x, labels);
  const auto params = clf.params();
  for (std::size_t i = 0; i < params.size(); ++i) {
    EXPECT_TRUE(params[i]->value == before[i]);
    EXPECT_FLOAT_EQ(params[i]->grad.max_abs(), 0.0f);
  }
}

// loss_input_gradient leaves every Param::grad exactly as it was, even when
// the grads held an earlier accumulation: the const path computes no
// weight-gradient product anywhere, so nothing needs zeroing afterwards.
TEST(Classifier, InputGradientLeavesEveryParamGradExactlyZero) {
  util::Rng rng(21);
  std::vector<std::unique_ptr<Classifier>> clfs;
  clfs.push_back(std::make_unique<MlpClassifier>(3, 4, std::vector<int>{8}, 2, rng));
  clfs.push_back(std::make_unique<LstmClassifier>(3, 4, std::vector<int>{8, 6}, 2, rng));
  clfs.push_back(std::make_unique<GruClassifier>(3, 4, std::vector<int>{8, 6}, 2, rng));
  util::Rng xr(22);
  const Tensor3 x = random_tensor(5, 3, 4, xr);
  const std::vector<int> labels = {0, 1, 1, 0, 1};
  const SoftmaxCrossEntropy ce;
  for (const auto& clf : clfs) {
    (void)std::as_const(*clf).loss_input_gradient(x, labels);
    for (Param* p : clf->params()) {
      for (const float g : p->grad.data()) {
        ASSERT_EQ(g, 0.0f) << clf->arch() << " " << p->name;
      }
    }
    clf->accumulate_gradients(x, labels, {}, ce);
    std::vector<Matrix> accumulated;
    for (Param* p : clf->params()) accumulated.push_back(p->grad);
    (void)std::as_const(*clf).loss_input_gradient(x, labels);
    const auto ps = clf->params();
    for (std::size_t i = 0; i < ps.size(); ++i) {
      EXPECT_TRUE(ps[i]->grad == accumulated[i]) << clf->arch() << " " << ps[i]->name;
    }
  }
}

// The input-only BPTT returns the same dx bits as the full one.
template <typename Cell>
void expect_input_only_backward_matches_full() {
  util::Rng rng(23);
  Cell cell(4, 6, rng);
  util::Rng xr(24);
  const Tensor3 x = random_tensor(9, 5, 4, xr);
  const Tensor3 dh = random_tensor(9, 5, 6, xr);
  typename Cell::Cache cache;
  cell.forward(x, cache);
  const Tensor3 input_only = std::as_const(cell).backward(dh, cache, {});
  for (Param* p : cell.params()) EXPECT_EQ(p->grad.max_abs(), 0.0f) << p->name;
  const Tensor3 full = cell.backward(dh, cache, cell.params());
  EXPECT_TRUE(std::equal(full.data().begin(), full.data().end(),
                         input_only.data().begin()));
  for (Param* p : cell.params()) EXPECT_GT(p->grad.max_abs(), 0.0f) << p->name;
}

TEST(RecurrentCells, InputOnlyBackwardMatchesFullBackward) {
  expect_input_only_backward_matches_full<LstmLayer>();
  expect_input_only_backward_matches_full<GruLayer>();
}

// The Fig. 9 test set's 870 rows in kChunkRows-row chunks (six full chunks
// and a 102-row tail), each with the whole set's 1/N: every chunk's rows of
// dx equal the whole-set gradient's bit for bit. One cache is reused across
// the chunks, as a pool task reuses its own.
TEST(Classifier, ChunkedInputGradientIsBitIdenticalToWholeSet) {
  constexpr int kRows = 870;
  static_assert(kRows / kChunkRows == 6 && kRows % kChunkRows == 102);
  util::Rng rng(25);
  std::vector<std::unique_ptr<Classifier>> clfs;
  clfs.push_back(std::make_unique<MlpClassifier>(6, 9, std::vector<int>{256, 128}, 2, rng));
  clfs.push_back(std::make_unique<LstmClassifier>(6, 9, std::vector<int>{128, 64}, 2, rng));
  clfs.push_back(std::make_unique<GruClassifier>(6, 9, std::vector<int>{128, 64}, 2, rng));
  util::Rng xr(26);
  const Tensor3 x = random_tensor(kRows, 6, 9, xr);
  std::vector<int> labels(kRows);
  for (int i = 0; i < kRows; ++i) labels[static_cast<std::size_t>(i)] = (i * 7) % 3 == 0;
  for (const auto& owned : clfs) {
    const Classifier& clf = *owned;
    const Tensor3 whole = clf.loss_input_gradient(x, labels);
    const float inv_n = 1.0f / static_cast<float>(kRows);
    ForwardCache cache;
    for (int r0 = 0; r0 < kRows; r0 += kChunkRows) {
      const int n = std::min(kChunkRows, kRows - r0);
      std::vector<int> ids(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) ids[static_cast<std::size_t>(i)] = r0 + i;
      const Tensor3 part = clf.input_gradient(
          x.gather(ids), std::span<const int>(labels).subspan(r0, n), inv_n,
          cache);
      const auto want = whole.data().subspan(
          static_cast<std::size_t>(r0) * 6 * 9, part.data().size());
      EXPECT_TRUE(std::equal(want.begin(), want.end(), part.data().begin()))
          << clf.arch() << " chunk at row " << r0;
    }
  }
}

std::vector<std::uint32_t> bits(std::span<const float> v) {
  std::vector<std::uint32_t> out(v.size());
  std::memcpy(out.data(), v.data(), v.size() * sizeof(float));
  return out;
}

// Sets the process-wide parallelism cap for one scope.
struct ScopedParallelism {
  explicit ScopedParallelism(std::size_t n) { util::set_max_parallelism(n); }
  ~ScopedParallelism() { util::set_max_parallelism(0); }
  ScopedParallelism(const ScopedParallelism&) = delete;
  ScopedParallelism& operator=(const ScopedParallelism&) = delete;
};

// The paper-size MLP spends 2·(54·256 + 256·128 + 128·2) = 93 696 matmul
// flops per row, so its Dense-ReLU stack passes the fan-out rule from 43
// rows (42 stays on the per-layer path) and never below 2·kRowsPerShard =
// 32. Every batch size around those edges, under every SIMD kernel set and
// parallelism cap, gives each row exactly the bits it gets alone. A NaN
// input row reaches only its own row (where ReLU maps the NaN hidden units
// to 0, so the row it gets alone is finite).
TEST(MlpClassifier, RowBlockFanOutIsBitIdenticalToEachRowAlone) {
  constexpr int kRows = 870;
  constexpr int kNanRow = 37;
  util::Rng rng(41);
  const MlpClassifier clf(6, 9, {256, 128}, 2, rng);
  util::Rng xr(42);
  Tensor3 x = random_tensor(kRows, 6, 9, xr);
  x.at(kNanRow, 2, 4) = std::numeric_limits<float>::quiet_NaN();
  const obs::Counter& fan_outs =
      obs::Registry::instance().counter("parallel_for.calls");
  for (const SimdKernels& kernels : supported_simd_kernels()) {
    SCOPED_TRACE(kernels.name);
    const ScopedSimdKernels use(kernels);
    std::vector<Matrix> alone;
    for (int r = 0; r < kRows; ++r) {
      const int one[] = {r};
      alone.push_back(clf.predict_proba(x.gather(one)));
    }
    for (const std::size_t threads : {1, 2, 4}) {
      const ScopedParallelism cap(threads);
      for (const int n : {1, 31, 32, 33, 42, 43, 256, 257, 870}) {
        std::vector<int> ids(static_cast<std::size_t>(n));
        std::iota(ids.begin(), ids.end(), 0);
        const std::uint64_t before = fan_outs.value();
        const Matrix batch = clf.predict_proba(x.gather(ids));
        if (threads > 1 && std::thread::hardware_concurrency() > 1) {
          // One fan-out for the whole stack, none per layer.
          EXPECT_EQ(fan_outs.value() - before, n >= 43 ? 1u : 0u)
              << threads << " threads, n = " << n;
        }
        ASSERT_EQ(batch.rows(), n);
        for (int r = 0; r < n; ++r) {
          ASSERT_EQ(bits(batch.row(r)), bits(alone[static_cast<std::size_t>(r)].row(0)))
              << threads << " threads, n = " << n << ", row " << r;
        }
      }
    }
  }
}

// Allocator reuse: a warm 256-row predict, fanned out over two threads,
// allocates only small per-block intermediates that the heap hands back
// without fresh pages. Counts the minor faults of this process only.
TEST(MlpClassifier, WarmFullBatchPredictTakesNoPageFaults) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "a sanitizer allocator quarantines freed blocks";
#endif
  util::Rng rng(43);
  const MlpClassifier clf(6, 9, {256, 128}, 2, rng);
  util::Rng xr(44);
  const Tensor3 x = random_tensor(256, 6, 9, xr);
  const ScopedParallelism cap(2);
  for (int i = 0; i < 50; ++i) (void)clf.predict_proba(x);
  const auto minor_faults = [] {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_minflt;
  };
  constexpr int kPredicts = 200;
  const long before = minor_faults();
  for (int i = 0; i < kPredicts; ++i) (void)clf.predict_proba(x);
  EXPECT_LT(minor_faults() - before, kPredicts);
}

TEST(PredictClasses, PicksArgmax) {
  util::Rng rng(19);
  MlpClassifier clf(1, 2, {4}, 2, rng);
  util::Rng xr(20);
  const Tensor3 x = random_tensor(6, 1, 2, xr);
  const Matrix p = clf.predict_proba(x);
  const auto preds = predict_classes(clf, x);
  for (int i = 0; i < 6; ++i) {
    const int want = p.at(i, 1) > p.at(i, 0) ? 1 : 0;
    EXPECT_EQ(preds[static_cast<std::size_t>(i)], want);
  }
}

}  // namespace
}  // namespace cpsguard::nn
