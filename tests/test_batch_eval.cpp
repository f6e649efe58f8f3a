// Batched-inference contract suite: the argmax tie-break/NaN policy and
// the "deciding not to parallelize must not instantiate the pool" fix.
//
// The fixture builds its tiny monitor directly from closed-loop traces
// (no Experiment) so nothing here fans out on the shared pool — which is
// exactly what SerialConfigurationDoesNotInstantiatePool asserts.
#include "eval/batch_eval.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "monitor/dataset.h"
#include "sim/closed_loop.h"
#include "util/contracts.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace cpsguard::eval {
namespace {

const monitor::Dataset& tiny_dataset() {
  static const monitor::Dataset ds = [] {
    std::vector<sim::Trace> traces;
    auto patient = sim::make_patient(sim::Testbed::kGlucosymOpenAps);
    auto controller = sim::make_controller(sim::Testbed::kGlucosymOpenAps);
    const auto profiles =
        sim::testbed_profiles(sim::Testbed::kGlucosymOpenAps, 2, 5);
    util::Rng rng(23);
    for (int i = 0; i < 4; ++i) {
      sim::SimConfig cfg;
      cfg.steps = 50;
      cfg.inject_fault = (i % 2 == 0);
      traces.push_back(run_closed_loop(
          *patient, *controller, profiles[static_cast<std::size_t>(i % 2)],
          cfg, rng));
    }
    return monitor::build_dataset(traces, monitor::DatasetConfig{});
  }();
  return ds;
}

monitor::MlMonitor& tiny_monitor() {
  static monitor::MlMonitor mon = [] {
    monitor::MonitorConfig cfg;
    cfg.arch = monitor::Arch::kMlp;
    cfg.hidden = {16, 8};
    cfg.epochs = 2;
    cfg.seed = 23;
    monitor::MlMonitor m(cfg);
    m.train(tiny_dataset());
    return m;
  }();
  return mon;
}

// NaN end-to-end requires the LSTM: the MLP's ReLU (`v > 0 ? v : 0`)
// silently launders a NaN pre-activation into 0, while tanh/sigmoid
// propagate it to the softmax.
monitor::MlMonitor& tiny_lstm_monitor() {
  static monitor::MlMonitor mon = [] {
    monitor::MonitorConfig cfg;
    cfg.arch = monitor::Arch::kLstm;
    cfg.hidden = {8, 8};
    cfg.epochs = 1;
    cfg.seed = 23;
    monitor::MlMonitor m(cfg);
    m.train(tiny_dataset());
    return m;
  }();
  return mon;
}

constexpr float kNan = std::numeric_limits<float>::quiet_NaN();

TEST(ArgmaxRow, TiesBreakToSmallestClassIndex) {
  // Documented contract: strict `>` scan, so the first of the maxima wins
  // — an exactly-tied binary row classifies as the safe class 0, the same
  // rule as nn::predict_classes / MlMonitor::predict.
  EXPECT_EQ(argmax_row(std::vector<float>{0.5f, 0.5f}), 0);
  EXPECT_EQ(argmax_row(std::vector<float>{0.2f, 0.4f, 0.4f}), 1);
  EXPECT_EQ(argmax_row(std::vector<float>{0.4f, 0.2f, 0.4f}), 0);
  EXPECT_EQ(argmax_row(std::vector<float>{0.1f, 0.9f}), 1);
}

TEST(ArgmaxRow, NanThrowsTypedErrorInAnyPosition) {
  // Pre-fix behaviour: NaN lost every `>` comparison, so a NaN row
  // silently classified as class 0 — an accept-then-corrupt violation of
  // the PR 5 NaN policy.
  EXPECT_THROW(argmax_row(std::vector<float>{kNan, 0.5f}), CpsError);
  EXPECT_THROW(argmax_row(std::vector<float>{0.5f, kNan}), CpsError);
  EXPECT_THROW(argmax_row(std::vector<float>{kNan, kNan}), CpsError);
  EXPECT_THROW(argmax_row(std::vector<float>{}), ContractViolation);
}

TEST(BatchedPredict, NanWindowRejectedByContract) {
  monitor::MlMonitor& mon = tiny_lstm_monitor();
  const monitor::Dataset& ds = tiny_dataset();
  const std::vector<int> idx = {0, 1, 2};
  nn::Tensor3 windows = ds.x.gather(idx);
  windows.at(1, 0, 0) = kNan;  // propagates through scaler + tanh/sigmoid
  // The probability surface itself may carry NaN (predict_proba is the
  // attack/diagnostic surface) ...
  const nn::Matrix probs = mon.predict_proba(windows);
  EXPECT_TRUE(std::isnan(probs.at(1, 0)) || std::isnan(probs.at(1, 1)));
  // ... but classification must refuse it, not silently emit class 0.
  EXPECT_THROW(eval::batched_predict(mon, windows), CpsError);
}

TEST(BatchedPredict, MatchesMonitorPredictPath) {
  monitor::MlMonitor& mon = tiny_monitor();
  const monitor::Dataset& ds = tiny_dataset();
  // Same tie-break rule end to end: argmax_row == MlMonitor::predict.
  EXPECT_EQ(eval::batched_predict(mon, ds.x), mon.predict(ds.x));
}

TEST(BatchedPredict, SerialConfigurationDoesNotInstantiatePool) {
  monitor::MlMonitor& mon = tiny_monitor();
  const monitor::Dataset& ds = tiny_dataset();
  ASSERT_FALSE(util::shared_pool_initialized())
      << "test setup unexpectedly touched the shared pool";

  // Single-window predictions are too small to fan out: pool stays down.
  const std::vector<int> one = {0};
  const nn::Tensor3 single = ds.x.gather(one);
  for (int i = 0; i < 3; ++i) {
    (void)mon.predict_proba(single);
  }
  EXPECT_FALSE(util::shared_pool_initialized());

  // With parallelism capped to 1 (a serial --threads 1 run) a whole-set
  // prediction must not force-start the process-wide pool either.
  util::set_max_parallelism(1);
  (void)mon.predict_proba(ds.x);
  EXPECT_FALSE(util::shared_pool_initialized())
      << "a serial prediction instantiated the shared pool";
  util::set_max_parallelism(0);
}

}  // namespace
}  // namespace cpsguard::eval
