// Decision-rule and batched-inference suite: nn::decide's tie-break and
// non-finite refusal, MlMonitor::predict's rejection of a window that gets
// no verdict, and the "deciding not to parallelize must not instantiate
// the pool" fix.
//
// The fixture builds its tiny monitor directly from closed-loop traces
// (no Experiment) so nothing here fans out on the shared pool — which is
// exactly what SerialConfigurationDoesNotInstantiatePool asserts.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "monitor/dataset.h"
#include "monitor/ml_monitor.h"
#include "nn/matrix.h"
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

// NaN probabilities need the LSTM: the MLP's ReLU (`v > 0 ? v : 0`)
// launders a NaN pre-activation into 0, while tanh/sigmoid propagate it to
// the softmax.
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
constexpr float kInf = std::numeric_limits<float>::infinity();

// A finite window of the paper's shape (6 steps x 9 features).
const std::vector<float> kWindow(54, 0.25f);

TEST(Decide, TiesBreakToSmallestClassIndex) {
  // Strict `>` scan, so the first of the maxima wins: an exactly tied
  // binary row classifies as the safe class 0.
  EXPECT_EQ(nn::decide(kWindow, std::vector<float>{0.5f, 0.5f}), 0);
  EXPECT_EQ(nn::decide(kWindow, std::vector<float>{0.2f, 0.4f, 0.4f}), 1);
  EXPECT_EQ(nn::decide(kWindow, std::vector<float>{0.4f, 0.2f, 0.4f}), 0);
  EXPECT_EQ(nn::decide(kWindow, std::vector<float>{0.1f, 0.9f}), 1);
}

TEST(Decide, NonFiniteAnywhereIsNoVerdict) {
  // A NaN loses every `>` comparison, so a bare argmax would classify a NaN
  // row, or a window of no data, as class 0.
  for (const float bad : {kNan, kInf, -kInf}) {
    EXPECT_EQ(nn::decide(kWindow, std::vector<float>{bad, 0.5f}), nn::kNoVerdict);
    EXPECT_EQ(nn::decide(kWindow, std::vector<float>{0.5f, bad}), nn::kNoVerdict);
    EXPECT_EQ(nn::decide(kWindow, std::vector<float>{bad, bad}), nn::kNoVerdict);
    for (const std::size_t i : {std::size_t{0}, std::size_t{26}, std::size_t{53}}) {
      std::vector<float> window = kWindow;
      window[i] = bad;
      EXPECT_EQ(nn::decide(window, std::vector<float>{0.1f, 0.9f}), nn::kNoVerdict)
          << "window value " << i;
    }
  }
  EXPECT_THROW((void)nn::decide(kWindow, std::vector<float>{}), ContractViolation);
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
  EXPECT_THROW((void)mon.predict(windows), CpsError);
}

TEST(BatchedPredict, MlpNanWindowWithFiniteProbabilitiesIsRejected) {
  // The MLP's ReLU maps the NaN pre-activation to 0, so the probabilities
  // are finite: only the input check can refuse this window.
  monitor::MlMonitor& mon = tiny_monitor();
  const monitor::Dataset& ds = tiny_dataset();
  const std::vector<int> idx = {0, 1, 2};
  nn::Tensor3 windows = ds.x.gather(idx);
  windows.at(1, 2, 0) = kNan;
  const nn::Matrix probs = mon.predict_proba(windows);
  EXPECT_TRUE(std::isfinite(probs.at(1, 0)) && std::isfinite(probs.at(1, 1)));
  try {
    (void)mon.predict(windows);
    ADD_FAILURE() << "a NaN window was classified";
  } catch (const CpsError& e) {
    EXPECT_NE(std::string(e.what()).find("window 1"), std::string::npos)
        << e.what();
  }
}

TEST(BatchedPredict, MatchesMonitorPredictPath) {
  monitor::MlMonitor& mon = tiny_monitor();
  const monitor::Dataset& ds = tiny_dataset();
  // MlMonitor::predict is nn::decide over each scaled window and its row.
  const nn::Tensor3 scaled = mon.scaler().transform(ds.x);
  const nn::Matrix probs = mon.predict_proba_scaled(scaled);
  std::vector<int> decided;
  for (int r = 0; r < ds.size(); ++r) {
    decided.push_back(nn::decide(scaled.window(r), probs.row(r)));
  }
  EXPECT_EQ(mon.predict(ds.x), decided);
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
