#include "core/resilient_monitor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "core/online_monitor.h"
#include "util/contracts.h"

namespace cpsguard::core {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

ExperimentConfig tiny_config() {
  ExperimentConfig cfg;
  cfg.campaign.patients = 3;
  cfg.campaign.sims_per_patient = 3;
  cfg.campaign.trace_steps = 60;
  cfg.campaign.seed = 11;
  cfg.epochs = 2;
  cfg.cache_dir = "";
  return cfg;
}

/// A clean, rule-safe record: BG near target with a tiny per-step wobble so
/// the flatline detector never sees exact repeats.
sim::StepRecord clean_record(int step) {
  sim::StepRecord r;
  r.step = step;
  r.sensor_bg = 120.0 + 0.25 * (step % 7);
  r.true_bg = r.sensor_bg;
  r.iob = 1.0;
  r.d_bg = 0.0;
  r.d_iob = 0.0;
  r.action = sim::ControlAction::kKeepInsulin;
  return r;
}

/// A valid record that fires Table I rule 10 (BG < 70, insulin not stopped).
sim::StepRecord unsafe_record(int step) {
  sim::StepRecord r = clean_record(step);
  r.sensor_bg = 60.0 + 0.1 * (step % 5);
  r.true_bg = r.sensor_bg;
  return r;
}

sim::StepRecord nan_record(int step) {
  sim::StepRecord r = clean_record(step);
  r.sensor_bg = kNan;
  return r;
}

// The trained monitor is expensive to build; share one across the suite.
class ResilientMonitorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    exp_ = new Experiment(tiny_config());
    ml_ = &exp_->monitor({monitor::Arch::kMlp, false});
  }
  static void TearDownTestSuite() {
    delete exp_;
    exp_ = nullptr;
    ml_ = nullptr;
  }

  [[nodiscard]] static ResilientConfig config() {
    ResilientConfig rc;
    rc.window = exp_->config().dataset.window;
    return rc;
  }

  /// Drive `n` clean cycles starting at step `from`; returns the last verdict.
  static ResilientVerdict feed_clean(ResilientMonitor& rm, int from, int n) {
    ResilientVerdict v;
    for (int t = from; t < from + n; ++t) v = rm.step(clean_record(t));
    return v;
  }

  static Experiment* exp_;
  static monitor::MlMonitor* ml_;
};

Experiment* ResilientMonitorTest::exp_ = nullptr;
monitor::MlMonitor* ResilientMonitorTest::ml_ = nullptr;

TEST_F(ResilientMonitorTest, StartsMlActiveAndStaysOnCleanStream) {
  ResilientMonitor rm(*ml_, config());
  const int window = config().window;
  for (int t = 0; t < window - 1; ++t) {
    const auto v = rm.step(clean_record(t));
    EXPECT_EQ(v.state, MonitorState::kMlActive);
    EXPECT_FALSE(v.ready) << "cycle " << t;  // window still filling
  }
  const auto v = rm.step(clean_record(window - 1));
  EXPECT_EQ(v.state, MonitorState::kMlActive);
  EXPECT_TRUE(v.ready);
  EXPECT_FALSE(v.from_fallback);
  EXPECT_GE(v.p_unsafe, 0.0);
  EXPECT_LE(v.p_unsafe, 1.0);
  EXPECT_EQ(rm.telemetry().fallback_entries, 0);
  EXPECT_EQ(rm.telemetry().invalid_samples, 0);
}

TEST_F(ResilientMonitorTest, MlPathMatchesOnlineMonitorOnCleanStream) {
  const int window = config().window;
  ResilientMonitor rm(*ml_, config());
  OnlineMonitor om(*ml_, window);
  for (int t = 0; t < 30; ++t) {
    const sim::StepRecord r = clean_record(t);
    const auto rv = rm.step(r);
    const auto ov = om.step(r);
    ASSERT_EQ(rv.ready, ov.ready) << "cycle " << t;
    if (!rv.ready) continue;
    EXPECT_EQ(rv.prediction, ov.prediction) << "cycle " << t;
    EXPECT_DOUBLE_EQ(rv.p_unsafe, ov.p_unsafe) << "cycle " << t;
  }
}

TEST_F(ResilientMonitorTest, NaNSampleDegradesToRuleFallback) {
  ResilientMonitor rm(*ml_, config());
  feed_clean(rm, 0, config().window);
  const auto v = rm.step(nan_record(100));
  EXPECT_EQ(v.state, MonitorState::kDegraded);
  EXPECT_EQ(v.sample_fault, SampleFault::kNonFinite);
  EXPECT_TRUE(v.ready);
  EXPECT_TRUE(v.from_fallback);  // rule verdict on the last valid context
  EXPECT_EQ(v.prediction, 0);    // last valid context was rule-safe
  EXPECT_EQ(rm.telemetry().fallback_entries, 1);
  EXPECT_EQ(rm.telemetry().non_finite, 1);
}

TEST_F(ResilientMonitorTest, NonFiniteUncheckedFeatureGetsRuleVerdictInPlace) {
  // The validator checks the sensor fields, not the commanded rate. A NaN
  // rate reaches the ML window; nn::decide refuses every window holding it,
  // and each of those cycles takes its own Table-I verdict with no state
  // change.
  ResilientMonitor rm(*ml_, config());
  const int window = config().window;
  feed_clean(rm, 0, window);
  sim::StepRecord faulted = unsafe_record(window);
  faulted.commanded_rate = kNan;
  const auto v = rm.step(faulted);
  EXPECT_EQ(v.state, MonitorState::kMlActive);
  EXPECT_EQ(v.sample_fault, SampleFault::kNone);
  EXPECT_TRUE(v.ready);
  EXPECT_TRUE(v.from_fallback);
  EXPECT_EQ(v.prediction, 1);  // rule 10 fires on this cycle's record
  for (int t = window + 1; t < 3 * window; ++t) {
    const auto c = rm.step(clean_record(t));
    EXPECT_EQ(c.state, MonitorState::kMlActive) << "cycle " << t;
    EXPECT_TRUE(c.ready) << "cycle " << t;
    // The faulted record leaves the window after `window` cycles.
    EXPECT_EQ(c.from_fallback, t < 2 * window) << "cycle " << t;
    if (c.from_fallback) {
      EXPECT_EQ(c.prediction, 0) << "cycle " << t;
    }
  }
  EXPECT_EQ(rm.telemetry().fallback_entries, 0);
  EXPECT_EQ(rm.telemetry().invalid_samples, 0);
  EXPECT_EQ(rm.telemetry().cycles_ml, rm.telemetry().cycles_total);
}

TEST_F(ResilientMonitorTest, OutOfRangeSampleDegrades) {
  ResilientMonitor rm(*ml_, config());
  feed_clean(rm, 0, config().window);
  sim::StepRecord r = clean_record(100);
  r.sensor_bg = 700.0;  // beyond any CGM ceiling
  const auto v = rm.step(r);
  EXPECT_EQ(v.state, MonitorState::kDegraded);
  EXPECT_EQ(v.sample_fault, SampleFault::kOutOfRange);
  EXPECT_EQ(rm.telemetry().out_of_range, 1);
}

TEST_F(ResilientMonitorTest, ImplausibleTrendDegrades) {
  ResilientMonitor rm(*ml_, config());
  feed_clean(rm, 0, config().window);
  sim::StepRecord r = clean_record(100);
  r.d_bg = 40.0;  // mg/dL per min: physiologically impossible slew
  const auto v = rm.step(r);
  EXPECT_EQ(v.state, MonitorState::kDegraded);
  EXPECT_EQ(v.sample_fault, SampleFault::kImplausibleTrend);
  EXPECT_EQ(rm.telemetry().implausible_trend, 1);
}

TEST_F(ResilientMonitorTest, FlatlineDegradesAfterConfiguredRun) {
  const ResilientConfig rc = config();
  ResilientMonitor rm(*ml_, rc);
  sim::StepRecord frozen = clean_record(0);
  for (int t = 0; t < rc.validator.flatline_cycles - 1; ++t) {
    const auto v = rm.step(frozen);
    EXPECT_EQ(v.state, MonitorState::kMlActive) << "cycle " << t;
  }
  const auto v = rm.step(frozen);  // run length now hits the threshold
  EXPECT_EQ(v.state, MonitorState::kDegraded);
  EXPECT_EQ(v.sample_fault, SampleFault::kFlatline);
  EXPECT_EQ(rm.telemetry().flatline, 1);
}

TEST_F(ResilientMonitorTest, FallbackFlagsUnsafeContext) {
  ResilientMonitor rm(*ml_, config());
  feed_clean(rm, 0, config().window);
  rm.step(nan_record(100));  // degrade
  // A valid hypoglycemic sample with insulin kept fires rule 10.
  const auto v = rm.step(unsafe_record(101));
  EXPECT_EQ(v.state, MonitorState::kDegraded);
  EXPECT_TRUE(v.from_fallback);
  EXPECT_EQ(v.prediction, 1);
  EXPECT_DOUBLE_EQ(v.p_unsafe, 1.0);
}

TEST_F(ResilientMonitorTest, ConsecutiveInvalidEntersFailSafe) {
  const ResilientConfig rc = config();
  ResilientMonitor rm(*ml_, rc);
  feed_clean(rm, 0, rc.window);
  ResilientVerdict v;
  for (int i = 0; i < rc.fail_safe_after - 1; ++i) {
    v = rm.step(nan_record(100 + i));
    EXPECT_EQ(v.state, MonitorState::kDegraded) << "invalid cycle " << i;
  }
  v = rm.step(nan_record(100 + rc.fail_safe_after - 1));
  EXPECT_EQ(v.state, MonitorState::kFailSafe);
  EXPECT_TRUE(v.ready);
  EXPECT_EQ(v.prediction, 1);  // alarm-on
  EXPECT_DOUBLE_EQ(v.p_unsafe, 1.0);
  EXPECT_EQ(rm.telemetry().fail_safe_entries, 1);

  // Stays alarm-on while the stream remains corrupted.
  v = rm.step(nan_record(200));
  EXPECT_EQ(v.state, MonitorState::kFailSafe);
  EXPECT_EQ(v.prediction, 1);
}

TEST_F(ResilientMonitorTest, FailSafeExitsToDegradedOnFirstValidSample) {
  const ResilientConfig rc = config();
  ResilientMonitor rm(*ml_, rc);
  feed_clean(rm, 0, rc.window);
  for (int i = 0; i < rc.fail_safe_after; ++i) rm.step(nan_record(100 + i));
  ASSERT_EQ(rm.state(), MonitorState::kFailSafe);
  const auto v = rm.step(clean_record(200));
  EXPECT_EQ(v.state, MonitorState::kDegraded);
  EXPECT_TRUE(v.from_fallback);
}

TEST_F(ResilientMonitorTest, HysteresisRearmsMlAfterCleanRun) {
  const ResilientConfig rc = config();
  ResilientMonitor rm(*ml_, rc);
  feed_clean(rm, 0, rc.window);
  rm.step(nan_record(100));  // degrade
  const int rearm = std::max(rc.rearm_clean_cycles, rc.window);
  ResilientVerdict v;
  for (int i = 0; i < rearm - 1; ++i) {
    v = rm.step(clean_record(200 + i));
    EXPECT_EQ(v.state, MonitorState::kDegraded) << "clean cycle " << i;
    EXPECT_TRUE(v.from_fallback);
  }
  v = rm.step(clean_record(200 + rearm - 1));
  EXPECT_EQ(v.state, MonitorState::kMlActive);  // re-armed
  EXPECT_TRUE(v.ready);                         // window refilled: ML verdict
  EXPECT_FALSE(v.from_fallback);
  EXPECT_EQ(rm.telemetry().recoveries, 1);
  // Latency: the invalid entry cycle plus the clean refill run.
  EXPECT_EQ(rm.telemetry().recovery_latency_sum, rearm);
  EXPECT_DOUBLE_EQ(rm.telemetry().mean_recovery_latency(),
                   static_cast<double>(rearm));
}

TEST_F(ResilientMonitorTest, RearmedVerdictsMatchFreshOnlineMonitor) {
  // A re-arm threshold past the window makes the ring wrap during the
  // refill. Every ML verdict after re-arm must equal, bit for bit, that of
  // an OnlineMonitor reset at the fault and fed the same clean samples.
  ResilientConfig rc = config();
  rc.rearm_clean_cycles = rc.window + 3;
  ResilientMonitor rm(*ml_, rc);
  OnlineMonitor om(*ml_, rc.window);
  for (int t = 0; t < rc.window + 2; ++t) {
    const sim::StepRecord r = clean_record(t);
    rm.step(r);
    om.step(r);
  }
  ASSERT_EQ(rm.step(nan_record(100)).state, MonitorState::kDegraded);
  om.reset();

  int ml_verdicts = 0;
  for (int i = 0; i < rc.rearm_clean_cycles + 10; ++i) {
    // Valid samples, mixed so that every refilled window differs.
    const sim::StepRecord r =
        i % 3 == 0 ? unsafe_record(200 + i) : clean_record(200 + i);
    const auto rv = rm.step(r);
    const auto ov = om.step(r);
    if (i < rc.rearm_clean_cycles - 1) {
      EXPECT_EQ(rv.state, MonitorState::kDegraded) << "clean cycle " << i;
      EXPECT_TRUE(rv.from_fallback) << "clean cycle " << i;
      continue;
    }
    ASSERT_EQ(rv.state, MonitorState::kMlActive) << "clean cycle " << i;
    ASSERT_TRUE(rv.ready && ov.ready) << "clean cycle " << i;
    EXPECT_FALSE(rv.from_fallback);
    EXPECT_EQ(rv.prediction, ov.prediction) << "clean cycle " << i;
    EXPECT_EQ(rv.p_unsafe, ov.p_unsafe) << "clean cycle " << i;
    ++ml_verdicts;
  }
  EXPECT_EQ(ml_verdicts, 11);
  EXPECT_EQ(rm.telemetry().recoveries, 1);
}

TEST_F(ResilientMonitorTest, InvalidSampleDuringRefillResetsHysteresis) {
  const ResilientConfig rc = config();
  ResilientMonitor rm(*ml_, rc);
  feed_clean(rm, 0, rc.window);
  rm.step(nan_record(100));  // degrade
  feed_clean(rm, 200, 3);    // partial refill...
  rm.step(nan_record(300));  // ...voided by another corrupted sample
  const int rearm = std::max(rc.rearm_clean_cycles, rc.window);
  ResilientVerdict v;
  for (int i = 0; i < rearm - 1; ++i) {
    v = rm.step(clean_record(400 + i));
    EXPECT_EQ(v.state, MonitorState::kDegraded) << "clean cycle " << i;
  }
  v = rm.step(clean_record(400 + rearm - 1));
  EXPECT_EQ(v.state, MonitorState::kMlActive);
  EXPECT_EQ(rm.telemetry().fallback_entries, 1);  // one fallback episode
  EXPECT_EQ(rm.telemetry().recoveries, 1);
}

TEST_F(ResilientMonitorTest, TelemetryStateCyclesSumToTotal) {
  const ResilientConfig rc = config();
  ResilientMonitor rm(*ml_, rc);
  feed_clean(rm, 0, 10);
  for (int i = 0; i < 8; ++i) rm.step(nan_record(100 + i));
  feed_clean(rm, 200, 10);
  const auto& tel = rm.telemetry();
  EXPECT_EQ(tel.cycles_total, 28);
  EXPECT_EQ(tel.cycles_ml + tel.cycles_degraded + tel.cycles_fail_safe,
            tel.cycles_total);
  EXPECT_EQ(tel.invalid_samples, 8);
}

TEST_F(ResilientMonitorTest, ResetRestoresPristineState) {
  ResilientMonitor rm(*ml_, config());
  feed_clean(rm, 0, config().window);
  rm.step(nan_record(100));
  ASSERT_EQ(rm.state(), MonitorState::kDegraded);
  rm.reset();
  EXPECT_EQ(rm.state(), MonitorState::kMlActive);
  EXPECT_EQ(rm.telemetry().cycles_total, 0);
  const auto v = rm.step(clean_record(0));
  EXPECT_EQ(v.state, MonitorState::kMlActive);
  EXPECT_FALSE(v.ready);  // history was cleared
}

TEST_F(ResilientMonitorTest, RejectsUntrainedMonitorAndBadConfig) {
  monitor::MonitorConfig mc;
  monitor::MlMonitor untrained(mc);
  EXPECT_THROW(ResilientMonitor(untrained, config()), ContractViolation);
  ResilientConfig bad = config();
  bad.window = 0;
  EXPECT_THROW(ResilientMonitor(*ml_, bad), ContractViolation);
  bad.window = -1;
  EXPECT_THROW(ResilientMonitor(*ml_, bad), ContractViolation);
  bad = config();
  bad.rearm_clean_cycles = 0;
  EXPECT_THROW(ResilientMonitor(*ml_, bad), ContractViolation);
  bad = config();
  bad.fail_safe_after = 0;
  EXPECT_THROW(ResilientMonitor(*ml_, bad), ContractViolation);
}

TEST(InputValidator, ClassifiesEachFaultFamily) {
  InputValidator val;
  sim::StepRecord r;
  r.sensor_bg = 120.0;
  r.iob = 1.0;
  EXPECT_EQ(val.check(r), SampleFault::kNone);

  sim::StepRecord nan = r;
  nan.sensor_bg = kNan;
  EXPECT_EQ(val.check(nan), SampleFault::kNonFinite);
  nan = r;
  nan.d_iob = kNan;
  EXPECT_EQ(val.check(nan), SampleFault::kNonFinite);

  sim::StepRecord low = r;
  low.sensor_bg = 5.0;
  EXPECT_EQ(val.check(low), SampleFault::kOutOfRange);
  sim::StepRecord high = r;
  high.sensor_bg = 1000.0;
  EXPECT_EQ(val.check(high), SampleFault::kOutOfRange);

  sim::StepRecord steep = r;
  steep.sensor_bg = 121.0;
  steep.d_bg = -30.0;
  EXPECT_EQ(val.check(steep), SampleFault::kImplausibleTrend);
}

TEST(InputValidator, FlatlineNeedsExactRepeatRun) {
  ValidatorConfig vc;
  vc.flatline_cycles = 3;
  InputValidator val(vc);
  sim::StepRecord r;
  r.sensor_bg = 140.0;
  r.iob = 1.0;
  EXPECT_EQ(val.check(r), SampleFault::kNone);
  EXPECT_EQ(val.check(r), SampleFault::kNone);
  EXPECT_EQ(val.check(r), SampleFault::kFlatline);  // third identical reading
  // A changed reading ends the run.
  r.sensor_bg = 141.0;
  EXPECT_EQ(val.check(r), SampleFault::kNone);
}

TEST(InputValidator, ResetClearsRepeatRun) {
  ValidatorConfig vc;
  vc.flatline_cycles = 2;
  InputValidator val(vc);
  sim::StepRecord r;
  r.sensor_bg = 140.0;
  r.iob = 1.0;
  EXPECT_EQ(val.check(r), SampleFault::kNone);
  val.reset();
  EXPECT_EQ(val.check(r), SampleFault::kNone);  // run restarted
  EXPECT_EQ(val.check(r), SampleFault::kFlatline);
}

TEST(InputValidator, RejectsDegenerateConfig) {
  ValidatorConfig vc;
  vc.bg_min = 600.0;
  vc.bg_max = 20.0;
  EXPECT_THROW(InputValidator{vc}, ContractViolation);
  vc = ValidatorConfig{};
  vc.flatline_cycles = 1;
  EXPECT_THROW(InputValidator{vc}, ContractViolation);
}

// The acceptance property of the runtime, end to end: under heavy input
// corruption the resilient runtime keeps serving trustworthy verdicts while
// the raw ML runtime silently loses availability.
TEST_F(ResilientMonitorTest, ResilientBeatsRawAvailabilityUnderInputFaults) {
  const MonitorVariant mlp{monitor::Arch::kMlp, false};
  ResilienceEvalConfig rc;
  rc.runtime.window = exp_->config().dataset.window;
  for (const auto fault :
       {sim::FaultType::kSensorLoss, sim::FaultType::kSensorGarbage}) {
    const auto raw = exp_->evaluate_resilience(mlp, RuntimeMode::kRawMl, fault,
                                               /*fault_rate=*/0.8, rc);
    const auto res = exp_->evaluate_resilience(mlp, RuntimeMode::kResilient,
                                               fault, /*fault_rate=*/0.8, rc);
    EXPECT_GT(res.availability(), raw.availability())
        << sim::to_string(fault);
    EXPECT_GT(res.time_in_fallback(), 0.0) << sim::to_string(fault);
    EXPECT_GT(res.fallback_entries, 0) << sim::to_string(fault);
  }
}

TEST_F(ResilientMonitorTest, ResilientAvailabilityNeverBelowRaw) {
  // Invariant at any corruption level (including none — note the test traces
  // still contain plant faults like stuck sensors, which the validators
  // rightly flag): availability of the resilient runtime dominates raw ML,
  // because every trustworthy-raw cycle is also a trustworthy-ML cycle for
  // the resilient runtime.
  const MonitorVariant mlp{monitor::Arch::kMlp, false};
  ResilienceEvalConfig rc;
  rc.runtime.window = exp_->config().dataset.window;
  long expected_cycles = 0;
  for (const auto& t : exp_->test_traces()) expected_cycles += t.length();
  for (const auto& [fault, rate] :
       std::vector<std::pair<sim::FaultType, double>>{
           {sim::FaultType::kNone, 0.0},
           {sim::FaultType::kSensorSpike, 0.5},
           {sim::FaultType::kSensorDelay, 0.5}}) {
    const auto raw =
        exp_->evaluate_resilience(mlp, RuntimeMode::kRawMl, fault, rate, rc);
    const auto res = exp_->evaluate_resilience(mlp, RuntimeMode::kResilient,
                                               fault, rate, rc);
    EXPECT_EQ(raw.cycles, expected_cycles);
    EXPECT_EQ(res.cycles, expected_cycles);
    EXPECT_GE(res.availability(), raw.availability()) << sim::to_string(fault);
    EXPECT_EQ(res.overall.total(), res.cycles) << sim::to_string(fault);
  }
}

}  // namespace
}  // namespace cpsguard::core
