// Resilient monitoring runtime: wraps the ML safety monitor with input
// validation and a degradation state machine so that faults on the monitor's
// own input stream (sample loss, staleness, corruption — sim::FaultInjector's
// input-fault family) degrade the service gracefully instead of silently
// poisoning inference.
//
// State machine:
//
//   ML_ACTIVE --invalid sample--> DEGRADED --N consecutive invalid--> FAIL_SAFE
//       ^                           |  ^                                  |
//       |   hysteresis: clean run   |  |        first valid sample        |
//       +---------------------------+  +----------------------------------+
//
// In DEGRADED the verdict comes from the knowledge-driven
// safety::RuleBasedMonitor (evaluated on the last valid sample when the
// current one is rejected) — the paper's robust backstop. FAIL_SAFE is
// alarm-on: with no trustworthy input for too long, the only safe output is
// "unsafe". The ML path re-arms only after `rearm_clean_cycles` consecutive
// valid samples AND a fully refilled feature window (effective threshold
// max(rearm_clean_cycles, window)). While ML_ACTIVE, a window that
// nn::decide refuses (a non-finite feature the validator does not check)
// gets that cycle's rule verdict instead, with no state change.
#pragma once

#include <optional>
#include <string>

#include "monitor/ml_monitor.h"
#include "nn/tensor3.h"
#include "safety/rule_monitor.h"
#include "serve/ring_window.h"
#include "sim/trace.h"

namespace cpsguard::core {

enum class MonitorState : int {
  kMlActive = 0,
  kDegraded,
  kFailSafe,
};

std::string to_string(MonitorState s);

/// Why a sample was rejected; kNone means it passed every validator. The
/// first failing check wins (finite → range → trend → flatline).
enum class SampleFault : int {
  kNone = 0,
  kNonFinite,        // NaN/Inf in sensor_bg, iob, or trends
  kOutOfRange,       // sensor_bg outside the physiological band
  kImplausibleTrend, // |d_bg| beyond any physiological slew rate
  kFlatline,         // identical readings for too many cycles (stuck/stale)
};

std::string to_string(SampleFault f);

struct ValidatorConfig {
  double bg_min = 20.0;   // mg/dL: below anything a live CGM reports
  double bg_max = 600.0;  // mg/dL: CGM saturation ceiling
  double max_dbg = 15.0;  // mg/dL per min: physiological slew limit
  int flatline_cycles = 4;  // exact-repeat run length that flags staleness
};

/// Stateful per-stream validator (tracks the repeat run for flatline
/// detection). One instance per monitored stream; reset on reconnect.
class InputValidator {
 public:
  explicit InputValidator(ValidatorConfig config = {});

  /// Classify the next sample of the stream. Must be called once per cycle,
  /// in order (flatline detection depends on the run of repeats).
  SampleFault check(const sim::StepRecord& r);

  void reset();

  [[nodiscard]] const ValidatorConfig& config() const { return config_; }

 private:
  ValidatorConfig config_;
  double last_bg_ = 0.0;
  int repeat_run_ = 0;  // consecutive cycles with an identical reading
  bool has_last_ = false;
};

struct ResilientConfig {
  int window = 6;              // ML feature window (cycles)
  int rearm_clean_cycles = 6;  // hysteresis before the ML path re-arms
  int fail_safe_after = 6;     // consecutive invalid cycles → FAIL_SAFE
  double bg_target = sim::kTargetBg;  // rule-base parameter
  ValidatorConfig validator;
};

/// Per-state telemetry counters, cumulative since construction/reset.
struct ResilienceTelemetry {
  long cycles_total = 0;
  long cycles_ml = 0;         // cycles spent in ML_ACTIVE
  long cycles_degraded = 0;   // cycles spent in DEGRADED (rule fallback)
  long cycles_fail_safe = 0;  // cycles spent in FAIL_SAFE (alarm-on)
  long invalid_samples = 0;
  long non_finite = 0;
  long out_of_range = 0;
  long implausible_trend = 0;
  long flatline = 0;
  long fallback_entries = 0;   // ML_ACTIVE → DEGRADED transitions
  long fail_safe_entries = 0;  // DEGRADED → FAIL_SAFE transitions
  long recoveries = 0;         // re-arms back to ML_ACTIVE
  long recovery_latency_sum = 0;  // cycles from fallback entry to re-arm

  /// Mean cycles from losing the ML path to re-arming it (0 if never).
  [[nodiscard]] double mean_recovery_latency() const;
};

struct ResilientVerdict {
  MonitorState state = MonitorState::kMlActive;  // state that produced it
  bool ready = false;       // a prediction was produced this cycle
  int prediction = 0;       // 1 = unsafe control action
  double p_unsafe = 0.0;
  SampleFault sample_fault = SampleFault::kNone;  // this cycle's validation
  bool from_fallback = false;  // prediction came from the rule base
};

class ResilientMonitor {
 public:
  /// `ml` must outlive this wrapper and already be trained.
  ResilientMonitor(const monitor::MlMonitor& ml, ResilientConfig config = {});

  /// Feed the record of the cycle that just executed; validates it, advances
  /// the state machine, and returns the verdict of the active path.
  ResilientVerdict step(const sim::StepRecord& record);

  /// Forget all history and telemetry (e.g., on stream reconnect).
  void reset();

  [[nodiscard]] MonitorState state() const { return state_; }
  [[nodiscard]] const ResilienceTelemetry& telemetry() const { return telemetry_; }
  [[nodiscard]] const ResilientConfig& config() const { return config_; }

 private:
  void enter_degraded();
  /// nn::decide on the scaled history window; `r`'s Table-I verdict when
  /// the rule refuses it (kNoVerdict), with no state change.
  [[nodiscard]] ResilientVerdict ml_verdict(const sim::StepRecord& r);
  [[nodiscard]] ResilientVerdict rule_verdict(const sim::StepRecord& r) const;
  void push_history(const sim::StepRecord& r);

  const monitor::MlMonitor& ml_;
  safety::RuleBasedMonitor rules_;
  ResilientConfig config_;
  InputValidator validator_;

  MonitorState state_ = MonitorState::kMlActive;
  serve::RingWindow history_;  // raw feature rows of clean samples only
  nn::Tensor3 x_;              // reused (1, window, features) inference input
  std::optional<sim::StepRecord> last_valid_;  // rule context when rejected
  int clean_streak_ = 0;        // consecutive valid samples while degraded
  int consecutive_invalid_ = 0;
  long degraded_since_ = -1;    // cycle index of the current fallback entry
  ResilienceTelemetry telemetry_;
};

}  // namespace cpsguard::core
