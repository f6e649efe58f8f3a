#include "core/resilient_monitor.h"

#include <cmath>

#include "monitor/features.h"
#include "nn/matrix.h"
#include "util/contracts.h"

namespace cpsguard::core {

std::string to_string(MonitorState s) {
  switch (s) {
    case MonitorState::kMlActive: return "ml_active";
    case MonitorState::kDegraded: return "degraded";
    case MonitorState::kFailSafe: return "fail_safe";
  }
  return "unknown";
}

std::string to_string(SampleFault f) {
  switch (f) {
    case SampleFault::kNone: return "none";
    case SampleFault::kNonFinite: return "non_finite";
    case SampleFault::kOutOfRange: return "out_of_range";
    case SampleFault::kImplausibleTrend: return "implausible_trend";
    case SampleFault::kFlatline: return "flatline";
  }
  return "unknown";
}

InputValidator::InputValidator(ValidatorConfig config) : config_(config) {
  expects(config_.bg_min < config_.bg_max, "degenerate physiological band");
  expects(config_.flatline_cycles > 1, "flatline run must exceed one cycle");
}

SampleFault InputValidator::check(const sim::StepRecord& r) {
  const bool finite = std::isfinite(r.sensor_bg) && std::isfinite(r.iob) &&
                      std::isfinite(r.d_bg) && std::isfinite(r.d_iob);
  // A non-finite reading breaks the repeat run — it is its own fault class.
  if (!finite) {
    has_last_ = false;
    repeat_run_ = 0;
    return SampleFault::kNonFinite;
  }
  if (has_last_ && r.sensor_bg == last_bg_) {
    ++repeat_run_;
  } else {
    repeat_run_ = 1;
    last_bg_ = r.sensor_bg;
    has_last_ = true;
  }
  if (r.sensor_bg < config_.bg_min || r.sensor_bg > config_.bg_max) {
    return SampleFault::kOutOfRange;
  }
  if (std::abs(r.d_bg) > config_.max_dbg) return SampleFault::kImplausibleTrend;
  // Intrinsic CGM noise (~2 mg/dL) makes exact repeats vanishingly rare in a
  // healthy stream, so a run of identical readings means stuck/stale input.
  if (repeat_run_ >= config_.flatline_cycles) return SampleFault::kFlatline;
  return SampleFault::kNone;
}

void InputValidator::reset() {
  repeat_run_ = 0;
  has_last_ = false;
}

double ResilienceTelemetry::mean_recovery_latency() const {
  if (recoveries == 0) return 0.0;
  return static_cast<double>(recovery_latency_sum) /
         static_cast<double>(recoveries);
}

ResilientMonitor::ResilientMonitor(const monitor::MlMonitor& ml,
                                   ResilientConfig config)
    : ml_(ml),
      rules_(config.bg_target),
      config_(config),
      validator_(config.validator),
      // RingWindow's contract rejects window <= 0.
      history_(config.window, monitor::Features::kNumFeatures),
      x_(1, config.window, monitor::Features::kNumFeatures) {
  expects(config.rearm_clean_cycles > 0, "re-arm hysteresis must be positive");
  expects(config.fail_safe_after > 0, "fail-safe threshold must be positive");
  expects(ml.trained(), "ML monitor must be trained");
}

void ResilientMonitor::push_history(const sim::StepRecord& r) {
  monitor::fill_features(r, history_.push_slot());
  history_.commit();
}

ResilientVerdict ResilientMonitor::ml_verdict(const sim::StepRecord& r) {
  ResilientVerdict v;
  if (!history_.full()) return v;
  history_.copy_ordered(x_.data());
  for (int t = 0; t < x_.time(); ++t) {
    ml_.scaler().transform_row(x_.row(0, t));
  }
  const nn::Matrix probs = ml_.predict_proba_scaled(x_);
  const int prediction = nn::decide(x_.window(0), probs.row(0));
  // A feature the validator does not check (e.g. the commanded rate) can
  // still be non-finite: judge this cycle by Table I instead.
  if (prediction == nn::kNoVerdict) return rule_verdict(r);
  v.ready = true;
  v.p_unsafe = probs.at(0, 1);
  v.prediction = prediction;
  return v;
}

ResilientVerdict ResilientMonitor::rule_verdict(const sim::StepRecord& r) const {
  ResilientVerdict v;
  v.ready = true;
  v.from_fallback = true;
  v.prediction = rules_.predict_step(r);
  v.p_unsafe = static_cast<double>(v.prediction);
  return v;
}

void ResilientMonitor::enter_degraded() {
  state_ = MonitorState::kDegraded;
  ++telemetry_.fallback_entries;
  degraded_since_ = telemetry_.cycles_total;
  history_.clear();  // the window is tainted; refill from clean samples only
  clean_streak_ = 0;
}

ResilientVerdict ResilientMonitor::step(const sim::StepRecord& record) {
  const SampleFault fault = validator_.check(record);
  const bool valid = fault == SampleFault::kNone;
  ++telemetry_.cycles_total;
  if (valid) {
    consecutive_invalid_ = 0;
    last_valid_ = record;
  } else {
    ++telemetry_.invalid_samples;
    ++consecutive_invalid_;
    switch (fault) {
      case SampleFault::kNonFinite: ++telemetry_.non_finite; break;
      case SampleFault::kOutOfRange: ++telemetry_.out_of_range; break;
      case SampleFault::kImplausibleTrend: ++telemetry_.implausible_trend; break;
      case SampleFault::kFlatline: ++telemetry_.flatline; break;
      case SampleFault::kNone: break;
    }
  }

  ResilientVerdict v;
  switch (state_) {
    case MonitorState::kMlActive:
      if (valid) {
        push_history(record);
        v = ml_verdict(record);
      } else {
        enter_degraded();
        // The current sample is untrustworthy; judge the last good context.
        if (last_valid_) {
          v = rule_verdict(*last_valid_);
        } else {  // never saw a valid sample: only safe output is an alarm
          v.ready = true;
          v.from_fallback = true;
          v.prediction = 1;
          v.p_unsafe = 1.0;
        }
      }
      break;

    case MonitorState::kDegraded:
      if (valid) {
        ++clean_streak_;
        push_history(record);
        if (clean_streak_ >= config_.rearm_clean_cycles && history_.full()) {
          state_ = MonitorState::kMlActive;  // hysteresis satisfied: re-arm
          ++telemetry_.recoveries;
          telemetry_.recovery_latency_sum += telemetry_.cycles_total - degraded_since_;
          degraded_since_ = -1;
          v = ml_verdict(record);
        } else {
          v = rule_verdict(record);
        }
      } else {
        history_.clear();  // a tainted sample voids the partial refill
        clean_streak_ = 0;
        if (consecutive_invalid_ >= config_.fail_safe_after) {
          state_ = MonitorState::kFailSafe;
          ++telemetry_.fail_safe_entries;
          v.ready = true;
          v.prediction = 1;
          v.p_unsafe = 1.0;
        } else if (last_valid_) {
          v = rule_verdict(*last_valid_);
        } else {
          v.ready = true;
          v.from_fallback = true;
          v.prediction = 1;
          v.p_unsafe = 1.0;
        }
      }
      break;

    case MonitorState::kFailSafe:
      if (valid) {
        state_ = MonitorState::kDegraded;  // fallback is usable again
        clean_streak_ = 1;
        push_history(record);
        v = rule_verdict(record);
      } else {
        v.ready = true;
        v.prediction = 1;
        v.p_unsafe = 1.0;
      }
      break;
  }

  switch (state_) {
    case MonitorState::kMlActive: ++telemetry_.cycles_ml; break;
    case MonitorState::kDegraded: ++telemetry_.cycles_degraded; break;
    case MonitorState::kFailSafe: ++telemetry_.cycles_fail_safe; break;
  }
  v.state = state_;
  v.sample_fault = fault;
  return v;
}

void ResilientMonitor::reset() {
  validator_.reset();
  history_.clear();
  last_valid_.reset();
  state_ = MonitorState::kMlActive;
  clean_streak_ = 0;
  consecutive_invalid_ = 0;
  degraded_since_ = -1;
  telemetry_ = ResilienceTelemetry{};
}

}  // namespace cpsguard::core
