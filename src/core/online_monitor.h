// Deployment wrapper: an OnlineMonitor feeds a trained MlMonitor one control
// cycle at a time, maintaining the sliding feature window internally — the
// way the monitor runs inside a real APS controller loop (paper Fig. 1a).
//
// The window lives in a preallocated serve::RingWindow and the inference
// input tensor is reused across cycles, so the per-step windowing path
// performs no heap allocations (pinned by the allocation-regression test in
// tests/test_online_monitor.cpp); for multiplexing many sessions over one
// monitor, use serve::Engine instead.
#pragma once

#include "monitor/ml_monitor.h"
#include "nn/tensor3.h"
#include "serve/ring_window.h"
#include "sim/trace.h"

namespace cpsguard::core {

struct OnlineVerdict {
  bool ready = false;       // false until the window has filled
  int prediction = 0;       // nn::decide: 1 = unsafe control action, 0 =
                            // safe, nn::kNoVerdict on non-finite input
  double p_unsafe = 0.0;    // monitor confidence
};

class OnlineMonitor {
 public:
  /// `monitor` must outlive this wrapper and already be trained.
  OnlineMonitor(const monitor::MlMonitor& monitor, int window);

  /// Feed the record of the cycle that just executed; returns the verdict
  /// for the current window (not ready until `window` cycles have arrived).
  OnlineVerdict step(const sim::StepRecord& record);

  /// Forget all history (e.g., on sensor reconnect).
  void reset();

  [[nodiscard]] int window() const { return ring_.window(); }
  [[nodiscard]] int cycles_seen() const { return cycles_seen_; }

 private:
  const monitor::MlMonitor& monitor_;
  int cycles_seen_ = 0;
  serve::RingWindow ring_;
  nn::Tensor3 x_;  // reused (1, window, features) scaled inference input
};

}  // namespace cpsguard::core
