// Per-layer probes of a traced run. After the timed phases they replay the
// batch size the run actually used through lower-level public calls (the
// nn layers, the batched predict path, the monitor's feature and scaling
// helpers, the registry loader) and report per-call costs, so a change to
// one layer shows up in that layer's number.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "monitor/ml_monitor.h"
#include "nn/tensor3.h"
#include "registry/registry.h"
#include "sim/trace.h"
#include "suite.h"

namespace cpsguard::suite {

struct ProbeInput {
  monitor::MlMonitor* model = nullptr;  // owned weights (a clone)
  const nn::Tensor3* raw_windows = nullptr;  // at least `batch` windows
  int batch = 1;                             // observed batch size
  std::span<const sim::StepRecord> records;  // ingest probe input
  const registry::ModelRegistry* registry = nullptr;
  std::uint64_t version = 0;                 // registry version to load
};

/// Fills the nn.*, eval.predict.us_per_window, monitor.* and
/// registry.load.ms metrics.
void run_layer_probes(const ProbeInput& in, Metrics& out);

/// Median wall time of `fn` in microseconds, after one untimed call.
/// Repeats until about 30 ms are spent (at least `min_reps`, at most 200
/// times).
template <typename Fn>
double median_us(Fn&& fn, std::size_t min_reps = 5) {
  fn();
  std::vector<double> us;
  double spent = 0.0;
  while (us.size() < min_reps || (spent < 0.03 && us.size() < 200)) {
    const auto start = Clock::now();
    fn();
    const double s = seconds_between(start, Clock::now());
    spent += s;
    us.push_back(s * 1e6);
  }
  return median(std::move(us));
}

}  // namespace cpsguard::suite
