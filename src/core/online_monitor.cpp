#include "core/online_monitor.h"

#include "monitor/features.h"
#include "nn/matrix.h"
#include "util/contracts.h"

namespace cpsguard::core {

OnlineMonitor::OnlineMonitor(const monitor::MlMonitor& monitor, int window)
    : monitor_(monitor),
      // RingWindow's contract rejects window <= 0.
      ring_(window, monitor::Features::kNumFeatures),
      x_(1, window, monitor::Features::kNumFeatures) {
  expects(monitor.trained(), "monitor must be trained");
}

OnlineVerdict OnlineMonitor::step(const sim::StepRecord& record) {
  monitor::fill_features(record, ring_.push_slot());
  ring_.commit();
  ++cycles_seen_;

  OnlineVerdict verdict;
  if (!ring_.full()) return verdict;

  // Scale in place, as serve stages a window, so the rule judges exactly
  // the input the model scored.
  ring_.copy_ordered(x_.data());
  for (int t = 0; t < x_.time(); ++t) {
    monitor_.scaler().transform_row(x_.row(0, t));
  }
  const nn::Matrix probs = monitor_.predict_proba_scaled(x_);
  verdict.ready = true;
  verdict.p_unsafe = probs.at(0, 1);
  verdict.prediction = nn::decide(x_.window(0), probs.row(0));
  return verdict;
}

void OnlineMonitor::reset() {
  ring_.clear();
  cycles_seen_ = 0;
}

}  // namespace cpsguard::core
