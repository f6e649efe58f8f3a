#include "core/online_monitor.h"

#include "monitor/features.h"
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

  ring_.copy_ordered(x_.data());
  const nn::Matrix probs = monitor_.predict_proba(x_);
  verdict.ready = true;
  verdict.p_unsafe = probs.at(0, 1);
  verdict.prediction = probs.at(0, 1) > probs.at(0, 0) ? 1 : 0;
  return verdict;
}

void OnlineMonitor::reset() {
  ring_.clear();
  cycles_seen_ = 0;
}

}  // namespace cpsguard::core
