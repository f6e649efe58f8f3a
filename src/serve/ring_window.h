// Fixed-capacity ring buffer of feature rows — the sliding window of every
// online path (each serve session, core::OnlineMonitor and
// core::ResilientMonitor). All storage is one contiguous float
// vector allocated at construction; pushing a row writes into a slot
// in place and copying the window out is two memcpy-sized block copies,
// so the steady-state ingest path performs zero heap allocations (the
// property the OnlineMonitor allocation-regression test pins).
#pragma once

#include <span>
#include <vector>

namespace cpsguard::serve {

class RingWindow {
 public:
  /// A window of `window` rows of `features` floats each.
  RingWindow(int window, int features);

  /// Writable view of the slot the next row goes into. Fill it, then call
  /// commit(); the slot's previous contents (the oldest row once the ring
  /// is full) are whatever the caller leaves there.
  [[nodiscard]] std::span<float> push_slot();

  /// Publish the row written into push_slot(): advances the ring by one.
  /// Once full, each commit slides the window forward one cycle.
  void commit();

  /// True when `window` rows have been committed (and forever after).
  [[nodiscard]] bool full() const { return size_ == window_; }
  [[nodiscard]] int size() const { return size_; }
  [[nodiscard]] int window() const { return window_; }
  [[nodiscard]] int features() const { return features_; }

  /// Forget every row (capacity is retained; no deallocation).
  void clear();

  /// Copy the window oldest→newest into `dst` (size window*features).
  /// Requires full().
  void copy_ordered(std::span<float> dst) const;

 private:
  int window_ = 0;
  int features_ = 0;
  int head_ = 0;  // slot index the next commit publishes
  int size_ = 0;
  std::vector<float> data_;  // window_ rows, laid out contiguously
};

}  // namespace cpsguard::serve
