#include "serve/ring_window.h"

#include <algorithm>

#include "util/contracts.h"

namespace cpsguard::serve {

RingWindow::RingWindow(int window, int features)
    : window_(window), features_(features) {
  // Check before sizing: a negative extent would wrap the size_t product.
  expects(window > 0, "ring window must be positive");
  expects(features > 0, "ring feature count must be positive");
  data_.resize(static_cast<std::size_t>(window) *
               static_cast<std::size_t>(features));
}

std::span<float> RingWindow::push_slot() {
  return std::span<float>(data_).subspan(
      static_cast<std::size_t>(head_) * static_cast<std::size_t>(features_),
      static_cast<std::size_t>(features_));
}

void RingWindow::commit() {
  head_ = head_ + 1 == window_ ? 0 : head_ + 1;
  if (size_ < window_) ++size_;
}

void RingWindow::clear() {
  head_ = 0;
  size_ = 0;
}

void RingWindow::copy_ordered(std::span<float> dst) const {
  expects(full(), "copy_ordered requires a full window");
  expects(dst.size() == data_.size(), "destination size mismatch");
  // Oldest row sits at head_ (the slot the next commit would overwrite):
  // rows [head_, window) then [0, head_) are the window in time order.
  const auto split = static_cast<std::size_t>(head_) *
                     static_cast<std::size_t>(features_);
  std::copy(data_.begin() + static_cast<std::ptrdiff_t>(split), data_.end(),
            dst.begin());
  std::copy(data_.begin(), data_.begin() + static_cast<std::ptrdiff_t>(split),
            dst.begin() + static_cast<std::ptrdiff_t>(data_.size() - split));
}

}  // namespace cpsguard::serve
