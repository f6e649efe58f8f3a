#include "nn/feedforward.h"

#include <algorithm>

#include "nn/row_blocks.h"
#include "util/contracts.h"

namespace cpsguard::nn {

void FeedForward::add(std::unique_ptr<Layer> layer) {
  expects(layer != nullptr, "layer must not be null");
  if (!layers_.empty()) {
    expects(layer->input_size() == layers_.back()->output_size(),
            "layer input size must match previous output size");
  }
  layers_.push_back(std::move(layer));
}

Matrix FeedForward::infer(const Matrix& x) const {
  expects(!layers_.empty(), "network has no layers");
  double flops_per_row = 0.0;
  for (const auto& layer : layers_) flops_per_row += layer->flops_per_row();
  const auto in = static_cast<std::size_t>(x.cols());
  const auto out = static_cast<std::size_t>(output_size());
  Matrix y(x.rows(), output_size());
  // A stack worth one fan-out gets exactly one: each row block runs every
  // layer on one thread, its matmuls inline, so the bias adds and ReLUs run
  // in parallel too and each block's intermediates stay small. Rows are
  // independent, so the split never changes a bit.
  for_row_blocks(x.rows(), flops_per_row, [&](int r0, int r1) {
    const auto rows = x.data().subspan(static_cast<std::size_t>(r0) * in,
                                       static_cast<std::size_t>(r1 - r0) * in);
    Matrix h(r1 - r0, x.cols(), std::vector<float>(rows.begin(), rows.end()));
    for (const auto& layer : layers_) h = layer->infer(h);
    std::copy(h.data().begin(), h.data().end(),
              y.data().begin() + static_cast<std::ptrdiff_t>(r0 * out));
  });
  return y;
}

Matrix FeedForward::forward(const Matrix& x, Cache& cache) const {
  expects(!layers_.empty(), "network has no layers");
  cache.resize(layers_.size());
  Matrix h = x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    h = layers_[i]->forward(h, cache[i]);
  }
  return h;
}

Matrix FeedForward::backward(const Matrix& dy, const Cache& cache,
                             std::span<Param* const> grads) const {
  expects(!layers_.empty(), "network has no layers");
  expects(cache.size() == layers_.size(), "FeedForward: backward without forward");
  Matrix g = dy;
  std::size_t end = grads.size();  // grads[0, end) belong to layers [0, i]
  for (std::size_t i = layers_.size(); i-- > 0;) {
    const Layer& layer = *layers_[i];
    const std::size_t n = grads.empty() ? 0 : layer.param_count();
    expects(n <= end, "FeedForward: grads must be params()");
    g = layer.backward(g, cache[i], grads.subspan(end - n, n));
    end -= n;
  }
  expects(end == 0, "FeedForward: grads must be params()");
  return g;
}

std::vector<Param*> FeedForward::params() {
  std::vector<Param*> out;
  for (auto& layer : layers_) {
    for (Param* p : layer->params()) out.push_back(p);
  }
  return out;
}

int FeedForward::input_size() const {
  expects(!layers_.empty(), "network has no layers");
  return layers_.front()->input_size();
}

int FeedForward::output_size() const {
  expects(!layers_.empty(), "network has no layers");
  return layers_.back()->output_size();
}

}  // namespace cpsguard::nn
