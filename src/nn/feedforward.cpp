#include "nn/feedforward.h"

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
  Matrix h = x;
  for (const auto& layer : layers_) h = layer->infer(h);
  return h;
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
