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

Matrix FeedForward::forward(const Matrix& x) {
  expects(!layers_.empty(), "network has no layers");
  Matrix h = x;
  for (auto& layer : layers_) h = layer->forward(h);
  return h;
}

Matrix FeedForward::backward(const Matrix& dy) {
  expects(!layers_.empty(), "network has no layers");
  Matrix g = dy;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = (*it)->backward(g);
  }
  return g;
}

std::vector<Param*> FeedForward::params() {
  std::vector<Param*> out;
  for (auto& layer : layers_) {
    for (Param* p : layer->params()) out.push_back(p);
  }
  return out;
}

void FeedForward::zero_grad() {
  for (Param* p : params()) p->zero_grad();
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
