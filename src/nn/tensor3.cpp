#include "nn/tensor3.h"

#include <algorithm>
#include <cmath>

#include "util/contracts.h"

namespace cpsguard::nn {

Tensor3::Tensor3(int batch, int time, int features)
    : batch_(batch), time_(time), features_(features),
      data_(static_cast<std::size_t>(batch) * static_cast<std::size_t>(time) *
                static_cast<std::size_t>(features),
            0.0f) {
  expects(batch >= 0 && time >= 0 && features >= 0,
          "tensor dimensions must be non-negative");
}

float& Tensor3::at(int b, int t, int f) {
  expects(b >= 0 && b < batch_ && t >= 0 && t < time_ && f >= 0 && f < features_,
          "tensor index out of range");
  return data_[(static_cast<std::size_t>(b) * static_cast<std::size_t>(time_) +
                static_cast<std::size_t>(t)) *
                   static_cast<std::size_t>(features_) +
               static_cast<std::size_t>(f)];
}

float Tensor3::at(int b, int t, int f) const {
  return const_cast<Tensor3*>(this)->at(b, t, f);
}

std::span<float> Tensor3::window(int b) {
  expects(b >= 0 && b < batch_, "tensor window out of range");
  const auto floats = static_cast<std::size_t>(time_) *
                      static_cast<std::size_t>(features_);
  return std::span<float>(data_).subspan(static_cast<std::size_t>(b) * floats,
                                         floats);
}

std::span<const float> Tensor3::window(int b) const {
  return const_cast<Tensor3*>(this)->window(b);
}

std::span<float> Tensor3::row(int b, int t) {
  expects(b >= 0 && b < batch_ && t >= 0 && t < time_, "tensor row out of range");
  return std::span<float>(data_).subspan(
      (static_cast<std::size_t>(b) * static_cast<std::size_t>(time_) +
       static_cast<std::size_t>(t)) *
          static_cast<std::size_t>(features_),
      static_cast<std::size_t>(features_));
}

std::span<const float> Tensor3::row(int b, int t) const {
  return const_cast<Tensor3*>(this)->row(b, t);
}

Matrix Tensor3::time_slice(int t) const {
  expects(t >= 0 && t < time_, "time slice out of range");
  Matrix m(batch_, features_);
  for (int b = 0; b < batch_; ++b) {
    const auto src = row(b, t);
    std::copy(src.begin(), src.end(), m.row(b).begin());
  }
  return m;
}

void Tensor3::set_time_slice(int t, const Matrix& m) {
  expects(t >= 0 && t < time_, "time slice out of range");
  expects(m.rows() == batch_ && m.cols() == features_, "slice shape mismatch");
  for (int b = 0; b < batch_; ++b) {
    const auto src = m.row(b);
    std::copy(src.begin(), src.end(), row(b, t).begin());
  }
}

Matrix Tensor3::flatten() const {
  return Matrix(batch_, time_ * features_,
                std::vector<float>(data_.begin(), data_.end()));
}

Tensor3 Tensor3::from_flat(const Matrix& m, int time, int features) {
  expects(m.cols() == time * features, "flat width must equal time*features");
  Tensor3 t(m.rows(), time, features);
  std::copy(m.data().begin(), m.data().end(), t.data_.begin());
  return t;
}

Tensor3 Tensor3::gather(std::span<const int> indices) const {
  Tensor3 out(static_cast<int>(indices.size()), time_, features_);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const int b = indices[i];
    expects(b >= 0 && b < batch_, "gather index out of range");
    for (int t = 0; t < time_; ++t) {
      const auto src = row(b, t);
      std::copy(src.begin(), src.end(), out.row(static_cast<int>(i), t).begin());
    }
  }
  return out;
}

void Tensor3::fill(float value) { std::fill(data_.begin(), data_.end(), value); }

float Tensor3::max_abs() const {
  float m = 0.0f;
  for (float v : data_) m = std::max(m, std::fabs(v));
  return m;
}

bool operator==(const Tensor3& a, const Tensor3& b) {
  return a.batch_ == b.batch_ && a.time_ == b.time_ &&
         a.features_ == b.features_ && a.data_ == b.data_;
}

}  // namespace cpsguard::nn
