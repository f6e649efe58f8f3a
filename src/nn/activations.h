// The ReLU layer and the sigmoid/tanh nonlinearities of the recurrent cells
// (scalar, and over whole rows).
//
// The nonlinearities are repo-owned ports, not calls into the host's libm, so
// every host computes the same bits: expf_port is glibc 2.36's expf (the
// variant glibc selects on FMA hardware) and tanhf_port is fdlibm's tanhf
// (glibc 2.36 ships it unchanged). sigmoid_rows / tanh_rows run them over a
// contiguous run of floats through the widest dispatched SIMD kernel (see
// simd_kernels.h), which matches the scalar ports bit for bit on every one of
// the 2^32 float inputs.
#pragma once

#include <span>

#include "nn/layer.h"

namespace cpsguard::nn {

float expf_port(float x);
float tanhf_port(float x);
float sigmoid(float x);           // 1 / (1 + e^-x) on expf_port, NaN in NaN out
float dsigmoid_from_y(float y);   // derivative given sigmoid output
float dtanh_from_y(float y);      // derivative given tanh output

/// y[i] = sigmoid(x[i]) / tanhf_port(x[i]). `y` may be `x` itself (in place)
/// but must not otherwise overlap it.
void sigmoid_rows(std::span<const float> x, std::span<float> y);
void tanh_rows(std::span<const float> x, std::span<float> y);

class Relu : public Layer {
 public:
  explicit Relu(int size) : size_(size) {}

  [[nodiscard]] Matrix infer(const Matrix& x) const override;
  /// The cache is the output y: dx = dy where y > 0, else 0.
  Matrix forward(const Matrix& x, Matrix& cache) const override;
  Matrix backward(const Matrix& dy, const Matrix& cache,
                  std::span<Param* const> grads) const override;

  [[nodiscard]] std::string name() const override { return "ReLU"; }
  [[nodiscard]] int input_size() const override { return size_; }
  [[nodiscard]] int output_size() const override { return size_; }

 private:
  int size_;
};

}  // namespace cpsguard::nn
