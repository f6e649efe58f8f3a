#include "nn/activations.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "nn/gate_math.h"
#include "nn/simd_kernels.h"
#include "util/contracts.h"

namespace cpsguard::nn {

namespace gm = gate_math;

// The ports follow the glibc sources statement by statement; the SIMD
// kernels in simd_kernels.cpp compute the same statements per lane. This
// file is compiled with -ffp-contract=off (see CMakeLists.txt), so the
// only fused multiply-add is the explicit std::fma below.

float expf_port(float x) {
  const std::uint32_t ux = std::bit_cast<std::uint32_t>(x);
  const std::uint32_t abstop = (ux >> 20) & 0x7ff;
  if (abstop >= gm::kExpSpecialTop12) {  // |x| >= 88, ±inf or NaN
    if (ux == std::bit_cast<std::uint32_t>(-std::numeric_limits<float>::infinity())) {
      return 0.0f;
    }
    if (abstop >= 0x7f8) return x + x;  // +inf, or NaN (quietened)
    if (x > gm::kExpOverflow) return std::numeric_limits<float>::infinity();
    if (x < gm::kExpUnderflow) return 0.0f;
  }
  // x*32/ln2 = k + r with r in [-1/2, 1/2] and integer k, rounded through
  // the shift so the low bits of kd's representation hold k.
  const double xd = x;
  double kd = gm::kInvLn2N * xd + gm::kShift;
  const std::uint64_t ki = std::bit_cast<std::uint64_t>(kd);
  kd -= gm::kShift;
  // glibc's FMA build contracts this one step, and it is the one whose
  // rounding reaches the float result: unfused, z = InvLn2N*xd loses the
  // low bits of the product before kd is subtracted.
  const double r = std::fma(gm::kInvLn2N, xd, -kd);
  const std::uint64_t t =
      gm::kExpTable[ki % gm::kExpTableSize] + (ki << (52 - gm::kExpTableBits));
  const double s = std::bit_cast<double>(t);
  const double z = gm::kExpC0 * r + gm::kExpC1;
  const double r2 = r * r;
  double y = gm::kExpC2 * r + 1.0;
  y = z * r2 + y;
  y = y * s;
  return static_cast<float>(y);
}

namespace {

// fdlibm expm1f on the arguments tanhf passes it: -2|x| for |x| < 1 and
// 2|x| for 1 <= |x| < 22, so -2 < x < 0 or 2 <= x < 44. expm1f's special
// cases for |x| >= 27 ln2 (NaN, ±inf, overflow, saturation to -1) and its
// k = 1 branch (0.5 ln2 < x < 1.5 ln2) never fire there and are left out.
float expm1f_port(float x) {
  std::uint32_t hx = std::bit_cast<std::uint32_t>(x);
  const bool negative = (hx & 0x80000000u) != 0;
  hx &= 0x7fffffffu;

  float hi = 0.0f, lo = 0.0f, c = 0.0f;
  int k = 0;
  if (hx > gm::kExpm1HalfLn2) {  // argument reduction
    if (hx < gm::kExpm1ThreeHalvesLn2) {
      hi = negative ? x + gm::kLn2Hi : x - gm::kLn2Hi;
      lo = negative ? -gm::kLn2Lo : gm::kLn2Lo;
      k = negative ? -1 : 1;
    } else {
      k = static_cast<int>(gm::kInvLn2 * x + (negative ? -0.5f : 0.5f));
      const float t = static_cast<float>(k);
      hi = x - t * gm::kLn2Hi;  // t*ln2_hi is exact here
      lo = t * gm::kLn2Lo;
    }
    x = hi - lo;
    c = (hi - x) - lo;
  } else if (hx < gm::kExpm1Tiny) {
    return x;
  }

  const float hfx = 0.5f * x;
  const float hxs = x * hfx;
  const float r1 =
      1.0f + hxs * (gm::kQ1 +
                    hxs * (gm::kQ2 + hxs * (gm::kQ3 + hxs * (gm::kQ4 + hxs * gm::kQ5))));
  float t = 3.0f - r1 * hfx;
  float e = hxs * ((r1 - t) / (6.0f - x * t));
  if (k == 0) return x - (x * e - hxs);
  e = x * (e - c) - c;
  e -= hxs;
  if (k == -1) return 0.5f * (x - e) - 0.5f;
  const auto add_exponent = [k](float y) {
    return std::bit_cast<float>(std::bit_cast<std::uint32_t>(y) +
                                (static_cast<std::uint32_t>(k) << 23));
  };
  if (k <= -2 || k > 56) return add_exponent(1.0f - (e - x)) - 1.0f;
  if (k < 23) {
    t = std::bit_cast<float>(0x3f800000u - (0x1000000u >> k));  // 1 - 2^-k
    return add_exponent(t - (e - x));
  }
  t = std::bit_cast<float>(static_cast<std::uint32_t>(0x7f - k) << 23);  // 2^-k
  return add_exponent((x - (e + t)) + 1.0f);
}

}  // namespace

float tanhf_port(float x) {
  const std::uint32_t jx = std::bit_cast<std::uint32_t>(x);
  const std::uint32_t ix = jx & 0x7fffffffu;
  const bool negative = (jx & 0x80000000u) != 0;
  if (ix >= 0x7f800000u) {  // ±1 for ±inf, NaN quietened
    return negative ? 1.0f / x - 1.0f : 1.0f / x + 1.0f;
  }
  float z = 1.0f;  // |x| >= 22 (fdlibm's 1 - tiny rounds to 1)
  if (ix < gm::kTanhSaturate) {
    if (ix == 0) return x;  // ±0
    if (ix < gm::kTanhTiny) return x * (1.0f + x);
    if (ix >= gm::kTanhOne) {
      const float t = expm1f_port(2.0f * std::fabs(x));
      z = 1.0f - 2.0f / (t + 2.0f);
    } else {
      const float t = expm1f_port(-2.0f * std::fabs(x));
      z = -t / (t + 2.0f);
    }
  }
  return negative ? -z : z;
}

float sigmoid(float x) {
  if (x >= 0.0f) {
    const float z = expf_port(-x);
    return 1.0f / (1.0f + z);
  }
  const float z = expf_port(x);
  return z / (1.0f + z);
}

float dsigmoid_from_y(float y) { return y * (1.0f - y); }

float dtanh_from_y(float y) { return 1.0f - y * y; }

void sigmoid_rows(std::span<const float> x, std::span<float> y) {
  expects(x.size() == y.size(), "sigmoid_rows: length mismatch");
  if (const GateRowsFn simd = simd_sigmoid_rows()) {
    simd(x.data(), y.data(), static_cast<int>(x.size()));
    return;
  }
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = sigmoid(x[i]);
}

void tanh_rows(std::span<const float> x, std::span<float> y) {
  expects(x.size() == y.size(), "tanh_rows: length mismatch");
  if (const GateRowsFn simd = simd_tanh_rows()) {
    simd(x.data(), y.data(), static_cast<int>(x.size()));
    return;
  }
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = tanhf_port(x[i]);
}

Matrix Relu::infer(const Matrix& x) const {
  expects(x.cols() == size_, "ReLU: width mismatch");
  Matrix y = x;
  for (float& v : y.data()) v = v > 0.0f ? v : 0.0f;
  return y;
}

Matrix Relu::forward(const Matrix& x, Matrix& cache) const {
  cache = infer(x);
  return cache;
}

Matrix Relu::backward(const Matrix& dy, const Matrix& cache,
                      std::span<Param* const> grads) const {
  expects(dy.rows() == cache.rows() && dy.cols() == cache.cols(),
          "ReLU: backward shape mismatch");
  expects(grads.empty(), "ReLU has no parameters");
  Matrix dx = dy;
  const auto y = cache.data();
  auto g = dx.data();
  for (std::size_t i = 0; i < g.size(); ++i) {
    if (y[i] <= 0.0f) g[i] = 0.0f;
  }
  return dx;
}

}  // namespace cpsguard::nn
