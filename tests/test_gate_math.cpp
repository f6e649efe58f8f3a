// Gate nonlinearities: the scalar ports of glibc's expf and fdlibm's tanhf,
// and every SIMD sigmoid/tanh kernel this CPU supports against them, bit for
// bit. The exhaustive all-2^32 sweep is the gate_math fuzz oracle
// (`fuzz_driver --oracle=gate_math --cases=65536`); these cases pin the
// branch edges, NaN payloads, row tails and the recurrent cells end to end.
#include "nn/activations.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "nn/gru_classifier.h"
#include "nn/lstm_classifier.h"
#include "nn/simd_kernels.h"
#include "util/rng.h"

namespace cpsguard::nn {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

std::uint32_t bits(float x) { return std::bit_cast<std::uint32_t>(x); }
float from_bits(std::uint32_t u) { return std::bit_cast<float>(u); }

// Both signs of every branch edge of the ports and its two neighbours: ±0,
// subnormals, tanhf's 2^-55 / 1 / 22 cut-offs, expm1f's 2^-25 / 0.5 ln2 /
// 1.5 ln2 reduction edges (at half the argument, where tanhf calls it),
// expf's |x| >= 88 special-path entry and its overflow and underflow
// bounds, the two inputs whose expf result depends on the fused r, the
// largest finite float, ±inf, and NaNs with payloads (quiet and
// signalling).
std::vector<float> edge_inputs() {
  const std::uint32_t edges[] = {
      0x00000000, 0x00000001, 0x007fffff, 0x00800000, 0x24000000,
      0x32800000, 0x3e317218, 0x3e851592, 0x3f800000, 0x41b00000,
      0x42b00000, 0x42b17217, 0x42b17218, 0x42cff1b4, 0x42ce8ecf,
      0x4202422f, 0x427c65d9, 0x7f7fffff, 0x7f800000, 0x7f800001,
      0x7fa00000, 0x7fc00000, 0x7fc12345, 0x7fffffff};
  std::vector<float> out;
  for (const std::uint32_t e : edges) {
    for (const std::uint32_t u : {e - 1, e, e + 1}) {
      if ((u & 0x7fffffffu) != u) continue;  // 0 - 1 wraps
      out.push_back(from_bits(u));
      out.push_back(from_bits(u | 0x80000000u));
    }
  }
  return out;
}

// The dispatched row functions under one kernel set each, so the portable
// fallback and every narrower SIMD kernel run on a wide host too.
template <class Body>
void for_each_kernel(Body body) {
  for (const SimdKernels& kernels : supported_simd_kernels()) {
    SCOPED_TRACE(kernels.name);
    const ScopedSimdKernels use(kernels);
    body();
  }
}

void expect_rows_match_ports(const std::vector<float>& x) {
  std::vector<float> sig(x.size()), tnh(x.size());
  sigmoid_rows(x, sig);
  tanh_rows(x, tnh);
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_EQ(bits(sig[i]), bits(sigmoid(x[i]))) << "sigmoid x=" << std::hexfloat << x[i];
    ASSERT_EQ(bits(tnh[i]), bits(tanhf_port(x[i]))) << "tanh x=" << std::hexfloat << x[i];
  }
}

TEST(GatePorts, SpecialValues) {
  EXPECT_EQ(expf_port(0.0f), 1.0f);
  EXPECT_EQ(expf_port(-0.0f), 1.0f);
  EXPECT_EQ(expf_port(-kInf), 0.0f);
  EXPECT_EQ(expf_port(kInf), kInf);
  EXPECT_EQ(expf_port(89.0f), kInf);
  EXPECT_EQ(bits(expf_port(-104.0f)), 0u);
  EXPECT_EQ(bits(expf_port(-103.5f)), 1u);  // rounds up to the least subnormal
  // glibc's bits where only the fused r = InvLn2N*x - k gets them: with r
  // unfused both results differ.
  EXPECT_EQ(bits(expf_port(from_bits(0x4202422f))), 0x56fc9f1cu);
  EXPECT_EQ(bits(expf_port(from_bits(0xc27c65d9))), 0x11fa2993u);

  EXPECT_EQ(bits(tanhf_port(0.0f)), 0u);
  EXPECT_EQ(bits(tanhf_port(-0.0f)), 0x80000000u);
  EXPECT_EQ(tanhf_port(from_bits(1)), from_bits(1));
  EXPECT_EQ(tanhf_port(kInf), 1.0f);
  EXPECT_EQ(tanhf_port(-kInf), -1.0f);
  EXPECT_EQ(tanhf_port(22.0f), 1.0f);
  EXPECT_EQ(tanhf_port(-30.0f), -1.0f);

  EXPECT_EQ(sigmoid(0.0f), 0.5f);
  EXPECT_EQ(sigmoid(-0.0f), 0.5f);
  EXPECT_EQ(sigmoid(kInf), 1.0f);
  EXPECT_EQ(bits(sigmoid(-kInf)), 0u);
}

// NaN in, the same NaN out (quietened, sign and payload kept): a clamp or
// a min/max in any of them would turn a lost sensor into a confident 0/1.
TEST(GatePorts, PropagateNanPayloads) {
  for (const std::uint32_t nan : {0x7fc12345u, 0xffc00001u, 0x7fa00000u}) {
    const std::uint32_t quiet = nan | 0x00400000u;
    EXPECT_EQ(bits(expf_port(from_bits(nan))), quiet);
    EXPECT_EQ(bits(tanhf_port(from_bits(nan))), quiet);
    EXPECT_EQ(bits(sigmoid(from_bits(nan))), quiet);
  }
}

// Independent of any libm: within one float ulp of the double-precision
// function, over a sweep that crosses every branch of both ports.
TEST(GatePorts, WithinOneUlpOfDoublePrecision) {
  const auto ulp_distance = [](float a, float b) {
    const auto key = [](float v) {
      const auto u = static_cast<std::int64_t>(bits(v));
      return u & 0x80000000 ? 0x80000000 - u : u;
    };
    return std::abs(key(a) - key(b));
  };
  for (float x = -110.0f; x < 88.5f; x += 0.0137f) {  // exp(88.5) is finite
    EXPECT_LE(ulp_distance(expf_port(x), static_cast<float>(std::exp(double{x}))), 1)
        << std::hexfloat << x;
    EXPECT_LE(ulp_distance(tanhf_port(x), static_cast<float>(std::tanh(double{x}))), 1)
        << std::hexfloat << x;
  }
  for (float x = 1e-12f; x < 1.0f; x *= 1.37f) {
    for (const float s : {x, -x}) {
      EXPECT_LE(ulp_distance(tanhf_port(s), static_cast<float>(std::tanh(double{s}))), 1)
          << std::hexfloat << s;
    }
  }
}

TEST(GateKernels, SupportedSetsEndWithPortable) {
  const auto& sets = supported_simd_kernels();
  ASSERT_FALSE(sets.empty());
  EXPECT_STREQ(sets.front().name, simd_kernel_name());
  EXPECT_STREQ(sets.back().name, "portable");
  EXPECT_EQ(sets.back().sigmoid, nullptr);
  EXPECT_EQ(sets.back().tanh, nullptr);
}

TEST(GateKernels, ScopedKernelsRestoreTheDispatchedSet) {
  const char* widest = simd_kernel_name();
  {
    const ScopedSimdKernels use(supported_simd_kernels().back());
    EXPECT_STREQ(simd_kernel_name(), "portable");
    EXPECT_EQ(simd_sigmoid_rows(), nullptr);
  }
  EXPECT_STREQ(simd_kernel_name(), widest);
}

TEST(GateKernels, EveryKernelMatchesPortsOnEdgeInputs) {
  const std::vector<float> x = edge_inputs();
  for_each_kernel([&] { expect_rows_match_ports(x); });
}

// Whole 2^16-pattern blocks where the branches are: ±0 and subnormals,
// tanhf's |x| < 1 and >= 1 halves, its saturation at 22, expf's overflow and
// underflow edges, and the quiet/signalling NaNs of both signs.
TEST(GateKernels, EveryKernelMatchesPortsOnBranchBlocks) {
  for (const std::uint32_t block :
       {0x0000u, 0x3f7fu, 0x3f80u, 0x41afu, 0x42b1u, 0x42cfu, 0x7f80u, 0x7fc0u,
        0x8000u, 0xbf7fu, 0xbf80u, 0xc1b0u, 0xc2cfu, 0xff80u, 0xffc0u}) {
    std::vector<float> x(1u << 16);
    for (std::uint32_t i = 0; i < x.size(); ++i) x[i] = from_bits(block << 16 | i);
    for_each_kernel([&] { expect_rows_match_ports(x); });
  }
}

// Every length through the vector tails, in place and out of place, and
// never a write past the row.
TEST(GateKernels, EveryLengthInPlaceWithoutOverrun) {
  util::Rng rng(17);
  for_each_kernel([&] {
    for (std::size_t n = 0; n <= 40; ++n) {
      std::vector<float> x(n + 1);
      for (float& v : x) v = static_cast<float>(rng.gaussian(0.0, 4.0));
      const float guard = x[n];
      const std::span<float> row(x.data(), n);
      std::vector<float> want(n);
      for (std::size_t i = 0; i < n; ++i) want[i] = tanhf_port(x[i]);
      tanh_rows(row, row);
      for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(bits(x[i]), bits(want[i])) << n;
      for (std::size_t i = 0; i < n; ++i) want[i] = sigmoid(x[i]);
      sigmoid_rows(row, row);
      for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(bits(x[i]), bits(want[i])) << n;
      ASSERT_EQ(bits(x[n]), bits(guard)) << "overrun at n=" << n;
    }
  });
}

// One NaN feature (kSensorLoss) must poison both class probabilities of its
// window — never a confident verdict — and leave the other windows alone,
// for the LSTM and the GRU on every kernel. Hidden sizes 20 and 7 leave a
// partial vector at every width.
TEST(GateKernels, NanFeatureGivesNanProbabilitiesOnEveryKernel) {
  util::Rng rng(23);
  std::vector<std::unique_ptr<Classifier>> models;
  models.push_back(std::make_unique<LstmClassifier>(6, 9, std::vector<int>{20, 7}, 2, rng));
  models.push_back(std::make_unique<GruClassifier>(6, 9, std::vector<int>{20, 7}, 2, rng));
  Tensor3 x(3, 6, 9);
  for (float& v : x.data()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  x.at(1, 4, 2) = std::numeric_limits<float>::quiet_NaN();
  for (const auto& model : models) {
    const Matrix want = [&] {
      const ScopedSimdKernels use(supported_simd_kernels().back());
      return model->predict_proba(x);
    }();
    for_each_kernel([&] {
      const Matrix p = model->predict_proba(x);
      EXPECT_TRUE(std::isnan(p.at(1, 0)));
      EXPECT_TRUE(std::isnan(p.at(1, 1)));
      for (const int r : {0, 2}) {
        EXPECT_TRUE(std::isfinite(p.at(r, 0)) && std::isfinite(p.at(r, 1)));
        EXPECT_EQ(bits(p.at(r, 0)), bits(want.at(r, 0)));
        EXPECT_EQ(bits(p.at(r, 1)), bits(want.at(r, 1)));
      }
    });
  }
}

}  // namespace
}  // namespace cpsguard::nn
