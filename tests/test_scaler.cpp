#include "monitor/scaler.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <vector>

#include "util/contracts.h"
#include "util/rng.h"
#include "util/stats.h"

namespace cpsguard::monitor {
namespace {

nn::Tensor3 random_data(int b, int t, int f, util::Rng& rng) {
  nn::Tensor3 x(b, t, f);
  for (int bi = 0; bi < b; ++bi) {
    for (int ti = 0; ti < t; ++ti) {
      for (int fi = 0; fi < f; ++fi) {
        // Each feature has its own scale/offset.
        x.at(bi, ti, fi) =
            static_cast<float>(rng.gaussian(10.0 * fi, 1.0 + fi));
      }
    }
  }
  return x;
}

TEST(Scaler, TransformStandardizesEachFeature) {
  util::Rng rng(1);
  const nn::Tensor3 x = random_data(200, 3, 4, rng);
  StandardScaler scaler;
  scaler.fit(x);
  const nn::Tensor3 z = scaler.transform(x);
  for (int f = 0; f < 4; ++f) {
    util::RunningStats s;
    for (int b = 0; b < z.batch(); ++b) {
      for (int t = 0; t < z.time(); ++t) s.add(z.at(b, t, f));
    }
    EXPECT_NEAR(s.mean(), 0.0, 1e-3) << "feature " << f;
    EXPECT_NEAR(s.stddev(), 1.0, 1e-2) << "feature " << f;
  }
}

TEST(Scaler, InverseTransformRoundtrips) {
  util::Rng rng(2);
  const nn::Tensor3 x = random_data(50, 2, 3, rng);
  StandardScaler scaler;
  scaler.fit(x);
  const nn::Tensor3 back = scaler.inverse_transform(scaler.transform(x));
  for (int b = 0; b < x.batch(); ++b) {
    for (int t = 0; t < x.time(); ++t) {
      for (int f = 0; f < x.features(); ++f) {
        EXPECT_NEAR(back.at(b, t, f), x.at(b, t, f), 1e-2);
      }
    }
  }
}

TEST(Scaler, StdOfReportsRawUnits) {
  util::Rng rng(3);
  const nn::Tensor3 x = random_data(400, 2, 3, rng);
  StandardScaler scaler;
  scaler.fit(x);
  // Feature 2 was generated with std 3.
  EXPECT_NEAR(scaler.std_of(2), 3.0, 0.15);
  EXPECT_NEAR(scaler.mean_of(2), 20.0, 0.3);
}

TEST(Scaler, ConstantFeaturePassesThroughCentered) {
  nn::Tensor3 x(10, 1, 2);
  for (int b = 0; b < 10; ++b) {
    x.at(b, 0, 0) = 7.0f;                        // constant
    x.at(b, 0, 1) = static_cast<float>(b);       // varying
  }
  StandardScaler scaler;
  scaler.fit(x);
  const nn::Tensor3 z = scaler.transform(x);
  for (int b = 0; b < 10; ++b) {
    EXPECT_FLOAT_EQ(z.at(b, 0, 0), 0.0f);  // centered, unit divisor
  }
  EXPECT_DOUBLE_EQ(scaler.std_of(0), 1.0);
}

TEST(Scaler, TransformRowBitIdenticalToBatchOnPathologicalFloats) {
  // The serve engine scales each staged window via transform_row; its
  // byte-identity contract vs offline evaluation rests on transform_row
  // producing the same bits as transform() — including on NaN, +/-inf and
  // denormal inputs a hostile or buggy sensor stream could feed it.
  util::Rng rng(8);
  const int features = 5;
  const nn::Tensor3 train = random_data(100, 2, features, rng);
  StandardScaler scaler;
  scaler.fit(train);

  const float kNan = std::numeric_limits<float>::quiet_NaN();
  const float kInf = std::numeric_limits<float>::infinity();
  const float kDenorm = std::numeric_limits<float>::denorm_min();
  const float kTiny = std::numeric_limits<float>::min() / 4.0f;  // subnormal
  const std::vector<std::vector<float>> rows = {
      {kNan, kInf, -kInf, kDenorm, kTiny},
      {-kDenorm, kNan, 0.0f, -0.0f, kInf},
      {std::numeric_limits<float>::max(), std::numeric_limits<float>::lowest(),
       kDenorm, -kTiny, kNan},
      {1.0f, -2.5f, kInf, kDenorm, 42.0f},  // mixed normal/pathological
  };

  nn::Tensor3 batch(static_cast<int>(rows.size()), 1, features);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (int f = 0; f < features; ++f) {
      batch.at(static_cast<int>(r), 0, f) = rows[r][static_cast<std::size_t>(f)];
    }
  }
  const nn::Tensor3 z = scaler.transform(batch);

  for (std::size_t r = 0; r < rows.size(); ++r) {
    std::vector<float> row = rows[r];
    scaler.transform_row(row);
    for (int f = 0; f < features; ++f) {
      std::uint32_t row_bits = 0, batch_bits = 0;
      static_assert(sizeof(row_bits) == sizeof(float));
      std::memcpy(&row_bits, &row[static_cast<std::size_t>(f)],
                  sizeof(row_bits));
      const float zb = z.at(static_cast<int>(r), 0, f);
      std::memcpy(&batch_bits, &zb, sizeof(batch_bits));
      EXPECT_EQ(row_bits, batch_bits)
          << "row " << r << " feature " << f << ": transform_row "
          << row[static_cast<std::size_t>(f)] << " vs transform " << zb;
    }
  }
}

TEST(Scaler, SaveLoadRoundtrip) {
  util::Rng rng(4);
  const nn::Tensor3 x = random_data(30, 2, 5, rng);
  StandardScaler a;
  a.fit(x);
  std::stringstream ss;
  a.save(ss);
  StandardScaler b;
  b.load(ss);
  ASSERT_EQ(b.features(), 5);
  for (int f = 0; f < 5; ++f) {
    EXPECT_DOUBLE_EQ(b.mean_of(f), a.mean_of(f));
    EXPECT_DOUBLE_EQ(b.std_of(f), a.std_of(f));
  }
}

TEST(Scaler, UnfittedOperationsThrow) {
  StandardScaler scaler;
  EXPECT_FALSE(scaler.fitted());
  nn::Tensor3 x(1, 1, 1);
  EXPECT_THROW(scaler.transform(x), cpsguard::ContractViolation);
  EXPECT_THROW((void)scaler.std_of(0), cpsguard::ContractViolation);
  std::stringstream ss;
  EXPECT_THROW(scaler.save(ss), cpsguard::ContractViolation);
}

TEST(Scaler, FeatureWidthMismatchThrows) {
  util::Rng rng(5);
  const nn::Tensor3 x = random_data(10, 1, 3, rng);
  StandardScaler scaler;
  scaler.fit(x);
  const nn::Tensor3 wrong = random_data(10, 1, 4, rng);
  EXPECT_THROW(scaler.transform(wrong), cpsguard::ContractViolation);
}

TEST(Scaler, LoadTruncatedStreamThrows) {
  StandardScaler scaler;
  std::stringstream ss("abc");
  EXPECT_THROW(scaler.load(ss), cpsguard::ContractViolation);
}

// Corrupt-cache hardening: load() must reject streams whose header or
// payload is implausible instead of trusting them, and a failed load must
// leave the scaler unfitted so the caller falls back to retraining.

namespace {

// Serialize a scaler image with the given header and payload vectors.
std::stringstream corrupt_stream(std::uint32_t n, const std::vector<double>& mean,
                                 const std::vector<double>& stdev) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  ss.write(reinterpret_cast<const char*>(&n), sizeof(n));
  ss.write(reinterpret_cast<const char*>(mean.data()),
           static_cast<std::streamsize>(mean.size() * sizeof(double)));
  ss.write(reinterpret_cast<const char*>(stdev.data()),
           static_cast<std::streamsize>(stdev.size() * sizeof(double)));
  return ss;
}

}  // namespace

TEST(Scaler, LoadRejectsZeroFeatureCount) {
  StandardScaler scaler;
  auto ss = corrupt_stream(0, {}, {});
  EXPECT_THROW(scaler.load(ss), cpsguard::ContractViolation);
  EXPECT_FALSE(scaler.fitted());
}

TEST(Scaler, LoadRejectsImplausibleFeatureCount) {
  StandardScaler scaler;
  // A giant header must fail the bound check, not attempt the allocation.
  auto ss = corrupt_stream(0xFFFFFFFFu, {}, {});
  EXPECT_THROW(scaler.load(ss), cpsguard::ContractViolation);
  EXPECT_FALSE(scaler.fitted());
}

TEST(Scaler, LoadRejectsNonFiniteMean) {
  StandardScaler scaler;
  auto ss = corrupt_stream(
      2, {1.0, std::numeric_limits<double>::quiet_NaN()}, {1.0, 1.0});
  EXPECT_THROW(scaler.load(ss), cpsguard::ContractViolation);
  EXPECT_FALSE(scaler.fitted());
}

TEST(Scaler, LoadRejectsNonPositiveOrNonFiniteStd) {
  for (const double bad : {0.0, -1.0, std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    StandardScaler scaler;
    auto ss = corrupt_stream(2, {1.0, 2.0}, {1.0, bad});
    EXPECT_THROW(scaler.load(ss), cpsguard::ContractViolation) << "std " << bad;
    EXPECT_FALSE(scaler.fitted());
  }
}

TEST(Scaler, FailedLoadPreservesPreviousState) {
  util::Rng rng(6);
  const nn::Tensor3 x = random_data(20, 1, 3, rng);
  StandardScaler scaler;
  scaler.fit(x);
  const double mean0 = scaler.mean_of(0);
  auto ss = corrupt_stream(1, {std::numeric_limits<double>::quiet_NaN()}, {1.0});
  EXPECT_THROW(scaler.load(ss), cpsguard::ContractViolation);
  ASSERT_TRUE(scaler.fitted());
  EXPECT_DOUBLE_EQ(scaler.mean_of(0), mean0);  // untouched by the bad load
}

}  // namespace
}  // namespace cpsguard::monitor
