#include "monitor/scaler.h"

#include <cmath>
#include <cstdint>
#include <istream>
#include <ostream>

#include "util/contracts.h"
#include "util/stats.h"

namespace cpsguard::monitor {

namespace {
constexpr double kMinStd = 1e-6;
}

void StandardScaler::fit(const nn::Tensor3& x) {
  expects(x.batch() > 0 && x.features() > 0, "cannot fit scaler on empty data");
  const int f_count = x.features();
  std::vector<util::RunningStats> stats(static_cast<std::size_t>(f_count));
  for (int b = 0; b < x.batch(); ++b) {
    for (int t = 0; t < x.time(); ++t) {
      const auto row = x.row(b, t);
      for (int f = 0; f < f_count; ++f) {
        stats[static_cast<std::size_t>(f)].add(row[static_cast<std::size_t>(f)]);
      }
    }
  }
  mean_.assign(static_cast<std::size_t>(f_count), 0.0);
  std_.assign(static_cast<std::size_t>(f_count), 1.0);
  for (int f = 0; f < f_count; ++f) {
    mean_[static_cast<std::size_t>(f)] = stats[static_cast<std::size_t>(f)].mean();
    const double s = stats[static_cast<std::size_t>(f)].stddev();
    std_[static_cast<std::size_t>(f)] = s > kMinStd ? s : 1.0;
  }
}

nn::Tensor3 StandardScaler::transform(const nn::Tensor3& x) const {
  expects(fitted(), "scaler not fitted");
  expects(x.features() == features(), "feature width mismatch");
  nn::Tensor3 out = x;
  for (int b = 0; b < out.batch(); ++b) {
    for (int t = 0; t < out.time(); ++t) {
      auto row = out.row(b, t);
      for (int f = 0; f < features(); ++f) {
        const auto fi = static_cast<std::size_t>(f);
        row[fi] = static_cast<float>((row[fi] - mean_[fi]) / std_[fi]);
      }
    }
  }
  return out;
}

void StandardScaler::transform_row(std::span<float> row) const {
  expects(fitted(), "scaler not fitted");
  expects(static_cast<int>(row.size()) == features(), "feature width mismatch");
  // Exactly the transform() arithmetic (double subtract/divide, one float
  // rounding) so row-scaled and batch-scaled windows agree bit for bit.
  for (int f = 0; f < features(); ++f) {
    const auto fi = static_cast<std::size_t>(f);
    row[fi] = static_cast<float>((row[fi] - mean_[fi]) / std_[fi]);
  }
}

nn::Tensor3 StandardScaler::inverse_transform(const nn::Tensor3& x) const {
  expects(fitted(), "scaler not fitted");
  expects(x.features() == features(), "feature width mismatch");
  nn::Tensor3 out = x;
  for (int b = 0; b < out.batch(); ++b) {
    for (int t = 0; t < out.time(); ++t) {
      auto row = out.row(b, t);
      for (int f = 0; f < features(); ++f) {
        const auto fi = static_cast<std::size_t>(f);
        row[fi] = static_cast<float>(row[fi] * std_[fi] + mean_[fi]);
      }
    }
  }
  return out;
}

double StandardScaler::mean_of(int feature) const {
  expects(feature >= 0 && feature < features(), "feature out of range");
  return mean_[static_cast<std::size_t>(feature)];
}

double StandardScaler::std_of(int feature) const {
  expects(feature >= 0 && feature < features(), "feature out of range");
  return std_[static_cast<std::size_t>(feature)];
}

void StandardScaler::save(std::ostream& os) const {
  expects(fitted(), "scaler not fitted");
  const auto n = static_cast<std::uint32_t>(mean_.size());
  os.write(reinterpret_cast<const char*>(&n), sizeof(n));
  os.write(reinterpret_cast<const char*>(mean_.data()),
           static_cast<std::streamsize>(mean_.size() * sizeof(double)));
  os.write(reinterpret_cast<const char*>(std_.data()),
           static_cast<std::streamsize>(std_.size() * sizeof(double)));
}

void StandardScaler::load(std::istream& is) {
  // Validate before trusting: a corrupt cache entry must fail the load (so
  // the caller retrains) rather than produce a silently garbage monitor.
  // The bound is far above any plausible window feature count but small
  // enough that a corrupt length can't trigger a giant allocation.
  constexpr std::uint32_t kMaxFeatures = 1u << 16;
  std::uint32_t n = 0;
  is.read(reinterpret_cast<char*>(&n), sizeof(n));
  expects(static_cast<bool>(is), "scaler stream truncated");
  expects(n > 0, "scaler stream corrupt: zero features");
  expects(n <= kMaxFeatures, "scaler stream corrupt: implausible feature count");
  std::vector<double> mean(n, 0.0);
  std::vector<double> stdev(n, 1.0);
  is.read(reinterpret_cast<char*>(mean.data()),
          static_cast<std::streamsize>(n * sizeof(double)));
  is.read(reinterpret_cast<char*>(stdev.data()),
          static_cast<std::streamsize>(n * sizeof(double)));
  expects(static_cast<bool>(is), "scaler stream truncated");
  for (std::uint32_t f = 0; f < n; ++f) {
    expects(std::isfinite(mean[f]), "scaler stream corrupt: non-finite mean");
    expects(std::isfinite(stdev[f]) && stdev[f] > 0.0,
            "scaler stream corrupt: std must be finite and positive");
  }
  // Commit only after full validation so a failed load leaves the scaler in
  // its previous (typically unfitted) state.
  mean_ = std::move(mean);
  std_ = std::move(stdev);
}

}  // namespace cpsguard::monitor
