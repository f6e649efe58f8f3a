#include "fuzz/oracles.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <vector>

#include "eval/pr_curve.h"
#include "monitor/dataset.h"
#include "monitor/ml_monitor.h"
#include "nn/activations.h"
#include "nn/classifier.h"
#include "nn/matrix.h"
#include "nn/simd_kernels.h"
#include "safety/cusum.h"
#include "sim/closed_loop.h"
#include "util/contracts.h"
#include "util/error.h"
#include "util/rng.h"

namespace cpsguard::fuzz {

namespace {

// ---- shared helpers -------------------------------------------------------

void record(OracleReport& report, bool ok, const std::string& what) {
  ++report.cases;
  if (ok) return;
  ++report.mismatches;
  if (report.first_mismatch.empty()) report.first_mismatch = what;
}

// Bit-identical per element, except NaN: IEEE does not pin a NaN's payload
// or sign, and x86 picks the propagated payload by *operand position*, which
// the compiler may commute differently in the two loop shapes (inf·0 makes
// the "indefinite" 0xffc00000, an input NaN is 0x7fc00000). So NaN matches
// NaN; every non-NaN value — including ±inf and signed zero — must match
// exactly.
bool bits_equal(const nn::Matrix& a, const nn::Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  if (a.empty() || std::memcmp(a.data().data(), b.data().data(),
                               a.data().size() * sizeof(float)) == 0) {
    return true;
  }
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    const float x = a.data()[i];
    const float y = b.data()[i];
    if (std::memcmp(&x, &y, sizeof(float)) == 0) continue;
    if (std::isnan(x) && std::isnan(y)) continue;
    return false;
  }
  return true;
}

// Random matrix whose entries occasionally include the IEEE specials that
// fault injection can push through the monitor path — the kernels must
// propagate them identically to the naive loops.
nn::Matrix random_matrix(util::Rng& rng, int rows, int cols, bool specials) {
  nn::Matrix m(rows, cols);
  for (float& v : m.data()) {
    if (specials && rng.bernoulli(0.02)) {
      switch (rng.uniform_int(0, 2)) {
        case 0: v = std::numeric_limits<float>::quiet_NaN(); break;
        case 1: v = std::numeric_limits<float>::infinity(); break;
        default: v = -std::numeric_limits<float>::infinity(); break;
      }
    } else {
      v = static_cast<float>(rng.uniform(-4.0, 4.0));
    }
  }
  return m;
}

// ---- naive matmul references ----------------------------------------------
// These are the triple loops the blocked kernels replaced: float
// accumulation in strictly ascending reduction order for matmul/matmul_tn,
// per-element double-precision dots for matmul_nt (the kernels' documented
// contracts — see nn/matrix.cpp).

nn::Matrix naive_matmul(const nn::Matrix& a, const nn::Matrix& b) {
  nn::Matrix c(a.rows(), b.cols());
  for (int i = 0; i < a.rows(); ++i) {
    for (int p = 0; p < a.cols(); ++p) {
      const float av = a.at(i, p);
      for (int j = 0; j < b.cols(); ++j) {
        c.at(i, j) += av * b.at(p, j);
      }
    }
  }
  return c;
}

nn::Matrix naive_matmul_tn(const nn::Matrix& a, const nn::Matrix& b) {
  nn::Matrix c(a.cols(), b.cols());
  for (int i = 0; i < a.rows(); ++i) {  // ascending shared-row reduction
    for (int p = 0; p < a.cols(); ++p) {
      const float av = a.at(i, p);
      for (int j = 0; j < b.cols(); ++j) {
        c.at(p, j) += av * b.at(i, j);
      }
    }
  }
  return c;
}

nn::Matrix naive_matmul_nt(const nn::Matrix& a, const nn::Matrix& b) {
  nn::Matrix c(a.rows(), b.rows());
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < b.rows(); ++j) {
      double acc = 0.0;
      for (int p = 0; p < a.cols(); ++p) {
        acc += static_cast<double>(a.at(i, p)) * b.at(j, p);
      }
      c.at(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

std::string shape_msg(const char* kernel, const nn::Matrix& a,
                      const nn::Matrix& b) {
  return std::string(kernel) + " mismatch at A" + a.shape_str() + " B" +
         b.shape_str();
}

OracleReport oracle_matmul(int cases, std::uint64_t seed, int which) {
  OracleReport report;
  util::Rng rng(seed, 0x4d41544dULL + static_cast<std::uint64_t>(which));
  for (int c = 0; c < cases; ++c) {
    const int n = rng.uniform_int(1, 40);
    const int k = rng.uniform_int(1, 40);
    const int m = rng.uniform_int(1, 40);
    const bool specials = rng.bernoulli(0.5);
    switch (which) {
      case 0: {
        const auto a = random_matrix(rng, n, k, specials);
        const auto b = random_matrix(rng, k, m, specials);
        record(report, bits_equal(nn::matmul(a, b), naive_matmul(a, b)),
               shape_msg("matmul", a, b));
        break;
      }
      case 1: {
        const auto a = random_matrix(rng, n, k, specials);
        const auto b = random_matrix(rng, n, m, specials);
        record(report, bits_equal(nn::matmul_tn(a, b), naive_matmul_tn(a, b)),
               shape_msg("matmul_tn", a, b));
        break;
      }
      default: {
        const auto a = random_matrix(rng, n, k, specials);
        const auto b = random_matrix(rng, m, k, specials);
        record(report, bits_equal(nn::matmul_nt(a, b), naive_matmul_nt(a, b)),
               shape_msg("matmul_nt", a, b));
        break;
      }
    }
  }
  return report;
}

// ---- gate math --------------------------------------------------------------

// Every SIMD sigmoid/tanh kernel this CPU supports vs. the scalar ports,
// exact bits with no NaN tolerance: the kernels promise the ports' NaN
// payloads too. One case is one 65 536-pattern block of the float bit
// space. Blocks are visited in a seeded order that is a permutation of all
// 2^16 blocks (an odd stride is a bijection mod 2^16), so cases = 65536 is
// the exhaustive sweep for any seed. A host with no SIMD kernel has nothing
// to compare and reports every block clean.
OracleReport oracle_gate_math(int cases, std::uint64_t seed) {
  OracleReport report;
  constexpr std::uint32_t kBlock = 1u << 16;
  util::Rng rng(seed, 0x47415445ULL);
  const std::uint32_t offset = rng() & (kBlock - 1);
  const std::uint32_t stride = (rng() | 1u) & (kBlock - 1);
  std::vector<float> x(kBlock), want_sigmoid(kBlock), want_tanh(kBlock),
      got(kBlock);
  // Empty when `simd` reproduces `want` exactly, else the first difference.
  const auto check = [&](const char* kernel, const char* fn,
                         nn::GateRowsFn simd, const std::vector<float>& want) {
    simd(x.data(), got.data(), static_cast<int>(kBlock));
    if (std::memcmp(want.data(), got.data(), kBlock * sizeof(float)) == 0) {
      return std::string();
    }
    std::uint32_t i = 0;
    while (std::bit_cast<std::uint32_t>(want[i]) ==
           std::bit_cast<std::uint32_t>(got[i])) {
      ++i;
    }
    char msg[128];
    std::snprintf(msg, sizeof msg, "%s %s at x=0x%08x: got 0x%08x want 0x%08x",
                  kernel, fn, std::bit_cast<std::uint32_t>(x[i]),
                  std::bit_cast<std::uint32_t>(got[i]),
                  std::bit_cast<std::uint32_t>(want[i]));
    return std::string(msg);
  };
  for (int c = 0; c < cases; ++c) {
    const std::uint32_t block =
        (offset + stride * static_cast<std::uint32_t>(c)) & (kBlock - 1);
    for (std::uint32_t i = 0; i < kBlock; ++i) {
      x[i] = std::bit_cast<float>(block << 16 | i);
      want_sigmoid[i] = nn::sigmoid(x[i]);
      want_tanh[i] = nn::tanhf_port(x[i]);
    }
    std::string mismatch;
    for (const auto& k : nn::supported_simd_kernels()) {
      if (mismatch.empty() && k.sigmoid != nullptr) {
        mismatch = check(k.name, "sigmoid", k.sigmoid, want_sigmoid);
      }
      if (mismatch.empty() && k.tanh != nullptr) {
        mismatch = check(k.name, "tanh", k.tanh, want_tanh);
      }
    }
    record(report, mismatch.empty(), mismatch);
  }
  return report;
}

// ---- batched predict ------------------------------------------------------

// One tiny trained monitor, built once: training is the expensive part and
// the oracle only needs fixed weights to compare batched vs. per-row paths.
monitor::MlMonitor& oracle_monitor(const monitor::Dataset& ds) {
  static monitor::MlMonitor mon = [&] {
    monitor::MonitorConfig cfg;
    cfg.arch = monitor::Arch::kMlp;
    cfg.hidden = {16, 8};
    cfg.epochs = 2;
    cfg.seed = 7;
    monitor::MlMonitor m(cfg);
    m.train(ds);
    return m;
  }();
  return mon;
}

const monitor::Dataset& oracle_dataset() {
  static const monitor::Dataset ds = [] {
    std::vector<sim::Trace> traces;
    auto patient = sim::make_patient(sim::Testbed::kGlucosymOpenAps);
    auto controller = sim::make_controller(sim::Testbed::kGlucosymOpenAps);
    const auto profiles =
        sim::testbed_profiles(sim::Testbed::kGlucosymOpenAps, 2, 5);
    util::Rng rng(11);
    for (int i = 0; i < 4; ++i) {
      sim::SimConfig cfg;
      cfg.steps = 50;
      cfg.inject_fault = (i % 2 == 0);
      traces.push_back(run_closed_loop(
          *patient, *controller, profiles[static_cast<std::size_t>(i % 2)],
          cfg, rng));
    }
    return monitor::build_dataset(traces, monitor::DatasetConfig{});
  }();
  return ds;
}

// A randomly initialised paper-size MLP (Dense 256-128-2 over 6x9 windows).
// From 43 rows its stack passes the fan-out rule, which the tiny trained
// monitor's {16, 8} stack never does.
const nn::MlpClassifier& oracle_paper_mlp() {
  static const nn::MlpClassifier clf = [] {
    util::Rng rng(13);
    return nn::MlpClassifier(6, 9, {256, 128}, 2, rng);
  }();
  return clf;
}

// Every window predicted alone must reproduce its batched row bit for bit
// (row-local forward passes, the documented batch_eval determinism contract
// that serve's partial flushes rely on).
template <typename Predict>
bool rows_match_alone(const nn::Tensor3& windows, const Predict& predict) {
  const nn::Matrix batched = predict(windows);
  bool ok = batched.rows() == windows.batch();
  for (int r = 0; ok && r < windows.batch(); ++r) {
    const int one[] = {r};
    const nn::Matrix row = predict(windows.gather(one));
    ok = row.rows() == 1 && row.cols() == batched.cols() &&
         std::memcmp(row.row(0).data(), batched.row(r).data(),
                     static_cast<std::size_t>(row.cols()) * sizeof(float)) == 0;
  }
  return ok;
}

OracleReport oracle_batched_predict(int cases, std::uint64_t seed) {
  OracleReport report;
  const monitor::Dataset& ds = oracle_dataset();
  const monitor::MlMonitor& mon = oracle_monitor(ds);
  const nn::MlpClassifier& mlp = oracle_paper_mlp();
  util::Rng rng(seed, 0x42415443ULL);
  for (int c = 0; c < cases; ++c) {
    bool ok = false;
    int batch = 0;
    if (c % 2 == 0) {
      // Random batch of simulator windows on the trained monitor.
      batch = rng.uniform_int(1, ds.size());
      std::vector<int> idx(static_cast<std::size_t>(batch));
      for (int& i : idx) i = rng.uniform_int(0, ds.size() - 1);
      ok = rows_match_alone(ds.x.gather(idx), [&](const nn::Tensor3& w) {
        return mon.predict_proba(w);
      });
    } else {
      // Random windows on the paper-size MLP.
      batch = rng.uniform_int(1, 300);
      nn::Tensor3 windows(batch, mlp.time_steps(), mlp.features());
      for (float& v : windows.data()) v = static_cast<float>(rng.uniform(-3.0, 3.0));
      ok = rows_match_alone(windows, [&](const nn::Tensor3& w) {
        return mlp.predict_proba(w);
      });
    }
    record(report, ok,
           "batched_predict mismatch at batch=" + std::to_string(batch));
  }
  return report;
}

// ---- cusum ----------------------------------------------------------------

OracleReport oracle_cusum(int cases, std::uint64_t seed) {
  OracleReport report;
  util::Rng rng(seed, 0x435553554dULL);
  for (int c = 0; c < cases; ++c) {
    safety::CusumConfig cfg;
    cfg.target_mean = rng.uniform(-2.0, 2.0);
    cfg.slack = rng.uniform(0.0, 1.0);
    cfg.threshold = rng.uniform(0.1, 6.0);
    const int n = rng.uniform_int(1, 200);
    std::vector<double> signal(static_cast<std::size_t>(n));
    for (double& v : signal) {
      if (rng.bernoulli(0.01)) {
        v = rng.bernoulli(0.5) ? std::numeric_limits<double>::infinity()
                               : -std::numeric_limits<double>::infinity();
      } else {
        v = cfg.target_mean + rng.gaussian(0.0, 1.5);
      }
    }

    // Streaming: one detector fed sample by sample.
    safety::CusumDetector streaming(cfg);
    int streaming_alarm = -1;
    for (int i = 0; i < n; ++i) {
      if (streaming.step(signal[static_cast<std::size_t>(i)]) &&
          streaming_alarm < 0) {
        streaming_alarm = i;
      }
    }

    // Batch recompute: the CUSUM recurrence re-derived from scratch.
    double s_pos = 0.0, s_neg = 0.0;
    int batch_alarm = -1;
    for (int i = 0; i < n; ++i) {
      const double dev = signal[static_cast<std::size_t>(i)] - cfg.target_mean;
      s_pos = std::max(0.0, s_pos + dev - cfg.slack);
      s_neg = std::max(0.0, s_neg - dev - cfg.slack);
      if ((s_pos > cfg.threshold || s_neg > cfg.threshold) && batch_alarm < 0) {
        batch_alarm = i;
      }
    }

    // And the public batch API must agree on the first alarm.
    safety::CusumDetector api(cfg);
    const int api_alarm = api.first_alarm(signal);

    const bool ok = streaming_alarm == batch_alarm &&
                    api_alarm == batch_alarm &&
                    streaming.positive_sum() == s_pos &&
                    streaming.negative_sum() == s_neg;
    record(report, ok, "cusum mismatch at case " + std::to_string(c));
  }
  return report;
}

// ---- pr curve -------------------------------------------------------------

struct PrReference {
  std::vector<eval::PrPoint> curve;
  double ap = 0.0;
};

// O(n²) reference: for every distinct threshold (descending), count tp/fp
// by scanning the whole input.
PrReference naive_pr(const std::vector<double>& scores,
                     const std::vector<int>& labels) {
  PrReference ref;
  std::vector<double> thresholds;
  for (const double s : scores) {
    bool seen = false;
    for (const double t : thresholds) seen = seen || t == s;
    if (!seen) thresholds.push_back(s);
  }
  std::sort(thresholds.begin(), thresholds.end(), std::greater<>());
  long total_positives = 0;
  for (const int y : labels) total_positives += y > 0 ? 1 : 0;
  double prev_recall = 0.0;
  for (const double t : thresholds) {
    long tp = 0, fp = 0;
    for (std::size_t i = 0; i < scores.size(); ++i) {
      if (scores[i] >= t) {
        if (labels[i] > 0) ++tp; else ++fp;
      }
    }
    eval::PrPoint p;
    p.threshold = t;
    p.precision = static_cast<double>(tp) / static_cast<double>(tp + fp);
    p.recall = total_positives == 0
                   ? 0.0
                   : static_cast<double>(tp) /
                         static_cast<double>(total_positives);
    ref.ap += (p.recall - prev_recall) * p.precision;
    prev_recall = p.recall;
    ref.curve.push_back(p);
  }
  return ref;
}

OracleReport oracle_pr_curve(int cases, std::uint64_t seed) {
  OracleReport report;
  util::Rng rng(seed, 0x50524356ULL);
  for (int c = 0; c < cases; ++c) {
    const int n = rng.uniform_int(1, 60);
    std::vector<double> scores(static_cast<std::size_t>(n));
    std::vector<int> labels(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      // Deliberately collision-heavy scores (small discrete grid) plus
      // occasional ±inf: tie handling is where curve bugs live.
      if (rng.bernoulli(0.05)) {
        scores[static_cast<std::size_t>(i)] =
            rng.bernoulli(0.5) ? std::numeric_limits<double>::infinity()
                               : -std::numeric_limits<double>::infinity();
      } else {
        scores[static_cast<std::size_t>(i)] = rng.uniform_int(0, 8) / 8.0;
      }
      labels[static_cast<std::size_t>(i)] = rng.bernoulli(0.3) ? 1 : 0;
    }

    const auto curve = eval::precision_recall_curve(scores, labels);
    const double ap = eval::average_precision(scores, labels);
    const PrReference ref = naive_pr(scores, labels);

    bool ok = curve.size() == ref.curve.size() && ap == ref.ap;
    for (std::size_t i = 0; ok && i < curve.size(); ++i) {
      ok = curve[i].threshold == ref.curve[i].threshold &&
           curve[i].precision == ref.curve[i].precision &&
           curve[i].recall == ref.curve[i].recall;
    }
    record(report, ok, "pr_curve mismatch at case " + std::to_string(c));

    // The documented NaN policy must actually hold: one NaN score ⇒
    // ContractViolation, never a sorted-in NaN.
    std::vector<double> poisoned = scores;
    poisoned[static_cast<std::size_t>(rng.uniform_int(0, n - 1))] =
        std::numeric_limits<double>::quiet_NaN();
    bool rejected = false;
    try {
      (void)eval::precision_recall_curve(poisoned, labels);
    } catch (const ContractViolation&) {
      rejected = true;
    }
    record(report, rejected,
           "pr_curve accepted a NaN score at case " + std::to_string(c));
  }
  return report;
}

}  // namespace

const std::vector<std::string>& oracle_names() {
  static const std::vector<std::string> names = {
      "matmul", "matmul_tn", "matmul_nt", "gate_math", "batched_predict",
      "cusum", "pr_curve"};
  return names;
}

OracleReport run_oracle(const std::string& name, int cases,
                        std::uint64_t seed) {
  OracleReport report;
  if (name == "matmul") {
    report = oracle_matmul(cases, seed, 0);
  } else if (name == "matmul_tn") {
    report = oracle_matmul(cases, seed, 1);
  } else if (name == "matmul_nt") {
    report = oracle_matmul(cases, seed, 2);
  } else if (name == "gate_math") {
    report = oracle_gate_math(cases, seed);
  } else if (name == "batched_predict") {
    report = oracle_batched_predict(cases, seed);
  } else if (name == "cusum") {
    report = oracle_cusum(cases, seed);
  } else if (name == "pr_curve") {
    report = oracle_pr_curve(cases, seed);
  } else {
    throw CpsError("unknown oracle: " + name);
  }
  report.name = name;
  return report;
}

}  // namespace cpsguard::fuzz
