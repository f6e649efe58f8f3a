#include "probes.h"

#include <string>
#include <utility>
#include <vector>

#include "eval/batch_eval.h"
#include "monitor/features.h"
#include "nn/dense.h"
#include "nn/lstm.h"
#include "nn/matrix.h"
#include "util/rng.h"

namespace cpsguard::suite {

namespace {

constexpr int kWindowSteps = 6;

// The paper's MLP (54-256-128-2, window 6 x 9 features) and LSTM
// (128-64, head 64-2) layer shapes.
constexpr std::pair<int, int> kDenseShapes[] = {
    {54, 256}, {256, 128}, {128, 2}, {64, 2}};
constexpr std::pair<int, int> kLstmShapes[] = {{9, 128}, {128, 64}};
// GEMMs of the MLP's two hidden layers and of the first LSTM layer's
// recurrent product (h_{t-1} times the fused 4-gate weights).
constexpr std::pair<int, int> kGemmShapes[] = {
    {54, 256}, {256, 128}, {128, 512}};

// Keeps probe results observable so the timed calls cannot be elided.
volatile float g_sink = 0.0f;

nn::Matrix random_matrix(int rows, int cols, util::Rng& rng) {
  nn::Matrix m(rows, cols);
  for (float& v : m.data()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return m;
}

nn::Tensor3 random_tensor(int batch, int time, int features, util::Rng& rng) {
  nn::Tensor3 t(batch, time, features);
  for (float& v : t.data()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return t;
}

std::string shape(int in, int out) {
  return std::to_string(in) + "x" + std::to_string(out);
}

nn::Tensor3 head(const nn::Tensor3& x, int rows) {
  nn::Tensor3 out(rows, x.time(), x.features());
  std::copy(x.data().begin(), x.data().begin() + out.size(),
            out.data().begin());
  return out;
}

}  // namespace

void run_layer_probes(const ProbeInput& in, Metrics& out) {
  const int b = in.batch;
  util::Rng rng(0x50524f42u /* 'PROB' */);
  out.set("nn.probe.batch", b, "count");

  for (const auto& [fan_in, fan_out] : kDenseShapes) {
    nn::Dense dense(fan_in, fan_out, rng);
    const nn::Matrix x = random_matrix(b, fan_in, rng);
    out.set("nn.dense.fwd_us." + shape(fan_in, fan_out),
            median_us([&] { g_sink = dense.forward(x, false).at(0, 0); }),
            "us");
  }
  for (const auto& [fan_in, hidden] : kLstmShapes) {
    nn::LstmLayer lstm(fan_in, hidden, rng);
    const nn::Tensor3 x = random_tensor(b, kWindowSteps, fan_in, rng);
    out.set("nn.lstm.fwd_us." + shape(fan_in, hidden),
            median_us([&] { g_sink = lstm.forward(x).at(0, 0, 0); }), "us");
  }
  {
    const nn::Matrix logits = random_matrix(b, 2, rng);
    out.set("nn.softmax.us",
            median_us([&] { g_sink = nn::softmax_rows(logits).at(0, 0); }),
            "us");
  }
  // Bytes are computed from the tensor sizes (A, B and C each touched
  // once), not measured.
  for (const auto& [k, m] : kGemmShapes) {
    const nn::Matrix a = random_matrix(b, k, rng);
    const nn::Matrix w = random_matrix(k, m, rng);
    const double us = median_us([&] { g_sink = nn::matmul(a, w).at(0, 0); });
    const double flops = 2.0 * b * k * m;
    out.set("nn.matmul.gflops." + shape(k, m), flops / (us * 1e3), "GFLOP/s");
    out.set("nn.matmul.bytes." + shape(k, m),
            4.0 * (static_cast<double>(b) * k + static_cast<double>(k) * m +
                   static_cast<double>(b) * m),
            "B");
  }

  monitor::MlMonitor& mon = *in.model;
  const nn::Tensor3 scaled = mon.scaler().transform(head(*in.raw_windows, b));
  const std::vector<int> labels(static_cast<std::size_t>(b), 1);
  out.set("nn.input_grad.us_per_window", median_us([&] {
            g_sink = mon.classifier()
                         .loss_input_gradient(scaled, labels)
                         .at(0, 0, 0);
          }) / b,
          "us");
  out.set("eval.predict.us_per_window", median_us([&] {
            g_sink = eval::batched_predict_proba_scaled(mon, scaled).at(0, 0);
          }) / b,
          "us");

  std::vector<float> rows(in.records.size() * monitor::Features::kNumFeatures);
  const auto row = [&](std::size_t i) {
    return std::span<float>(rows).subspan(i * monitor::Features::kNumFeatures,
                                          monitor::Features::kNumFeatures);
  };
  const auto n = static_cast<double>(in.records.size());
  out.set("monitor.fill_features.ns", median_us([&] {
            for (std::size_t i = 0; i < in.records.size(); ++i) {
              monitor::fill_features(in.records[i], row(i));
            }
          }) * 1e3 / n,
          "ns");
  // Scaling in place again and again would drift rows towards inf, so
  // every pass scales a fresh copy; the copy is part of the figure.
  const std::vector<float> filled = rows;
  out.set("monitor.scale_row.ns", median_us([&] {
            std::copy(filled.begin(), filled.end(), rows.begin());
            for (std::size_t i = 0; i < in.records.size(); ++i) {
              mon.scaler().transform_row(row(i));
            }
          }) * 1e3 / n,
          "ns");
  out.set("monitor.clone.us", median_us([&] { g_sink = mon.clone()->trained(); }),
          "us");
  out.set("registry.load.ms", median_us([&] {
            g_sink = in.registry->load(in.version).monitor->trained();
          }) / 1e3,
          "ms");
}

}  // namespace cpsguard::suite
