// Micro-benchmarks of the NN substrate (google-benchmark): the kernels that
// dominate monitor training and FGSM crafting.
#include <benchmark/benchmark.h>

#include <span>
#include <string>
#include <vector>

#include "attack/fgsm.h"
#include "nn/activations.h"
#include "nn/classifier.h"
#include "nn/lstm_classifier.h"
#include "util/rng.h"

namespace {

using namespace cpsguard;

nn::Matrix random_matrix(int r, int c, util::Rng& rng) {
  nn::Matrix m(r, c);
  for (float& v : m.data()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return m;
}

nn::Tensor3 random_tensor(int b, int t, int f, util::Rng& rng) {
  nn::Tensor3 x(b, t, f);
  for (float& v : x.data()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return x;
}

void BM_Matmul(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  util::Rng rng(1);
  const nn::Matrix a = random_matrix(n, n, rng);
  const nn::Matrix b = random_matrix(n, n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::matmul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2L * n * n * n);
}
BENCHMARK(BM_Matmul)->Arg(64)->Arg(128)->Arg(256);

// A (n x k) times Bᵀ for B (m x k): the LSTM backward's input and
// recurrent products. 870x512x128 is the first layer's dh_{t-1} over the
// Fig. 9 sweep's 870 test windows; 64 and 1 rows bracket the kernel's
// Bᵀ-staging threshold.
void BM_MatmulNt(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  const auto k = static_cast<int>(state.range(1));
  const auto m = static_cast<int>(state.range(2));
  util::Rng rng(7);
  const nn::Matrix a = random_matrix(n, k, rng);
  const nn::Matrix b = random_matrix(m, k, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::matmul_nt(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2L * n * k * m);
}
BENCHMARK(BM_MatmulNt)
    ->Args({870, 512, 128})
    ->Args({64, 512, 128})
    ->Args({1, 512, 128});

void BM_MlpForward(benchmark::State& state) {
  const auto batch = static_cast<int>(state.range(0));
  util::Rng rng(2);
  nn::MlpClassifier clf(6, 9, {256, 128}, 2, rng);
  const nn::Tensor3 x = random_tensor(batch, 6, 9, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(clf.predict_proba(x));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_MlpForward)->Arg(64)->Arg(256);

void BM_MlpTrainBatch(benchmark::State& state) {
  const auto batch = static_cast<int>(state.range(0));
  util::Rng rng(3);
  nn::MlpClassifier clf(6, 9, {256, 128}, 2, rng);
  const nn::Tensor3 x = random_tensor(batch, 6, 9, rng);
  std::vector<int> y(static_cast<std::size_t>(batch));
  for (int i = 0; i < batch; ++i) y[static_cast<std::size_t>(i)] = i % 2;
  nn::Adam adam(0.001);
  const nn::SoftmaxCrossEntropy ce;
  for (auto _ : state) {
    benchmark::DoNotOptimize(clf.train_batch(x, y, {}, ce, adam));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_MlpTrainBatch)->Arg(64);

void BM_LstmForward(benchmark::State& state) {
  const auto batch = static_cast<int>(state.range(0));
  util::Rng rng(4);
  nn::LstmClassifier clf(6, 9, {128, 64}, 2, rng);
  const nn::Tensor3 x = random_tensor(batch, 6, 9, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(clf.predict_proba(x));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
// 16 is the serve_lstm_steady tick flush, 870 the Fig. 9 sweep's test set.
BENCHMARK(BM_LstmForward)->Arg(16)->Arg(64)->Arg(256)->Arg(870);

// One LSTM(128) layer over a 6-step window: the const infer against the
// forward that records into a caller-owned step cache, so the cost of
// recording the cache shows per layer.
void BM_LstmLayer(benchmark::State& state, bool record) {
  const auto batch = static_cast<int>(state.range(0));
  util::Rng rng(9);
  nn::LstmLayer lstm(9, 128, rng);
  const nn::Tensor3 x = random_tensor(batch, 6, 9, rng);
  nn::LstmLayer::Cache cache;
  for (auto _ : state) {
    benchmark::DoNotOptimize(record ? lstm.forward(x, cache) : lstm.infer(x));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
void BM_LstmInfer(benchmark::State& state) { BM_LstmLayer(state, false); }
void BM_LstmLayerForward(benchmark::State& state) { BM_LstmLayer(state, true); }
BENCHMARK(BM_LstmInfer)->Arg(16)->Arg(870);
BENCHMARK(BM_LstmLayerForward)->Arg(16)->Arg(870);

// One LSTM(128) gate row, 4 x 128 pre-activations drawn from N(0, 2),
// through the dispatched sigmoid or tanh kernel.
void BM_GateMath(benchmark::State& state,
                 void (*rows)(std::span<const float>, std::span<float>)) {
  util::Rng rng(8);
  std::vector<float> x(512), y(512);
  for (float& v : x) v = static_cast<float>(rng.gaussian(0.0, 2.0));
  for (auto _ : state) {
    rows(x, y);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 512L);
}
BENCHMARK_CAPTURE(BM_GateMath, sigmoid, &nn::sigmoid_rows);
BENCHMARK_CAPTURE(BM_GateMath, tanh, &nn::tanh_rows);

void BM_LstmTrainBatch(benchmark::State& state) {
  const auto batch = static_cast<int>(state.range(0));
  util::Rng rng(5);
  nn::LstmClassifier clf(6, 9, {128, 64}, 2, rng);
  const nn::Tensor3 x = random_tensor(batch, 6, 9, rng);
  std::vector<int> y(static_cast<std::size_t>(batch));
  for (int i = 0; i < batch; ++i) y[static_cast<std::size_t>(i)] = i % 2;
  nn::Adam adam(0.001);
  const nn::SoftmaxCrossEntropy ce;
  for (auto _ : state) {
    benchmark::DoNotOptimize(clf.train_batch(x, y, {}, ce, adam));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_LstmTrainBatch)->Arg(64);

void BM_LstmInputGradient(benchmark::State& state) {
  const auto batch = static_cast<int>(state.range(0));
  util::Rng rng(6);
  nn::LstmClassifier clf(6, 9, {128, 64}, 2, rng);
  const nn::Tensor3 x = random_tensor(batch, 6, 9, rng);
  std::vector<int> y(static_cast<std::size_t>(batch));
  for (int i = 0; i < batch; ++i) y[static_cast<std::size_t>(i)] = i % 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(clf.loss_input_gradient(x, y));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
// 870 is the Fig. 9 sweep's test-set size: one FGSM curve's gradient.
BENCHMARK(BM_LstmInputGradient)->Arg(1)->Arg(64)->Arg(870);

// The same gradient as the sweeps take it: attack::fgsm_gradient, one task
// per nn::kChunkRows-row chunk on the shared pool (bit-identical result).
// Wall time, since the work runs on the pool's threads.
void BM_LstmInputGradientChunked(benchmark::State& state) {
  const auto batch = static_cast<int>(state.range(0));
  util::Rng rng(6);
  nn::LstmClassifier clf(6, 9, {128, 64}, 2, rng);
  const nn::Tensor3 x = random_tensor(batch, 6, 9, rng);
  std::vector<int> y(static_cast<std::size_t>(batch));
  for (int i = 0; i < batch; ++i) y[static_cast<std::size_t>(i)] = i % 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(attack::fgsm_gradient(clf, x, y));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_LstmInputGradientChunked)->Arg(870)->UseRealTime();

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): unless the caller passes their
// own --benchmark_out, default to emitting BENCH_micro_nn.json next to the
// binary so CI (and acceptance checks) always get a machine-readable record.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_out=", 0) == 0) has_out = true;
  }
  std::string out_flag = "--benchmark_out=BENCH_micro_nn.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
