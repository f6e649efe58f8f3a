#include "monitor/ml_monitor.h"

#include "monitor/features.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <span>
#include <thread>
#include <utility>

#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/gru.h"
#include "nn/lstm.h"
#include "nn/matrix.h"
#include "registry/model_io.h"
#include "registry/registry.h"
#include "sim/closed_loop.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace cpsguard::monitor {
namespace {

std::vector<std::uint32_t> bits(std::span<const float> v) {
  std::vector<std::uint32_t> out(v.size());
  std::memcpy(out.data(), v.data(), v.size() * sizeof(float));
  return out;
}

Dataset small_dataset(std::uint64_t seed, int traces = 6, int steps = 60) {
  std::vector<sim::Trace> ts;
  auto patient = sim::make_patient(sim::Testbed::kGlucosymOpenAps);
  auto controller = sim::make_controller(sim::Testbed::kGlucosymOpenAps);
  const auto profiles = sim::testbed_profiles(sim::Testbed::kGlucosymOpenAps, 2, 5);
  util::Rng rng(seed);
  for (int i = 0; i < traces; ++i) {
    sim::SimConfig cfg;
    cfg.steps = steps;
    cfg.inject_fault = (i % 2 == 0);
    ts.push_back(run_closed_loop(*patient, *controller,
                                 profiles[static_cast<std::size_t>(i % 2)], cfg, rng));
  }
  return build_dataset(ts, DatasetConfig{});
}

MonitorConfig fast_config(Arch arch, bool semantic) {
  MonitorConfig cfg;
  cfg.arch = arch;
  cfg.semantic = semantic;
  cfg.hidden = {16, 8};  // small for test speed
  cfg.epochs = 3;
  return cfg;
}

TEST(MonitorConfig, DisplayNamesMatchTableIII) {
  EXPECT_EQ(fast_config(Arch::kMlp, false).display_name(), "MLP");
  EXPECT_EQ(fast_config(Arch::kLstm, false).display_name(), "LSTM");
  EXPECT_EQ(fast_config(Arch::kMlp, true).display_name(), "MLP-Custom");
  EXPECT_EQ(fast_config(Arch::kLstm, true).display_name(), "LSTM-Custom");
}

TEST(MonitorConfig, PaperDefaultHiddenSizes) {
  MonitorConfig mlp;
  mlp.arch = Arch::kMlp;
  EXPECT_EQ(mlp.effective_hidden(), (std::vector<int>{256, 128}));
  MonitorConfig lstm;
  lstm.arch = Arch::kLstm;
  EXPECT_EQ(lstm.effective_hidden(), (std::vector<int>{128, 64}));
  MonitorConfig custom;
  custom.hidden = {32};
  EXPECT_EQ(custom.effective_hidden(), (std::vector<int>{32}));
}

TEST(MlMonitor, TrainingReducesLossAndEnablesPrediction) {
  const Dataset ds = small_dataset(1);
  MlMonitor mon(fast_config(Arch::kMlp, false));
  EXPECT_FALSE(mon.trained());
  const TrainReport report = mon.train(ds);
  EXPECT_TRUE(mon.trained());
  ASSERT_EQ(report.epoch_loss.size(), 3u);
  EXPECT_LT(report.epoch_loss.back(), report.epoch_loss.front());
  const auto preds = mon.predict(ds.x);
  ASSERT_EQ(preds.size(), static_cast<std::size_t>(ds.size()));
  for (int p : preds) EXPECT_TRUE(p == 0 || p == 1);
}

TEST(MlMonitor, SemanticVariantTrains) {
  const Dataset ds = small_dataset(2);
  MlMonitor mon(fast_config(Arch::kLstm, true));
  const TrainReport report = mon.train(ds);
  EXPECT_FALSE(report.epoch_loss.empty());
  EXPECT_TRUE(mon.trained());
}

TEST(MlMonitor, PredictProbaRowsSumToOne) {
  const Dataset ds = small_dataset(3);
  MlMonitor mon(fast_config(Arch::kMlp, false));
  mon.train(ds);
  const nn::Matrix p = mon.predict_proba(ds.x);
  for (int r = 0; r < p.rows(); ++r) {
    EXPECT_NEAR(p.at(r, 0) + p.at(r, 1), 1.0f, 1e-5);
  }
}

TEST(MlMonitor, ScaledAndRawPredictionsAgree) {
  const Dataset ds = small_dataset(4);
  MlMonitor mon(fast_config(Arch::kMlp, false));
  mon.train(ds);
  const auto raw = mon.predict(ds.x);
  const auto scaled = mon.predict_scaled(mon.scaler().transform(ds.x));
  EXPECT_EQ(raw, scaled);
}

TEST(MlMonitor, UntrainedOperationsThrow) {
  MlMonitor mon(fast_config(Arch::kMlp, false));
  nn::Tensor3 x(1, 6, Features::kNumFeatures);
  EXPECT_THROW(mon.predict(x), cpsguard::ContractViolation);
  EXPECT_THROW((void)mon.classifier(), cpsguard::ContractViolation);
  EXPECT_THROW((void)mon.scaler(), cpsguard::ContractViolation);
  EXPECT_THROW((void)registry::build_model_artifact(mon, {}),
               cpsguard::ContractViolation);
}

TEST(MlMonitor, DeterministicGivenSeed) {
  const Dataset ds = small_dataset(6);
  MlMonitor a(fast_config(Arch::kMlp, false));
  MlMonitor b(fast_config(Arch::kMlp, false));
  a.train(ds);
  b.train(ds);
  EXPECT_EQ(a.predict(ds.x), b.predict(ds.x));
}

TEST(MlMonitor, SeedChangesModel) {
  const Dataset ds = small_dataset(7);
  MonitorConfig c1 = fast_config(Arch::kMlp, false);
  MonitorConfig c2 = c1;
  c2.seed = c1.seed + 1;
  MlMonitor a(c1), b(c2);
  a.train(ds);
  b.train(ds);
  // Different seeds → different weights; probabilistically different preds.
  const auto pa = a.predict_proba(ds.x);
  const auto pb = b.predict_proba(ds.x);
  double diff = 0.0;
  for (int r = 0; r < pa.rows(); ++r) diff += std::abs(pa.at(r, 1) - pb.at(r, 1));
  EXPECT_GT(diff, 1e-3);
}

TEST(MlMonitor, CloneIsBitIdenticalAndIndependent) {
  const Dataset ds = small_dataset(8);
  MlMonitor mon(fast_config(Arch::kMlp, false));
  mon.train(ds);
  const auto copy = mon.clone();
  ASSERT_TRUE(copy->trained());
  EXPECT_TRUE(mon.predict_proba(ds.x) == copy->predict_proba(ds.x));
  EXPECT_EQ(mon.predict(ds.x), copy->predict(ds.x));
  // Independent object: the clone survives the original.
  EXPECT_NE(&mon.classifier(), &copy->classifier());
}

TEST(BatchEval, ChunkedPredictProbaMatchesSingleCall) {
  const Dataset ds = small_dataset(9);
  MlMonitor mon(fast_config(Arch::kMlp, false));
  mon.train(ds);
  const nn::Matrix whole = mon.predict_proba(ds.x);
  // Row locality: predicting the set in chunks of 8 windows (as serve's
  // partial flushes do) reproduces the one-shot rows bit for bit.
  for (int b0 = 0; b0 < ds.size(); b0 += 8) {
    std::vector<int> idx;
    for (int r = b0; r < std::min(ds.size(), b0 + 8); ++r) idx.push_back(r);
    const nn::Matrix part = mon.predict_proba(ds.x.gather(idx));
    for (int r = 0; r < part.rows(); ++r) {
      EXPECT_EQ(bits(part.row(r)), bits(whole.row(b0 + r)))
          << "window " << b0 + r;
    }
  }
  // predict is nn::decide over each scaled window and its probability row.
  const nn::Tensor3 scaled = mon.scaler().transform(ds.x);
  std::vector<int> decided;
  for (int r = 0; r < ds.size(); ++r) {
    decided.push_back(nn::decide(scaled.window(r), whole.row(r)));
  }
  EXPECT_EQ(mon.predict(ds.x), decided);
}

// Four threads score on one shared const monitor — MLP, LSTM, GRU and a
// registry-loaded MLP — each on its own batch, and every result is
// bit-identical to a serial call on that batch.
TEST(MlMonitor, SharedConstMonitorScoresConcurrently) {
  const Dataset ds = small_dataset(10);
  std::vector<std::unique_ptr<MlMonitor>> owned;
  for (const Arch arch : {Arch::kMlp, Arch::kLstm, Arch::kGru}) {
    owned.push_back(std::make_unique<MlMonitor>(fast_config(arch, false)));
    owned.back()->train(ds);
  }
  const std::string dir =
      (std::filesystem::temp_directory_path() / "cpsguard_shared_monitor_test")
          .string();
  std::filesystem::remove_all(dir);
  registry::ModelRegistry reg(dir);
  const std::uint64_t version = reg.publish(*owned.front(), "MLP", "test");
  const registry::ModelRegistry::LoadedModel loaded = reg.load(version);

  std::vector<const MlMonitor*> monitors;
  for (const auto& m : owned) monitors.push_back(m.get());
  monitors.push_back(loaded.monitor.get());
  constexpr int kThreads = 4;
  for (const MlMonitor* shared : monitors) {
    const nn::Tensor3 scaled = shared->scaler().transform(ds.x);
    std::vector<nn::Tensor3> batches;
    std::vector<nn::Matrix> serial;
    for (int k = 0; k < kThreads; ++k) {
      std::vector<int> idx;
      for (int r = k; r < scaled.batch(); r += k + 1) idx.push_back(r);
      batches.push_back(scaled.gather(idx));
      serial.push_back(shared->predict_proba_scaled(batches.back()));
    }
    std::vector<nn::Matrix> got(kThreads);
    std::vector<std::thread> threads;
    for (int k = 0; k < kThreads; ++k) {
      threads.emplace_back([&, k] {
        const auto ki = static_cast<std::size_t>(k);
        for (int rep = 0; rep < 3; ++rep) {
          got[ki] = shared->predict_proba_scaled(batches[ki]);
        }
      });
    }
    for (auto& t : threads) t.join();
    for (std::size_t k = 0; k < kThreads; ++k) {
      EXPECT_EQ(bits(got[k].data()), bits(serial[k].data()))
          << shared->config().display_name() << " thread " << k;
    }
  }
  std::filesystem::remove_all(dir);
}

// Four threads share one paper-size MLP monitor and each scores 256+-row
// batches, so every call makes its own row-block fan-out on the shared pool,
// each block running its matmuls inline: results equal serial calls bit for
// bit.
TEST(MlMonitor, SharedPaperMlpScoresFullBatchesConcurrently) {
  const Dataset ds = small_dataset(11);
  MonitorConfig cfg = fast_config(Arch::kMlp, false);
  cfg.hidden = {};  // the paper's 256-128
  cfg.epochs = 1;
  MlMonitor mon(cfg);
  mon.train(ds);
  const nn::Tensor3 scaled = mon.scaler().transform(ds.x);
  constexpr int kThreads = 4;
  std::vector<nn::Tensor3> batches;
  std::vector<nn::Matrix> serial;
  for (int k = 0; k < kThreads; ++k) {
    std::vector<int> idx(static_cast<std::size_t>(256 + 37 * k));
    for (std::size_t i = 0; i < idx.size(); ++i) {
      idx[i] = static_cast<int>((i * static_cast<std::size_t>(k + 1)) %
                                static_cast<std::size_t>(scaled.batch()));
    }
    batches.push_back(scaled.gather(idx));
    serial.push_back(mon.predict_proba_scaled(batches.back()));
  }
  std::vector<nn::Matrix> got(kThreads);
  std::vector<std::thread> threads;
  for (int k = 0; k < kThreads; ++k) {
    threads.emplace_back([&, k] {
      const auto ki = static_cast<std::size_t>(k);
      for (int rep = 0; rep < 3; ++rep) {
        got[ki] = mon.predict_proba_scaled(batches[ki]);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t k = 0; k < kThreads; ++k) {
    EXPECT_EQ(bits(got[k].data()), bits(serial[k].data())) << "thread " << k;
  }
}

// A const inference call and a second recording forward on a different
// batch, made between a forward and its backward, leave the backward's input
// gradient and parameter gradients bit-identical: each forward records into
// the cache its caller owns, and the layers hold none.
template <typename Net, typename Cache, typename X, typename G>
void expect_infer_leaves_backward(Net& net, const X& xa, const X& xb,
                                  const G& dy) {
  const auto run = [&](bool interleave) {
    for (nn::Param* p : net.params()) p->zero_grad();
    Cache cache;
    net.forward(xa, cache);
    if (interleave) {
      (void)net.infer(xb);
      Cache other;
      (void)net.forward(xb, other);
    }
    std::vector<std::uint32_t> out =
        bits(net.backward(dy, cache, net.params()).data());
    for (nn::Param* p : net.params()) {
      const std::vector<std::uint32_t> g = bits(std::as_const(p->grad).data());
      out.insert(out.end(), g.begin(), g.end());
    }
    return out;
  };
  const std::vector<std::uint32_t> reference = run(false);
  EXPECT_EQ(run(true), reference);
}

TEST(MlMonitor, InferenceBetweenForwardAndBackwardLeavesGradientsIntact) {
  util::Rng rng(31);
  const auto tensor = [&](int b, int t, int f) {
    nn::Tensor3 x(b, t, f);
    for (float& v : x.data()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    return x;
  };
  const nn::Tensor3 xa = tensor(3, 6, 9);
  const nn::Tensor3 xb = tensor(5, 6, 9);
  nn::LstmLayer lstm(9, 16, rng);
  expect_infer_leaves_backward<nn::LstmLayer, nn::LstmLayer::Cache>(
      lstm, xa, xb, tensor(3, 6, 16));
  nn::GruLayer gru(9, 16, rng);
  expect_infer_leaves_backward<nn::GruLayer, nn::GruLayer::Cache>(
      gru, xa, xb, tensor(3, 6, 16));
  nn::FeedForward mlp;
  mlp.add(std::make_unique<nn::Dense>(54, 16, rng));
  mlp.add(std::make_unique<nn::Relu>(16));
  mlp.add(std::make_unique<nn::Dense>(16, 2, rng));
  expect_infer_leaves_backward<nn::FeedForward, nn::FeedForward::Cache>(
      mlp, xa.flatten(), xb.flatten(), tensor(3, 1, 2).flatten());
}

// Concurrent input gradients and predicts on one const classifier: threads
// taking gradients of different batches, each with its own cache, beside
// threads scoring the whole set, all return the bits a serial run returns.
TEST(MlMonitor, ConcurrentScoringLeavesInputGradientIntact) {
  const Dataset ds = small_dataset(11);
  MlMonitor mon(fast_config(Arch::kLstm, false));
  mon.train(ds);
  const nn::Classifier& clf = std::as_const(mon).classifier();
  const nn::Tensor3 scaled = mon.scaler().transform(ds.x);
  constexpr int kGradThreads = 3;
  std::vector<nn::Tensor3> batches;
  std::vector<std::vector<int>> labels;
  std::vector<std::vector<std::uint32_t>> reference;
  for (int k = 0; k < kGradThreads; ++k) {
    std::vector<int> rows;
    for (int i = k; i < scaled.batch(); i += kGradThreads) rows.push_back(i);
    batches.push_back(scaled.gather(rows));
    labels.emplace_back(rows.size(), k % 2);
    reference.push_back(
        bits(clf.loss_input_gradient(batches.back(), labels.back()).data()));
  }
  const std::vector<std::uint32_t> probs_reference =
      bits(clf.predict_proba(scaled).data());

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int k = 0; k < kGradThreads; ++k) {
    threads.emplace_back([&, k] {
      const auto ki = static_cast<std::size_t>(k);
      const float inv_batch = 1.0f / static_cast<float>(batches[ki].batch());
      nn::ForwardCache cache;
      for (int rep = 0; rep < 20; ++rep) {
        const nn::Tensor3 grad =
            clf.input_gradient(batches[ki], labels[ki], inv_batch, cache);
        if (bits(grad.data()) != reference[ki]) ++mismatches;
      }
    });
  }
  for (int k = 0; k < 2; ++k) {
    threads.emplace_back([&] {
      for (int rep = 0; rep < 20; ++rep) {
        if (bits(clf.predict_proba(scaled).data()) != probs_reference) {
          ++mismatches;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(MlMonitor, RejectsBadConfig) {
  MonitorConfig bad;
  bad.epochs = 0;
  EXPECT_THROW(MlMonitor{bad}, cpsguard::ContractViolation);
  MonitorConfig bad_lr;
  bad_lr.learning_rate = 0.0;
  EXPECT_THROW(MlMonitor{bad_lr}, cpsguard::ContractViolation);
}

TEST(MlMonitor, TrainOnEmptyDatasetThrows) {
  Dataset empty;
  MlMonitor mon(fast_config(Arch::kMlp, false));
  EXPECT_THROW(mon.train(empty), cpsguard::ContractViolation);
}

}  // namespace
}  // namespace cpsguard::monitor
