// End-to-end harness tests at miniature scale: campaign generation,
// splitting, monitor training/caching, and all three perturbation
// evaluations produce sane results.
#include "core/experiment.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/contracts.h"
#include "util/thread_pool.h"

namespace cpsguard::core {
namespace {

ExperimentConfig tiny_config(sim::Testbed tb = sim::Testbed::kGlucosymOpenAps) {
  ExperimentConfig cfg;
  cfg.campaign.testbed = tb;
  cfg.campaign.patients = 3;
  cfg.campaign.sims_per_patient = 3;
  cfg.campaign.trace_steps = 60;
  cfg.campaign.seed = 7;
  cfg.epochs = 2;
  cfg.cache_dir = "";  // no caching unless a test opts in
  return cfg;
}

TEST(Campaign, GeneratesRequestedTraceCount) {
  const auto traces = generate_campaign(tiny_config().campaign);
  EXPECT_EQ(traces.size(), 9u);
  for (const auto& t : traces) EXPECT_EQ(t.length(), 60);
}

TEST(Campaign, DeterministicAcrossRuns) {
  const auto a = generate_campaign(tiny_config().campaign);
  const auto b = generate_campaign(tiny_config().campaign);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].length(), b[i].length());
    for (int s = 0; s < a[i].length(); ++s) {
      EXPECT_DOUBLE_EQ(a[i].steps[static_cast<std::size_t>(s)].true_bg,
                       b[i].steps[static_cast<std::size_t>(s)].true_bg);
    }
  }
}

TEST(Campaign, FaultFractionRoughlyRespected) {
  CampaignConfig cfg = tiny_config().campaign;
  cfg.patients = 5;
  cfg.sims_per_patient = 20;
  cfg.fault_fraction = 0.5;
  const auto traces = generate_campaign(cfg);
  int faulty = 0;
  for (const auto& t : traces) faulty += t.fault_injected ? 1 : 0;
  EXPECT_GT(faulty, 30);
  EXPECT_LT(faulty, 70);
}

TEST(Split, ByTraceNoLeakage) {
  const auto traces = generate_campaign(tiny_config().campaign);
  const auto split = build_datasets(traces, monitor::DatasetConfig{}, 0.7, 3);
  EXPECT_EQ(split.train_traces.size() + split.test_traces.size(), traces.size());
  EXPECT_FALSE(split.train_traces.empty());
  EXPECT_FALSE(split.test_traces.empty());
  EXPECT_EQ(split.train.num_traces(),
            static_cast<int>(split.train_traces.size()));
  EXPECT_EQ(split.test.num_traces(), static_cast<int>(split.test_traces.size()));
}

TEST(Split, RejectsBadFraction) {
  const auto traces = generate_campaign(tiny_config().campaign);
  EXPECT_THROW(build_datasets(traces, monitor::DatasetConfig{}, 0.0, 3),
               ContractViolation);
  EXPECT_THROW(build_datasets(traces, monitor::DatasetConfig{}, 1.0, 3),
               ContractViolation);
}

TEST(Variants, FourInPaperOrder) {
  const auto vs = all_variants();
  ASSERT_EQ(vs.size(), 4u);
  EXPECT_EQ(vs[0].name(), "MLP");
  EXPECT_EQ(vs[1].name(), "LSTM");
  EXPECT_EQ(vs[2].name(), "MLP-Custom");
  EXPECT_EQ(vs[3].name(), "LSTM-Custom");
}

class ExperimentTest : public ::testing::Test {
 protected:
  ExperimentTest() : exp_(tiny_config()) {}
  Experiment exp_;
  const MonitorVariant mlp_{monitor::Arch::kMlp, false};
};

TEST_F(ExperimentTest, PrepareBuildsDatasets) {
  exp_.prepare();
  EXPECT_GT(exp_.train_data().size(), 0);
  EXPECT_GT(exp_.test_data().size(), 0);
  const double pos = exp_.train_data().positive_fraction();
  EXPECT_GT(pos, 0.02);
  EXPECT_LT(pos, 0.9);
}

TEST_F(ExperimentTest, CleanEvaluationIsSane) {
  const auto r = exp_.evaluate_clean(mlp_);
  EXPECT_GE(r.f1(), 0.0);
  EXPECT_LE(r.f1(), 1.0);
  EXPECT_GT(r.accuracy(), 0.4);  // should beat coin flip even when tiny
  EXPECT_DOUBLE_EQ(r.robustness_err, 0.0);
}

TEST_F(ExperimentTest, RuleMonitorEvaluates) {
  const auto r = exp_.evaluate_rule_monitor();
  EXPECT_GT(r.confusion.total(), 0);
  EXPECT_GE(r.f1(), 0.0);
}

TEST_F(ExperimentTest, GaussianEvaluationPerturbsPredictions) {
  const auto r = exp_.evaluate_under_gaussian(mlp_, 1.0);
  EXPECT_GE(r.robustness_err, 0.0);
  EXPECT_LE(r.robustness_err, 1.0);
}

TEST_F(ExperimentTest, FgsmDegradesOrMatchesCleanF1) {
  const auto clean = exp_.evaluate_clean(mlp_);
  // At this miniature scale the monitor can be flat enough that moderate
  // budgets flip nothing; a large budget must move *something*.
  const auto attacked = exp_.evaluate_under_fgsm(mlp_, 0.2);
  EXPECT_LE(attacked.f1(), clean.f1() + 0.1);
  const auto heavy = exp_.evaluate_under_fgsm(mlp_, 1.0);
  EXPECT_GT(heavy.robustness_err, 0.0)
      << "a 1.0 FGSM attack should flip at least one prediction";
}

TEST_F(ExperimentTest, BlackboxRunsAndIsWeakerOrEqualToWhitebox) {
  const auto white = exp_.evaluate_under_fgsm(mlp_, 0.1);
  const auto black = exp_.evaluate_under_blackbox(mlp_, 0.1);
  EXPECT_GE(black.robustness_err, 0.0);
  // Transfer attacks are at most about as strong as white-box on average;
  // allow slack at tiny scale.
  EXPECT_LE(black.robustness_err, white.robustness_err + 0.25);
}

TEST_F(ExperimentTest, CleanPredictionsAreMemoized) {
  const auto& a = exp_.clean_predictions(mlp_);
  const auto& b = exp_.clean_predictions(mlp_);
  EXPECT_EQ(&a, &b);
}

TEST(ExperimentCache, SaveAndReloadProducesSamePredictions) {
  const std::string cache =
      (std::filesystem::temp_directory_path() / "cpsguard_test_cache").string();
  std::filesystem::remove_all(cache);

  ExperimentConfig cfg = tiny_config();
  cfg.cache_dir = cache;
  const MonitorVariant v{monitor::Arch::kMlp, false};

  std::vector<int> first;
  {
    Experiment e1(cfg);
    first = e1.monitor(v).predict(e1.test_data().x);
  }
  {
    Experiment e2(cfg);  // must hit the cache
    const auto second = e2.monitor(v).predict(e2.test_data().x);
    EXPECT_EQ(first, second);
  }
  EXPECT_FALSE(std::filesystem::is_empty(cache));
  std::filesystem::remove_all(cache);
}

// A cache file is a SHA-256-verified model artifact: one flipped weight
// byte must not load as a different monitor. The next run retrains, scores
// exactly as the original did, and rewrites a cache file that loads again.
TEST(ExperimentCache, CorruptedCacheFileIsRetrainedNotLoaded) {
  const std::string cache =
      (std::filesystem::temp_directory_path() / "cpsguard_test_cache_rot")
          .string();
  std::filesystem::remove_all(cache);
  ExperimentConfig cfg = tiny_config();
  cfg.cache_dir = cache;
  const MonitorVariant v{monitor::Arch::kMlp, false};
  obs::Counter& epochs =
      obs::Registry::instance().counter("nn.epochs_trained");

  std::vector<int> first;
  {
    Experiment e1(cfg);
    first = e1.monitor(v).predict(e1.test_data().x);
  }
  std::vector<std::filesystem::path> files;
  for (const auto& f : std::filesystem::directory_iterator(cache)) {
    files.push_back(f.path());
  }
  ASSERT_EQ(files.size(), 1u);
  std::string bytes;
  {
    std::ifstream in(files[0], std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  // The last byte before the 32-byte SHA-256 trailer is the final weight.
  ASSERT_GT(bytes.size(), 33u);
  bytes[bytes.size() - 33] = static_cast<char>(bytes[bytes.size() - 33] ^ 0x01);
  std::ofstream(files[0], std::ios::binary | std::ios::trunc) << bytes;

  {
    const std::uint64_t before = epochs.value();
    Experiment e2(cfg);
    EXPECT_EQ(e2.monitor(v).predict(e2.test_data().x), first);
    EXPECT_EQ(epochs.value(), before + static_cast<std::uint64_t>(cfg.epochs))
        << "the corrupted cache file was loaded instead of retrained";
  }
  {
    const std::uint64_t before = epochs.value();
    Experiment e3(cfg);
    EXPECT_EQ(e3.monitor(v).predict(e3.test_data().x), first);
    EXPECT_EQ(epochs.value(), before) << "the rewritten cache file missed";
  }
  std::filesystem::remove_all(cache);
}

TEST(ExperimentT1d, SecondTestbedWorksEndToEnd) {
  Experiment exp(tiny_config(sim::Testbed::kT1dBasalBolus));
  const MonitorVariant lstm{monitor::Arch::kLstm, true};
  const auto clean = exp.evaluate_clean(lstm);
  EXPECT_GT(clean.confusion.total(), 0);
  const auto noisy = exp.evaluate_under_gaussian(lstm, 0.5);
  EXPECT_GE(noisy.robustness_err, 0.0);
}

// Regression: only kLstm used to carry an arch seed tag, so MLP and GRU
// variants derived bit-identical training seeds. Every architecture must
// now map to a distinct seed while MLP/LSTM keep their historical values
// (so cached monitors and committed figure CSVs stay valid).
TEST(MonitorConfigSeeds, DistinctPerArchAndHistoricallyStable) {
  const ExperimentConfig cfg = tiny_config();
  const Experiment exp(cfg);
  const std::uint64_t base = cfg.campaign.seed;

  // Historical derivations, frozen.
  EXPECT_EQ(exp.monitor_config({monitor::Arch::kMlp, false}).seed,
            base ^ 0x1234ULL);
  EXPECT_EQ(exp.monitor_config({monitor::Arch::kMlp, true}).seed,
            base ^ 0xABCDULL);
  EXPECT_EQ(exp.monitor_config({monitor::Arch::kLstm, false}).seed,
            base ^ 0x1234ULL ^ 0xBEEF0000ULL);
  EXPECT_EQ(exp.monitor_config({monitor::Arch::kLstm, true}).seed,
            base ^ 0xABCDULL ^ 0xBEEF0000ULL);

  // All (arch, semantic) combinations must yield pairwise-distinct seeds —
  // the GRU/MLP collision was the bug.
  std::vector<std::uint64_t> seeds;
  for (const auto arch :
       {monitor::Arch::kMlp, monitor::Arch::kLstm, monitor::Arch::kGru}) {
    for (const bool semantic : {false, true}) {
      seeds.push_back(exp.monitor_config({arch, semantic}).seed);
    }
  }
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    for (std::size_t j = i + 1; j < seeds.size(); ++j) {
      EXPECT_NE(seeds[i], seeds[j]) << "variants " << i << " and " << j;
    }
  }
}

void expect_same_results(const std::vector<EvalResult>& sweep,
                         const std::vector<EvalResult>& points,
                         const std::string& what) {
  ASSERT_EQ(sweep.size(), points.size()) << what;
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    EXPECT_EQ(sweep[i].confusion.tp, points[i].confusion.tp) << what << " point " << i;
    EXPECT_EQ(sweep[i].confusion.fp, points[i].confusion.fp) << what << " point " << i;
    EXPECT_EQ(sweep[i].confusion.fn, points[i].confusion.fn) << what << " point " << i;
    EXPECT_EQ(sweep[i].confusion.tn, points[i].confusion.tn) << what << " point " << i;
    EXPECT_EQ(sweep[i].robustness_err, points[i].robustness_err)
        << what << " point " << i;
  }
}

/// A sweep must give the same results on the pool, fully serially (one
/// thread) and as a loop over the pointwise method.
void expect_sweep_matches(const std::function<std::vector<EvalResult>()>& sweep,
                          const std::function<EvalResult(std::size_t)>& point,
                          const std::string& what) {
  const std::size_t saved = util::max_parallelism();
  util::set_max_parallelism(1);
  const std::vector<EvalResult> serial = sweep();
  util::set_max_parallelism(saved);
  const std::vector<EvalResult> pooled = sweep();
  expect_same_results(pooled, serial, what + " pooled vs serial");
  std::vector<EvalResult> points;
  for (std::size_t i = 0; i < pooled.size(); ++i) points.push_back(point(i));
  expect_same_results(pooled, points, what + " sweep vs pointwise");
}

// The sweep engine predicts each point, and fgsm_gradient differentiates
// each curve, in nn::kChunkRows-row chunks; the fixture must exercise several
// chunks and a short tail for the sweep tests below to cover the chunk
// stitching.
TEST_F(ExperimentTest, TestSetSpansSeveralSweepChunksWithATail) {
  const int rows = exp_.test_data().size();
  EXPECT_GT(rows, nn::kChunkRows);
  EXPECT_NE(rows % nn::kChunkRows, 0);
}

TEST_F(ExperimentTest, GaussianSweepMatchesPointwise) {
  const std::vector<double> sigmas = {0.25, 1.0};
  const MonitorVariant lstm{monitor::Arch::kLstm, false};
  for (const MonitorVariant& v : {mlp_, lstm}) {
    expect_sweep_matches(
        [&] { return exp_.evaluate_under_gaussian_sweep(v, sigmas); },
        [&](std::size_t i) {
          return exp_.evaluate_under_gaussian(v, sigmas[i]);
        },
        v.name());
  }
}

// The FGSM sweep computes one input gradient per curve and applies each ε
// to it; the pointwise method computes its own. The LSTM runs the input-only
// BPTT and the SIMD matmul_nt over all five Fig. 9 budgets. Each gradient
// spans two row chunks and still counts once.
TEST_F(ExperimentTest, FgsmSweepMatchesPointwise) {
  const std::vector<double> fig9_epsilons = {0.01, 0.05, 0.1, 0.15, 0.2};
  const MonitorVariant lstm{monitor::Arch::kLstm, false};
  const obs::Counter& gradients =
      obs::Registry::instance().counter("attack.fgsm.gradients");
  for (const auto& [variant, epsilons] :
       {std::pair{mlp_, std::vector<double>{0.05, 0.2}},
        std::pair{lstm, fig9_epsilons}}) {
    const std::uint64_t before = gradients.value();
    expect_sweep_matches(
        [&] { return exp_.evaluate_under_fgsm_sweep(variant, epsilons); },
        [&](std::size_t i) {
          return exp_.evaluate_under_fgsm(variant, epsilons[i]);
        },
        variant.name());
    // Two sweeps (serial and pooled), then one gradient per point.
    EXPECT_EQ(gradients.value() - before, 2 + epsilons.size()) << variant.name();
  }
}

TEST_F(ExperimentTest, BlackboxSweepMatchesPointwise) {
  const std::vector<double> epsilons = {0.05, 0.1, 0.2};
  expect_sweep_matches(
      [&] { return exp_.evaluate_under_blackbox_sweep(mlp_, epsilons); },
      [&](std::size_t i) {
        return exp_.evaluate_under_blackbox(mlp_, epsilons[i]);
      },
      mlp_.name());
}

TEST(ExperimentTrainAll, HydratesAllVariants) {
  ExperimentConfig cfg = tiny_config();
  cfg.epochs = 1;
  Experiment exp(cfg);
  exp.train_all();
  for (const auto& v : all_variants()) {
    EXPECT_TRUE(exp.monitor(v).trained());
  }
}

}  // namespace
}  // namespace cpsguard::core
