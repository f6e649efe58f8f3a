// Experiment harness — the top-level API that wires the whole reproduction
// together: simulation campaigns → windowed datasets → trained monitors →
// perturbations → metrics. Every bench binary and example is a thin client
// of this header.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "attack/blackbox.h"
#include "attack/fgsm.h"
#include "attack/gaussian.h"
#include "core/checkpoint.h"
#include "core/resilient_monitor.h"
#include "eval/metrics.h"
#include "eval/resilience.h"
#include "eval/robustness.h"
#include "monitor/ml_monitor.h"
#include "safety/rule_monitor.h"
#include "sim/closed_loop.h"

namespace cpsguard::registry {
class ModelRegistry;
}

namespace cpsguard::core {

/// A simulation campaign: many closed-loop runs across patient profiles,
/// a fraction of them with injected faults (the hazard-producing runs).
struct CampaignConfig {
  sim::Testbed testbed = sim::Testbed::kGlucosymOpenAps;
  int patients = 20;
  int sims_per_patient = 10;
  double fault_fraction = 0.6;
  int trace_steps = 150;  // 12.5 h at 5-min cycles, as in the paper
  std::uint64_t seed = 42;
};

/// Run the campaign (parallel across patients). Deterministic in the seed.
std::vector<sim::Trace> generate_campaign(const CampaignConfig& config);

struct SplitDatasets {
  monitor::Dataset train;
  monitor::Dataset test;
  std::vector<sim::Trace> train_traces;  // aligned with train.trace_id
  std::vector<sim::Trace> test_traces;   // aligned with test.trace_id
};

/// Build windowed datasets with a by-trace train/test split (no window of a
/// test trace ever appears in training).
SplitDatasets build_datasets(std::span<const sim::Trace> traces,
                             const monitor::DatasetConfig& dataset_config,
                             double train_fraction, std::uint64_t seed);

/// One of the paper's four ML monitor variants.
struct MonitorVariant {
  monitor::Arch arch = monitor::Arch::kMlp;
  bool semantic = false;

  [[nodiscard]] std::string name() const;  // Table III row name
};

/// The four variants in the paper's reporting order:
/// MLP, LSTM, MLP-Custom, LSTM-Custom.
std::vector<MonitorVariant> all_variants();

struct ExperimentConfig {
  CampaignConfig campaign;
  monitor::DatasetConfig dataset;
  double train_fraction = 0.7;
  int tolerance_delta = 6;        // δ of the Table II metric (30 min)
  int epochs = 8;
  int batch_size = 64;
  double learning_rate = 0.001;
  // The w of Eq. 2, tuned per architecture (see bench_ablation_semantic_weight):
  // the MLP keeps clean F1 only up to w ~ 0.5; the LSTM tolerates more
  // interference (mirroring the paper's Table III, where LSTM-Custom trades
  // clean F1 for robustness). Larger w collapses monitors onto the rule
  // base — robust but only in the trivial, gradient-masked sense.
  double semantic_weight_mlp = 0.5;
  double semantic_weight_lstm = 1.0;
  std::string cache_dir = "cpsguard_cache";  // "" disables model caching
};

/// How the trained monitor is deployed for resilience evaluation.
enum class RuntimeMode : int {
  kRawMl = 0,   // bare OnlineMonitor: corrupted samples feed inference
  kResilient,   // ResilientMonitor: validation + degradation state machine
  kRuleOnly,    // knowledge-only baseline, no ML path at all
};

std::string to_string(RuntimeMode m);

struct ResilienceEvalConfig {
  ResilientConfig runtime;   // window, hysteresis, validators
  int tolerance_delta = 6;   // oracle look-ahead (30 min), as in Table II
  std::uint64_t fault_seed = 777;  // decorrelates per-trace fault streams
};

/// Metrics of one evaluation (clean or under perturbation).
struct EvalResult {
  eval::ConfusionCounts confusion;
  double robustness_err = 0.0;  // vs. the clean predictions (0 when clean)

  [[nodiscard]] double f1() const { return confusion.f1(); }
  [[nodiscard]] double accuracy() const { return confusion.accuracy(); }
};

class Experiment {
 public:
  explicit Experiment(ExperimentConfig config);

  /// Generate the campaign and datasets (idempotent).
  void prepare();

  [[nodiscard]] const ExperimentConfig& config() const { return config_; }
  const std::vector<sim::Trace>& traces();
  const monitor::Dataset& train_data();
  const monitor::Dataset& test_data();
  /// The traces behind the test split (aligned with test_data().trace_id).
  const std::vector<sim::Trace>& test_traces();

  /// Trained (or cache-loaded) monitor for a variant; lazily constructed.
  monitor::MlMonitor& monitor(const MonitorVariant& variant);

  /// Train all four variants (parallel). Call before timing-sensitive
  /// sweeps so laziness doesn't skew measurements.
  void train_all();

  /// Export-after-train: publish the variant's trained monitor into the
  /// model registry as a new version. The artifact records the variant's
  /// Table III name and this campaign's config_fingerprint(), so a serving
  /// deployment can verify exactly which configuration produced the model
  /// it hot-swaps in. Returns the published version number.
  std::uint64_t publish_monitor(const MonitorVariant& variant,
                                registry::ModelRegistry& registry);

  safety::RuleBasedMonitor& rule_monitor();

  /// Clean predictions of a variant on the test set (memoized).
  const std::vector<int>& clean_predictions(const MonitorVariant& variant);

  /// Tolerance-window metrics for arbitrary per-window test predictions.
  eval::ConfusionCounts evaluate(std::span<const int> predictions);

  /// Clean evaluation of one variant.
  EvalResult evaluate_clean(const MonitorVariant& variant);
  /// Clean evaluation of the rule-based monitor.
  EvalResult evaluate_rule_monitor();

  /// Gaussian-noise evaluation (Fig. 5/6/9): σ·std noise on sensor features.
  EvalResult evaluate_under_gaussian(const MonitorVariant& variant,
                                     double sigma_factor,
                                     std::uint64_t noise_seed = 1234);

  /// White-box FGSM evaluation (Fig. 8/9): ε on the full multivariate input.
  EvalResult evaluate_under_fgsm(const MonitorVariant& variant, double epsilon,
                                 attack::FeatureMask mask = attack::FeatureMask::kAll);

  /// Black-box substitute FGSM evaluation (Fig. 10). The substitute is
  /// trained once per target variant and memoized.
  EvalResult evaluate_under_blackbox(const MonitorVariant& variant,
                                     double epsilon);

  /// Sweep variants of the three perturbation evaluations. Each hydrates
  /// the memoized state (monitor, clean predictions, scaled test input)
  /// once and hands run_checkpointed_sweep only its point's scaled,
  /// perturbed input; every point predicts on the one const monitor. The
  /// FGSM and black-box sweeps compute their ε-independent input gradient
  /// once per curve, before the fan-out (the black-box one on the memoized
  /// substitute), and skip it when every point resumes from the checkpoint
  /// store. Results are bit-identical to calling the pointwise methods in a
  /// loop: inference rows are independent, and each point re-derives the
  /// same whole RNG stream the pointwise method would use.
  ///
  /// With a checkpoint store attached the sweeps are resumable: every
  /// completed point is persisted, already-stored points are reused instead
  /// of recomputed, and — because points are independent and re-derive
  /// their RNG streams — a killed-and-resumed campaign produces the same
  /// bytes as an uninterrupted one. Building a point's input is retried on
  /// transient faults (util::RetryPolicy) and polls the cooperative
  /// deadline watchdog.
  std::vector<EvalResult> evaluate_under_gaussian_sweep(
      const MonitorVariant& variant, std::span<const double> sigma_factors,
      std::uint64_t noise_seed = 1234);
  std::vector<EvalResult> evaluate_under_fgsm_sweep(
      const MonitorVariant& variant, std::span<const double> epsilons,
      attack::FeatureMask mask = attack::FeatureMask::kAll);
  std::vector<EvalResult> evaluate_under_blackbox_sweep(
      const MonitorVariant& variant, std::span<const double> epsilons);

  /// Stream every test trace through the chosen runtime while an
  /// input-stream fault corrupts the monitor's sensor channel, aggregating
  /// resilience metrics across traces. `fault_type` must be kNone (clean
  /// baseline) or one of the monitor-input faults; `fault_rate` is the
  /// per-cycle manifestation probability.
  eval::ResilienceReport evaluate_resilience(
      const MonitorVariant& variant, RuntimeMode mode,
      sim::FaultType fault_type, double fault_rate,
      const ResilienceEvalConfig& rc = {});

  /// Training configuration a variant resolves to. Public so tests can
  /// assert the seed-derivation contract (distinct per-arch seed tags).
  [[nodiscard]] monitor::MonitorConfig monitor_config(
      const MonitorVariant& variant) const;

  /// Attach a checkpoint store (not owned; nullptr detaches): sweep points
  /// and trained-model snapshots persist through it and are reused on
  /// resume. Attach before the first sweep/training call.
  void set_checkpoint_store(CheckpointStore* store) {
    checkpoint_store_ = store;
  }
  [[nodiscard]] CheckpointStore* checkpoint_store() const {
    return checkpoint_store_;
  }

  /// Stable digest of every config field that determines campaign outputs.
  /// Checkpoint keys embed it, so records from a different configuration
  /// can never be resumed into this one.
  [[nodiscard]] std::string config_fingerprint() const;

 private:
  std::string cache_path(const MonitorVariant& variant) const;
  const attack::SubstituteAttack& substitute_for(const MonitorVariant& variant);
  const nn::Tensor3& scaled_test_input(const MonitorVariant& variant);
  std::string sweep_point_key(const char* kind, const MonitorVariant& variant,
                              double param, std::uint64_t extra) const;
  std::string model_snapshot_key(const MonitorVariant& variant) const;
  /// The variant's monitor from the file cache, else from a checkpoint
  /// snapshot, else null. Either source is a model artifact that must
  /// verify and match monitor_config(variant); one that does not is
  /// logged and skipped.
  std::unique_ptr<monitor::MlMonitor> hydrate(const MonitorVariant& variant);
  /// Write a freshly trained monitor, as one model artifact, to the file
  /// cache and the checkpoint store (each if configured).
  void persist(const MonitorVariant& variant, monitor::MlMonitor& mon);
  /// Shared engine of the three sweeps. After the checkpoint prefill, and
  /// only if some point is missing, it runs `prepare` (may be empty) once,
  /// then three phases on the shared pool:
  ///   1. one task per missing point builds `scaled_input(i)`, under the
  ///      retry + chaos seam (`sweep.point`) and deadline polling;
  ///   2. one flat fan-out over every (point, nn::kChunkRows-row chunk)
  ///      predicts on the const monitor into that point's predictions;
  ///   3. each point's metrics, then its checkpoint put.
  std::vector<EvalResult> run_checkpointed_sweep(
      const char* kind, const MonitorVariant& variant,
      std::span<const double> params, std::uint64_t extra,
      const std::function<void()>& prepare,
      const std::function<nn::Tensor3(int)>& scaled_input);

  ExperimentConfig config_;
  CheckpointStore* checkpoint_store_ = nullptr;
  bool prepared_ = false;
  std::vector<sim::Trace> traces_;
  std::optional<SplitDatasets> data_;
  std::map<std::string, std::unique_ptr<monitor::MlMonitor>> monitors_;
  std::map<std::string, std::vector<int>> clean_preds_;
  std::map<std::string, nn::Tensor3> scaled_test_;
  std::map<std::string, std::unique_ptr<attack::SubstituteAttack>> substitutes_;
  std::optional<safety::RuleBasedMonitor> rule_monitor_;
};

}  // namespace cpsguard::core
