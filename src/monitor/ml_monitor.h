// ML safety monitors — the paper's four learned monitor variants:
//   MLP, LSTM                   (baseline, cross-entropy loss)
//   MLP-Custom, LSTM-Custom     (semantic loss, Eq. 2)
//
// A monitor bundles the classifier with its fitted input scaler and training
// configuration; it consumes *raw* feature windows and handles normalization
// internally. Attack code can reach through to the classifier and scaler to
// craft perturbations in the right space.
#pragma once

#include <memory>
#include <span>
#include <string>

#include "monitor/dataset.h"
#include "monitor/scaler.h"
#include "nn/classifier.h"
#include "nn/serialize.h"

namespace cpsguard::monitor {

enum class Arch { kMlp, kLstm, kGru };

std::string to_string(Arch a);

struct MonitorConfig {
  Arch arch = Arch::kMlp;
  bool semantic = false;          // train with the semantic loss (Eq. 2)
  double semantic_weight = 2.0;   // the w of Eq. 2
  // Symmetric (Eq. 2) by default: the s = 0 pull is what regularizes the
  // dominant safe region and buys FGSM robustness; kUnsafeOnly preserves
  // clean accuracy but forfeits most of that gain (see the defenses
  // ablation bench).
  nn::SemanticMode semantic_mode = nn::SemanticMode::kSymmetric;
  std::vector<int> hidden;        // empty → paper defaults (256-128 / 128-64)
  int epochs = 8;
  int batch_size = 64;
  double learning_rate = 0.001;   // paper: Adam default
  std::uint64_t seed = 7;

  // Adversarial training (the defense baseline the paper's related-work
  // section contrasts the semantic loss against): starting from the second
  // epoch, a fraction of every batch is replaced with on-the-fly FGSM
  // examples against the current model.
  bool adversarial_training = false;
  double adv_epsilon = 0.1;     // L∞ budget of the training-time FGSM
  double adv_fraction = 0.5;    // fraction of each batch attacked

  /// "MLP", "LSTM", "MLP-Custom", "LSTM-Custom" — the Table III row names —
  /// with an "-Adv" suffix under adversarial training.
  [[nodiscard]] std::string display_name() const;
  /// Paper-default hidden sizes for the architecture.
  [[nodiscard]] std::vector<int> effective_hidden() const;
};

struct TrainReport {
  std::vector<double> epoch_loss;  // mean training loss per epoch
  int samples = 0;
};

class MlMonitor {
 public:
  explicit MlMonitor(MonitorConfig config);

  /// Fit scaler + classifier on the dataset's raw windows.
  TrainReport train(const Dataset& train_data);

  [[nodiscard]] bool trained() const { return clf_ != nullptr; }

  /// Predict on raw (unscaled) windows. Every predict call is const and
  /// records nothing, so any number of threads may share one monitor.
  [[nodiscard]] std::vector<int> predict(const nn::Tensor3& raw_windows) const;
  [[nodiscard]] nn::Matrix predict_proba(const nn::Tensor3& raw_windows) const;

  /// Predict on windows already in the scaled model space (attack surface,
  /// and the streaming engine, which scales each window as it stages it).
  [[nodiscard]] std::vector<int> predict_scaled(
      const nn::Tensor3& scaled_windows) const;
  [[nodiscard]] nn::Matrix predict_proba_scaled(
      const nn::Tensor3& scaled_windows) const;

  [[nodiscard]] const MonitorConfig& config() const { return config_; }
  [[nodiscard]] const StandardScaler& scaler() const;
  [[nodiscard]] nn::Classifier& classifier();
  [[nodiscard]] const nn::Classifier& classifier() const;

  /// Restore from a parsed model artifact, the one persisted form
  /// (registry::load_monitor calls this; registry::build_model_artifact
  /// writes it): the scaler loads from a byte stream and every weight is
  /// copied into the monitor's own storage (nn::bind_params checks names,
  /// order and shapes). The monitor keeps no pointer into `weights`.
  void bind(std::istream& scaler_stream, int window, int features,
            std::span<const nn::NamedTensor> weights);

  /// Deep copy of a trained monitor (config + scaler + weights).
  /// Concurrent readers need no copy (predict is const); a copy is for an
  /// owner that must not depend on the source's lifetime — the serve
  /// engine takes one per staged monitor.
  [[nodiscard]] std::unique_ptr<MlMonitor> clone() const;

 private:
  void build_classifier(int window, int features);

  MonitorConfig config_;
  StandardScaler scaler_;
  std::unique_ptr<nn::Classifier> clf_;
};

}  // namespace cpsguard::monitor
