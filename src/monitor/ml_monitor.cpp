#include "monitor/ml_monitor.h"

#include <istream>

#include "nn/gru_classifier.h"
#include "nn/lstm_classifier.h"
#include "nn/serialize.h"
#include "obs/events.h"
#include "obs/span.h"
#include "util/contracts.h"
#include "util/logging.h"

namespace cpsguard::monitor {

std::string to_string(Arch a) {
  switch (a) {
    case Arch::kMlp: return "MLP";
    case Arch::kLstm: return "LSTM";
    case Arch::kGru: return "GRU";
  }
  return "?";
}

std::string MonitorConfig::display_name() const {
  std::string s = to_string(arch);
  if (semantic) s += "-Custom";
  if (adversarial_training) s += "-Adv";
  return s;
}

std::vector<int> MonitorConfig::effective_hidden() const {
  if (!hidden.empty()) return hidden;
  // Paper defaults: MLP 256-128; recurrent monitors 128-64.
  return arch == Arch::kMlp ? std::vector<int>{256, 128}
                            : std::vector<int>{128, 64};
}

MlMonitor::MlMonitor(MonitorConfig config) : config_(std::move(config)) {
  expects(config_.epochs > 0 && config_.batch_size > 0, "bad training config");
  expects(config_.learning_rate > 0.0, "bad learning rate");
}

void MlMonitor::build_classifier(int window, int features) {
  util::Rng rng(config_.seed, 0x4d4f4e49u /* 'MONI' */);
  const auto hidden = config_.effective_hidden();
  switch (config_.arch) {
    case Arch::kMlp:
      clf_ = std::make_unique<nn::MlpClassifier>(window, features, hidden, 2, rng);
      break;
    case Arch::kLstm:
      clf_ = std::make_unique<nn::LstmClassifier>(window, features, hidden, 2, rng);
      break;
    case Arch::kGru:
      clf_ = std::make_unique<nn::GruClassifier>(window, features, hidden, 2, rng);
      break;
  }
}

TrainReport MlMonitor::train(const Dataset& train_data) {
  expects(train_data.size() > 0, "empty training set");
  scaler_.fit(train_data.x);
  const nn::Tensor3 x = scaler_.transform(train_data.x);
  build_classifier(x.time(), x.features());

  nn::Adam adam(config_.learning_rate);
  const nn::SoftmaxCrossEntropy ce;
  const nn::SemanticLoss semantic(config_.semantic_weight, config_.semantic_mode);
  const nn::Loss& loss =
      config_.semantic ? static_cast<const nn::Loss&>(semantic) : ce;

  util::Rng shuffle_rng(config_.seed ^ 0x5f8f71e5ULL, 0x53484642u);
  TrainReport report;
  report.samples = train_data.size();

  static obs::Counter& epochs_trained =
      obs::Registry::instance().counter("nn.epochs_trained");
  static obs::Counter& batches_trained =
      obs::Registry::instance().counter("nn.batches_trained");
  static obs::Counter& samples_trained =
      obs::Registry::instance().counter("nn.samples_trained");
  static obs::Histogram& epoch_seconds =
      obs::Registry::instance().histogram("span.train.epoch");

  const int n = train_data.size();
  const int batch = config_.batch_size;
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    const obs::ScopedSpan epoch_span("train.epoch", epoch_seconds);
    const std::vector<int> order = shuffle_rng.permutation(n);
    double epoch_loss = 0.0;
    int batches = 0;
    for (int start = 0; start < n; start += batch) {
      const int count = std::min(batch, n - start);
      std::vector<int> idx(order.begin() + start, order.begin() + start + count);
      const nn::Tensor3 xb = x.gather(idx);
      std::vector<int> yb(static_cast<std::size_t>(count));
      std::vector<float> sb(static_cast<std::size_t>(count));
      for (int i = 0; i < count; ++i) {
        yb[static_cast<std::size_t>(i)] =
            train_data.labels[static_cast<std::size_t>(idx[static_cast<std::size_t>(i)])];
        sb[static_cast<std::size_t>(i)] =
            train_data.semantic[static_cast<std::size_t>(idx[static_cast<std::size_t>(i)])];
      }
      const std::span<const float> sem =
          config_.semantic ? std::span<const float>(sb) : std::span<const float>();

      if (config_.adversarial_training && epoch > 0) {
        // FGSM against the current model on the leading slice of the batch
        // (inline sign-of-input-gradient — keeps monitor/ independent of
        // the attack library, which depends on this module). The gradient
        // is the const whole-mini-batch one, scaled by this batch's 1/B.
        nn::Tensor3 mixed = xb;
        const int attacked = static_cast<int>(config_.adv_fraction * count);
        if (attacked > 0) {
          const nn::Tensor3 grad = clf_->loss_input_gradient(xb, yb);
          const auto eps = static_cast<float>(config_.adv_epsilon);
          for (int bi = 0; bi < attacked; ++bi) {
            for (int t = 0; t < mixed.time(); ++t) {
              auto row = mixed.row(bi, t);
              const auto g = grad.row(bi, t);
              for (std::size_t f = 0; f < row.size(); ++f) {
                row[f] += g[f] > 0.0f ? eps : (g[f] < 0.0f ? -eps : 0.0f);
              }
            }
          }
        }
        epoch_loss += clf_->train_batch(mixed, yb, sem, loss, adam);
      } else {
        epoch_loss += clf_->train_batch(xb, yb, sem, loss, adam);
      }
      ++batches;
    }
    report.epoch_loss.push_back(epoch_loss / std::max(1, batches));
    epochs_trained.increment();
    batches_trained.add(static_cast<std::uint64_t>(batches));
    samples_trained.add(static_cast<std::uint64_t>(n));
    CPSGUARD_OBS_EVENT("train.epoch", obs::f("model", config_.display_name()),
                       obs::f("epoch", epoch),
                       obs::f("loss", report.epoch_loss.back()),
                       obs::f("secs", epoch_span.elapsed_seconds()));
    util::log_debug(config_.display_name(), " epoch ", epoch, " loss ",
                    report.epoch_loss.back());
  }
  return report;
}

std::vector<int> MlMonitor::predict(const nn::Tensor3& raw_windows) const {
  expects(trained(), "monitor not trained");
  return predict_scaled(scaler_.transform(raw_windows));
}

nn::Matrix MlMonitor::predict_proba(const nn::Tensor3& raw_windows) const {
  expects(trained(), "monitor not trained");
  return clf_->predict_proba(scaler_.transform(raw_windows));
}

std::vector<int> MlMonitor::predict_scaled(
    const nn::Tensor3& scaled_windows) const {
  expects(trained(), "monitor not trained");
  return nn::predict_classes(*clf_, scaled_windows);
}

nn::Matrix MlMonitor::predict_proba_scaled(
    const nn::Tensor3& scaled_windows) const {
  expects(trained(), "monitor not trained");
  return clf_->predict_proba(scaled_windows);
}

const StandardScaler& MlMonitor::scaler() const {
  expects(scaler_.fitted(), "monitor not trained");
  return scaler_;
}

nn::Classifier& MlMonitor::classifier() {
  expects(trained(), "monitor not trained");
  return *clf_;
}

const nn::Classifier& MlMonitor::classifier() const {
  expects(trained(), "monitor not trained");
  return *clf_;
}

std::unique_ptr<MlMonitor> MlMonitor::clone() const {
  expects(trained(), "monitor not trained");
  auto out = std::make_unique<MlMonitor>(config_);
  out->scaler_ = scaler_;
  out->build_classifier(clf_->time_steps(), clf_->features());
  const auto src = clf_->params();
  const auto dst = out->clf_->params();
  for (std::size_t i = 0; i < src.size(); ++i) {
    const nn::Matrix& v = src[i]->value;
    dst[i]->value = nn::Matrix(v.rows(), v.cols(),
                               {v.data().begin(), v.data().end()});
  }
  return out;
}

void MlMonitor::bind(std::istream& scaler_stream, int window, int features,
                     std::span<const nn::NamedTensor> weights) {
  scaler_.load(scaler_stream);
  build_classifier(window, features);
  const auto ps = clf_->params();
  nn::bind_params(ps, weights);
}

}  // namespace cpsguard::monitor
