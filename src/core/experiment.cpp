#include "core/experiment.h"

#include "core/online_monitor.h"
#include "monitor/features.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <numeric>
#include <sstream>

#include "obs/events.h"
#include "obs/fileio.h"
#include "obs/sha256.h"
#include "obs/span.h"
#include "registry/model_io.h"
#include "registry/registry.h"
#include "util/chaos.h"
#include "util/contracts.h"
#include "util/deadline.h"
#include "util/logging.h"
#include "util/retry.h"
#include "util/thread_pool.h"

namespace cpsguard::core {

namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Per-architecture seed tag: every arch must map to a *distinct* value or
// variants silently share weight-init streams (GRU used to collide with
// MLP because only kLstm carried a tag). The MLP/LSTM values are frozen to
// their historical constants so existing caches and CSVs stay bit-identical.
std::uint64_t arch_seed_tag(monitor::Arch arch) {
  switch (arch) {
    case monitor::Arch::kMlp: return 0ULL;            // historical: untagged
    case monitor::Arch::kLstm: return 0xBEEF0000ULL;  // historical LSTM tag
    case monitor::Arch::kGru: return 0x47525500ULL;   // 'GRU\0'
  }
  return 0ULL;
}

// Bump whenever simulator/training behaviour or the persisted model format
// changes in ways the config cannot see: it keys both the .monitor file
// cache and config_fingerprint(), so stale cache files and checkpoint
// records (sweep points and model snapshots) are never read back.
// 4: cache files and snapshots are cpsguard.model.v1 artifacts.
constexpr int kCacheSchemaVersion = 4;

std::string hex_u64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t double_bits(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

// Checkpoint payload for one sweep point. robustness_err is stored as its
// IEEE-754 bit pattern so resumed points round-trip bit-exactly — the whole
// byte-identical-CSV guarantee hinges on it.
std::string encode_eval(const EvalResult& r) {
  std::ostringstream os;
  os << "eval|tp=" << r.confusion.tp << "|fp=" << r.confusion.fp
     << "|tn=" << r.confusion.tn << "|fn=" << r.confusion.fn
     << "|rerr_bits=" << hex_u64(double_bits(r.robustness_err));
  return os.str();
}

std::optional<EvalResult> decode_eval(const std::string& payload) {
  long tp = 0;
  long fp = 0;
  long tn = 0;
  long fn = 0;
  unsigned long long bits = 0;
  if (std::sscanf(payload.c_str(),
                  "eval|tp=%ld|fp=%ld|tn=%ld|fn=%ld|rerr_bits=%16llx", &tp, &fp,
                  &tn, &fn, &bits) != 5) {
    return std::nullopt;
  }
  EvalResult r;
  r.confusion.tp = tp;
  r.confusion.fp = fp;
  r.confusion.tn = tn;
  r.confusion.fn = fn;
  const auto b = static_cast<std::uint64_t>(bits);
  std::memcpy(&r.robustness_err, &b, sizeof r.robustness_err);
  return r;
}

}  // namespace

std::vector<sim::Trace> generate_campaign(const CampaignConfig& config) {
  expects(config.patients > 0 && config.sims_per_patient > 0, "bad campaign");
  expects(config.fault_fraction >= 0.0 && config.fault_fraction <= 1.0,
          "fault fraction must be in [0,1]");

  const obs::ScopedSpan span("campaign.generate");
  CPSGUARD_OBS_EVENT("campaign.generate",
                     obs::f("testbed", sim::to_string(config.testbed)),
                     obs::f("patients", config.patients),
                     obs::f("sims_per_patient", config.sims_per_patient));

  const auto profiles =
      sim::testbed_profiles(config.testbed, config.patients, config.seed);
  std::vector<std::vector<sim::Trace>> per_patient(
      static_cast<std::size_t>(config.patients));

  // Derive independent per-patient RNG streams up front so the parallel
  // loop stays deterministic regardless of scheduling.
  util::Rng root(config.seed, 0x43414d50u /* 'CAMP' */);
  std::vector<util::Rng> patient_rngs;
  patient_rngs.reserve(static_cast<std::size_t>(config.patients));
  for (int p = 0; p < config.patients; ++p) patient_rngs.push_back(root.split());

  util::parallel_for(config.patients, [&](int p) {
    util::Rng rng = patient_rngs[static_cast<std::size_t>(p)];
    auto patient = sim::make_patient(config.testbed);
    auto controller = sim::make_controller(config.testbed);
    auto& out = per_patient[static_cast<std::size_t>(p)];
    out.reserve(static_cast<std::size_t>(config.sims_per_patient));
    for (int s = 0; s < config.sims_per_patient; ++s) {
      sim::SimConfig sc;
      sc.steps = config.trace_steps;
      sc.inject_fault = rng.bernoulli(config.fault_fraction);
      sim::Trace trace = run_closed_loop(*patient, *controller,
                                         profiles[static_cast<std::size_t>(p)],
                                         sc, rng);
      trace.simulation_id = s;
      out.push_back(std::move(trace));
    }
  });

  std::vector<sim::Trace> traces;
  traces.reserve(static_cast<std::size_t>(config.patients) *
                 static_cast<std::size_t>(config.sims_per_patient));
  for (auto& batch : per_patient) {
    for (auto& t : batch) traces.push_back(std::move(t));
  }
  return traces;
}

SplitDatasets build_datasets(std::span<const sim::Trace> traces,
                             const monitor::DatasetConfig& dataset_config,
                             double train_fraction, std::uint64_t seed) {
  expects(train_fraction > 0.0 && train_fraction < 1.0,
          "train fraction must be in (0,1)");
  expects(traces.size() >= 2, "need at least two traces to split");

  util::Rng rng(seed, 0x53504c54u /* 'SPLT' */);
  const std::vector<int> order = rng.permutation(static_cast<int>(traces.size()));
  const auto train_count = static_cast<std::size_t>(
      std::max<double>(1.0, train_fraction * static_cast<double>(traces.size())));

  SplitDatasets out;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const sim::Trace& t = traces[static_cast<std::size_t>(order[i])];
    if (i < train_count) {
      out.train_traces.push_back(t);
    } else {
      out.test_traces.push_back(t);
    }
  }
  ensures(!out.test_traces.empty(), "empty test split");
  out.train = monitor::build_dataset(out.train_traces, dataset_config);
  out.test = monitor::build_dataset(out.test_traces, dataset_config);
  return out;
}

std::string MonitorVariant::name() const {
  std::string s = monitor::to_string(arch);
  if (semantic) s += "-Custom";
  return s;
}

std::vector<MonitorVariant> all_variants() {
  return {
      {monitor::Arch::kMlp, false},
      {monitor::Arch::kLstm, false},
      {monitor::Arch::kMlp, true},
      {monitor::Arch::kLstm, true},
  };
}

Experiment::Experiment(ExperimentConfig config) : config_(std::move(config)) {}

void Experiment::prepare() {
  if (prepared_) return;
  util::log_info("generating campaign for ", sim::to_string(config_.campaign.testbed),
                 ": ", config_.campaign.patients, " patients x ",
                 config_.campaign.sims_per_patient, " sims");
  traces_ = generate_campaign(config_.campaign);
  data_ = build_datasets(traces_, config_.dataset, config_.train_fraction,
                         config_.campaign.seed ^ 0x9e3779b97f4a7c15ULL);
  util::log_info("datasets: train=", data_->train.size(),
                 " test=", data_->test.size(), " positive-fraction(train)=",
                 data_->train.positive_fraction());
  prepared_ = true;
}

const std::vector<sim::Trace>& Experiment::traces() {
  prepare();
  return traces_;
}

const monitor::Dataset& Experiment::train_data() {
  prepare();
  return data_->train;
}

const monitor::Dataset& Experiment::test_data() {
  prepare();
  return data_->test;
}

const std::vector<sim::Trace>& Experiment::test_traces() {
  prepare();
  return data_->test_traces;
}

monitor::MonitorConfig Experiment::monitor_config(const MonitorVariant& v) const {
  monitor::MonitorConfig mc;
  mc.arch = v.arch;
  mc.semantic = v.semantic;
  mc.semantic_weight = v.arch == monitor::Arch::kMlp
                           ? config_.semantic_weight_mlp
                           : config_.semantic_weight_lstm;
  mc.epochs = config_.epochs;
  mc.batch_size = config_.batch_size;
  mc.learning_rate = config_.learning_rate;
  mc.seed = config_.campaign.seed ^ (v.semantic ? 0xABCDULL : 0x1234ULL) ^
            arch_seed_tag(v.arch);
  return mc;
}

std::string Experiment::config_fingerprint() const {
  const auto& c = config_;
  std::ostringstream key;
  key << kCheckpointSchema << "|v" << kCacheSchemaVersion << '|'
      << sim::to_string(c.campaign.testbed) << '|'
      << c.campaign.patients << '|' << c.campaign.sims_per_patient << '|'
      << c.campaign.fault_fraction << '|' << c.campaign.trace_steps << '|'
      << c.campaign.seed << '|' << c.dataset.window << '|' << c.dataset.horizon
      << '|' << c.dataset.bg_target << '|' << c.train_fraction << '|'
      << c.tolerance_delta << '|' << c.epochs << '|' << c.batch_size << '|'
      << c.learning_rate << '|' << c.semantic_weight_mlp << '|'
      << c.semantic_weight_lstm;
  return obs::sha256_hex(key.str()).substr(0, 16);
}

std::string Experiment::sweep_point_key(const char* kind,
                                        const MonitorVariant& v, double param,
                                        std::uint64_t extra) const {
  // The sweep parameter is keyed on its bit pattern: no formatting round-trip,
  // so 0.1 + 0.2-style near-misses can never alias a stored point.
  return std::string("sweep|") + kind + '|' + v.name() + '|' +
         hex_u64(double_bits(param)) + '|' + hex_u64(extra) + '|' +
         config_fingerprint();
}

std::string Experiment::model_snapshot_key(const MonitorVariant& v) const {
  return "model|" + v.name() + '|' + config_fingerprint();
}

std::string Experiment::cache_path(const MonitorVariant& v) const {
  std::ostringstream key;
  const auto& c = config_;
  key << 'v' << kCacheSchemaVersion << '|' << sim::to_string(c.campaign.testbed) << '|' << c.campaign.patients << '|'
      << c.campaign.sims_per_patient << '|' << c.campaign.fault_fraction << '|'
      << c.campaign.trace_steps << '|' << c.campaign.seed << '|'
      << c.dataset.window << '|' << c.dataset.horizon << '|'
      << c.dataset.bg_target << '|' << c.train_fraction << '|' << c.epochs
      << '|' << c.batch_size << '|' << c.learning_rate << '|'
      // Key only the weight this variant actually trains with, so baseline
      // caches survive semantic-weight tuning.
      << (v.semantic ? monitor_config(v).semantic_weight : 0.0) << '|'
      << (v.semantic ? static_cast<int>(monitor_config(v).semantic_mode) : -1)
      << '|' << v.name();
  std::ostringstream path;
  path << config_.cache_dir << '/' << v.name() << '_' << std::hex
       << fnv1a(key.str()) << ".monitor";
  return path.str();
}

std::uint64_t Experiment::publish_monitor(const MonitorVariant& variant,
                                          registry::ModelRegistry& registry) {
  return registry.publish(monitor(variant), variant.name(),
                          config_fingerprint());
}

std::unique_ptr<monitor::MlMonitor> Experiment::hydrate(
    const MonitorVariant& v) {
  // Both sources hold a cpsguard.model.v1 artifact: whole-file SHA-256,
  // then the declared-shape check against this variant's config. Any
  // failure falls through to the next source, then to retraining.
  const auto restore = [&](const char* source, auto&& open_artifact)
      -> std::unique_ptr<monitor::MlMonitor> {
    try {
      const registry::ModelArtifact art = open_artifact();
      if (art.info().window != config_.dataset.window ||
          art.info().features != monitor::Features::kNumFeatures) {
        throw registry::ModelFormatError(
            "model artifact: window or feature count is not this campaign's");
      }
      auto mon = registry::load_monitor(art, monitor_config(v));
      util::log_info("restored ", v.name(), " from ", source);
      return mon;
    } catch (const std::exception& e) {
      util::log_warn(source, " load failed for ", v.name(), " (", e.what(),
                     "), retraining");
      return nullptr;
    }
  };
  if (!config_.cache_dir.empty()) {
    const std::string path = cache_path(v);
    if (std::filesystem::exists(path)) {
      if (auto mon = restore("cache file",
                             [&] { return registry::ModelArtifact::open(path); })) {
        return mon;
      }
    }
  }
  // File cache missed; a checkpoint snapshot (from a killed run of this
  // same configuration) is the next-cheapest source before retraining.
  if (checkpoint_store_ != nullptr) {
    if (const auto payload = checkpoint_store_->get(model_snapshot_key(v))) {
      return restore("checkpoint snapshot",
                     [&] { return registry::ModelArtifact::parse(*payload); });
    }
  }
  return nullptr;
}

void Experiment::persist(const MonitorVariant& v, monitor::MlMonitor& mon) {
  if (config_.cache_dir.empty() && checkpoint_store_ == nullptr) return;
  registry::ModelMeta meta;
  meta.config_fingerprint = config_fingerprint();
  meta.display_name = v.name();
  meta.semantic = mon.config().semantic;
  meta.hidden = mon.config().effective_hidden();
  const std::string bytes = registry::build_model_artifact(mon, meta);
  if (!config_.cache_dir.empty()) {
    std::filesystem::create_directories(config_.cache_dir);
    const std::string path = cache_path(v);
    util::retry_call(util::RetryPolicy::for_file_io(), "experiment.cache",
                     [&] { obs::atomic_write_file(path, bytes); });
  }
  if (checkpoint_store_ != nullptr) {
    checkpoint_store_->put(model_snapshot_key(v), bytes);
  }
}

monitor::MlMonitor& Experiment::monitor(const MonitorVariant& v) {
  prepare();
  const std::string key = v.name();
  const auto it = monitors_.find(key);
  if (it != monitors_.end()) return *it->second;

  auto mon = hydrate(v);
  if (!mon) {
    mon = std::make_unique<monitor::MlMonitor>(monitor_config(v));
    util::log_info("training ", key, " on ", data_->train.size(), " windows");
    mon->train(data_->train);
    persist(v, *mon);
  }
  auto [ins, _] = monitors_.emplace(key, std::move(mon));
  return *ins->second;
}

void Experiment::train_all() {
  prepare();
  const obs::ScopedSpan span("train.all");
  // monitor() mutates shared maps; hydrate sequentially but train the
  // heavy part in parallel by pre-constructing monitors that miss.
  std::vector<MonitorVariant> missing;
  for (const auto& v : all_variants()) {
    if (monitors_.contains(v.name())) continue;
    if (auto mon = hydrate(v)) {
      monitors_.emplace(v.name(), std::move(mon));
    } else {
      missing.push_back(v);
    }
  }
  std::vector<std::unique_ptr<monitor::MlMonitor>> fresh(missing.size());
  util::parallel_for(static_cast<int>(missing.size()), [&](int i) {
    const auto at = static_cast<std::size_t>(i);
    fresh[at] = std::make_unique<monitor::MlMonitor>(monitor_config(missing[at]));
    fresh[at]->train(data_->train);
  });
  for (std::size_t i = 0; i < missing.size(); ++i) {
    persist(missing[i], *fresh[i]);
    monitors_.emplace(missing[i].name(), std::move(fresh[i]));
  }
}

safety::RuleBasedMonitor& Experiment::rule_monitor() {
  if (!rule_monitor_) {
    rule_monitor_.emplace(config_.dataset.bg_target);
  }
  return *rule_monitor_;
}

const std::vector<int>& Experiment::clean_predictions(const MonitorVariant& v) {
  const std::string key = v.name();
  const auto it = clean_preds_.find(key);
  if (it != clean_preds_.end()) return it->second;
  auto& mon = monitor(v);
  auto [ins, _] = clean_preds_.emplace(key, mon.predict(data_->test.x));
  return ins->second;
}

eval::ConfusionCounts Experiment::evaluate(std::span<const int> predictions) {
  prepare();
  return eval::evaluate_with_tolerance(data_->test, predictions,
                                       config_.tolerance_delta);
}

EvalResult Experiment::evaluate_clean(const MonitorVariant& v) {
  EvalResult r;
  r.confusion = evaluate(clean_predictions(v));
  r.robustness_err = 0.0;
  return r;
}

EvalResult Experiment::evaluate_rule_monitor() {
  prepare();
  const auto& ds = data_->test;
  std::vector<int> preds(static_cast<std::size_t>(ds.size()), 0);
  auto& rm = rule_monitor();
  for (int i = 0; i < ds.size(); ++i) {
    const auto si = static_cast<std::size_t>(i);
    const sim::Trace& trace =
        data_->test_traces[static_cast<std::size_t>(ds.trace_id[si])];
    preds[si] = rm.predict_step(
        trace.steps[static_cast<std::size_t>(ds.step_index[si])]);
  }
  EvalResult r;
  r.confusion = evaluate(preds);
  return r;
}

const nn::Tensor3& Experiment::scaled_test_input(const MonitorVariant& v) {
  const std::string key = v.name();
  const auto it = scaled_test_.find(key);
  if (it != scaled_test_.end()) return it->second;
  auto& mon = monitor(v);
  auto [ins, _] = scaled_test_.emplace(key, mon.scaler().transform(data_->test.x));
  return ins->second;
}

EvalResult Experiment::evaluate_under_gaussian(const MonitorVariant& v,
                                               double sigma_factor,
                                               std::uint64_t noise_seed) {
  auto& mon = monitor(v);
  attack::GaussianNoiseConfig gc;
  gc.sigma_factor = sigma_factor;
  util::Rng rng(noise_seed, 0x4e4f4953u /* 'NOIS' */);
  const nn::Tensor3 noisy =
      attack::add_gaussian_noise(data_->test.x, mon.scaler(), gc, rng);
  const std::vector<int> preds = mon.predict(noisy);
  EvalResult r;
  r.confusion = evaluate(preds);
  r.robustness_err = eval::robustness_error(clean_predictions(v), preds);
  return r;
}

EvalResult Experiment::evaluate_under_fgsm(const MonitorVariant& v,
                                           double epsilon,
                                           attack::FeatureMask mask) {
  const auto& mon = monitor(v);
  attack::FgsmConfig fc;
  fc.epsilon = epsilon;
  fc.mask = mask;
  const nn::Tensor3 adv = attack::fgsm_attack(
      mon.classifier(), scaled_test_input(v), data_->test.labels, fc);
  const std::vector<int> preds = mon.predict_scaled(adv);
  EvalResult r;
  r.confusion = evaluate(preds);
  r.robustness_err = eval::robustness_error(clean_predictions(v), preds);
  return r;
}

const attack::SubstituteAttack& Experiment::substitute_for(
    const MonitorVariant& v) {
  const std::string key = v.name();
  const auto it = substitutes_.find(key);
  if (it != substitutes_.end()) return *it->second;
  const auto& mon = monitor(v);
  auto sub = std::make_unique<attack::SubstituteAttack>(attack::SubstituteConfig{});
  // The attacker queries the target on the training distribution.
  const nn::Tensor3 queries = mon.scaler().transform(data_->train.x);
  sub->fit(mon.classifier(), queries);
  auto [ins, _] = substitutes_.emplace(key, std::move(sub));
  return *ins->second;
}

EvalResult Experiment::evaluate_under_blackbox(const MonitorVariant& v,
                                               double epsilon) {
  const auto& mon = monitor(v);
  const auto& sub = substitute_for(v);
  attack::FgsmConfig fc;
  fc.epsilon = epsilon;
  const nn::Tensor3 adv =
      sub.craft(scaled_test_input(v), clean_predictions(v), fc);
  const std::vector<int> preds = mon.predict_scaled(adv);
  EvalResult r;
  r.confusion = evaluate(preds);
  r.robustness_err = eval::robustness_error(clean_predictions(v), preds);
  return r;
}

std::vector<EvalResult> Experiment::run_checkpointed_sweep(
    const char* kind, const MonitorVariant& v, std::span<const double> params,
    std::uint64_t extra, const std::function<void()>& prepare,
    const std::function<nn::Tensor3(int)>& scaled_input) {
  // Hydrate every memoized structure before fanning out: the parallel
  // bodies must not touch the mutable maps. They share `mon` read-only.
  const monitor::MlMonitor& mon = monitor(v);
  const std::vector<int>& clean = clean_predictions(v);
  const monitor::Dataset& test = data_->test;

  const std::string name = std::string("sweep.") + kind;
  const obs::ScopedSpan span(name);
  static obs::Counter& points =
      obs::Registry::instance().counter("experiment.sweep_points");
  static obs::Counter& predicted =
      obs::Registry::instance().counter("experiment.sweep_windows_predicted");
  points.add(params.size());
  CPSGUARD_OBS_EVENT(name.c_str(), obs::f("model", v.name()),
                     obs::f("points", static_cast<int>(params.size())));

  const int n = static_cast<int>(params.size());
  std::vector<EvalResult> out(static_cast<std::size_t>(n));
  std::vector<int> missing;  // point indices still to compute, ascending
  for (int i = 0; i < n; ++i) {
    const auto si = static_cast<std::size_t>(i);
    if (checkpoint_store_ != nullptr) {
      const auto payload =
          checkpoint_store_->get(sweep_point_key(kind, v, params[si], extra));
      if (payload) {
        if (const auto r = decode_eval(*payload)) {
          out[si] = *r;
          continue;
        }
      }
    }
    missing.push_back(i);
  }
  if (checkpoint_store_ != nullptr && static_cast<int>(missing.size()) < n) {
    util::log_info("sweep.", kind, " ", v.name(), ": resumed ",
                   n - static_cast<int>(missing.size()), "/", n,
                   " points from ", checkpoint_store_->dir());
  }
  if (missing.empty()) return out;
  const int m = static_cast<int>(missing.size());

  // Shared per-curve work (the FGSM input gradient, which fans out over
  // row chunks itself) runs once, before the point fan-out, and only when
  // some point still has to be computed.
  if (prepare) {
    util::check_deadline(kind);
    prepare();
  }

  // Phase 1: each missing point's scaled, perturbed input.
  std::vector<nn::Tensor3> inputs(missing.size());
  util::parallel_for(m, [&](int j) {
    const auto sj = static_cast<std::size_t>(j);
    util::check_deadline(kind);
    // The chaos key is position-stable (kind, variant, index), so a given
    // chaos seed replays the same fault schedule in every process.
    const std::string chaos_key =
        std::string(kind) + '|' + v.name() + '|' + std::to_string(missing[sj]);
    util::retry_call(util::RetryPolicy::for_tasks(), "sweep.point", [&] {
      util::chaos().maybe_throw("sweep.point", chaos_key);
      inputs[sj] = scaled_input(missing[sj]);
    });
  });

  // Phase 2: one flat fan-out over every (point, row chunk). Rows predict
  // independently, so a chunk's classes equal its rows of a whole-set
  // predict, and a five-point curve keeps every thread busy to the end.
  const int rows = test.size();
  const int chunks = (rows + nn::kChunkRows - 1) / nn::kChunkRows;
  std::vector<int> row_ids(static_cast<std::size_t>(rows));
  std::iota(row_ids.begin(), row_ids.end(), 0);
  std::vector<std::vector<int>> preds(
      missing.size(), std::vector<int>(static_cast<std::size_t>(rows)));
  util::parallel_for(m * chunks, [&](int task) {
    const auto sj = static_cast<std::size_t>(task / chunks);
    const int r0 = (task % chunks) * nn::kChunkRows;
    const int r1 = std::min(rows, r0 + nn::kChunkRows);
    const auto chunk = std::span<const int>(row_ids).subspan(
        static_cast<std::size_t>(r0), static_cast<std::size_t>(r1 - r0));
    const std::vector<int> p = mon.predict_scaled(inputs[sj].gather(chunk));
    std::copy(p.begin(), p.end(), preds[sj].begin() + r0);
    predicted.add(p.size());
  });

  // Phase 3: metrics and the checkpoint record of every computed point.
  util::parallel_for(m, [&](int j) {
    const auto sj = static_cast<std::size_t>(j);
    const auto si = static_cast<std::size_t>(missing[sj]);
    out[si].confusion =
        eval::evaluate_with_tolerance(test, preds[sj], config_.tolerance_delta);
    out[si].robustness_err = eval::robustness_error(clean, preds[sj]);
    if (checkpoint_store_ != nullptr) {
      checkpoint_store_->put(sweep_point_key(kind, v, params[si], extra),
                             encode_eval(out[si]));
    }
  });
  return out;
}

std::vector<EvalResult> Experiment::evaluate_under_gaussian_sweep(
    const MonitorVariant& v, std::span<const double> sigma_factors,
    std::uint64_t noise_seed) {
  const monitor::MlMonitor& mon = monitor(v);
  const monitor::Dataset& test = test_data();
  return run_checkpointed_sweep(
      "gaussian", v, sigma_factors, noise_seed, /*prepare=*/{}, [&](int i) {
        // The noise RNG is keyed on the seed alone (not the point index),
        // exactly as the serial loop over evaluate_under_gaussian() seeded
        // it, so the outputs stay bit-identical to a serial sweep.
        attack::GaussianNoiseConfig gc;
        gc.sigma_factor = sigma_factors[static_cast<std::size_t>(i)];
        util::Rng rng(noise_seed, 0x4e4f4953u /* 'NOIS' */);
        return mon.scaler().transform(
            attack::add_gaussian_noise(test.x, mon.scaler(), gc, rng));
      });
}

std::vector<EvalResult> Experiment::evaluate_under_fgsm_sweep(
    const MonitorVariant& v, std::span<const double> epsilons,
    attack::FeatureMask mask) {
  const monitor::MlMonitor& mon = monitor(v);
  const nn::Tensor3& scaled = scaled_test_input(v);
  const monitor::Dataset& test = test_data();
  // The input gradient does not depend on ε: one per curve, computed
  // before the point fan-out (itself fanned out over row chunks), then
  // every point applies its ε to it.
  nn::Tensor3 grad;
  return run_checkpointed_sweep(
      "fgsm", v, epsilons, static_cast<std::uint64_t>(mask),
      [&] {
        grad = attack::fgsm_gradient(mon.classifier(), scaled, test.labels);
      },
      [&](int i) {
        attack::FgsmConfig fc;
        fc.epsilon = epsilons[static_cast<std::size_t>(i)];
        fc.mask = mask;
        return attack::fgsm_apply(scaled, grad, fc);
      });
}

std::vector<EvalResult> Experiment::evaluate_under_blackbox_sweep(
    const MonitorVariant& v, std::span<const double> epsilons) {
  const nn::Tensor3& scaled = scaled_test_input(v);
  const std::vector<int>& clean = clean_predictions(v);
  // As for white-box FGSM, but the gradient is the substitute's (what
  // SubstituteAttack::craft computes), fitted only if a point is missing.
  nn::Tensor3 grad;
  return run_checkpointed_sweep(
      "blackbox", v, epsilons, /*extra=*/0,
      [&] {
        grad = attack::fgsm_gradient(substitute_for(v).substitute(), scaled,
                                     clean);
      },
      [&](int i) {
        attack::FgsmConfig fc;
        fc.epsilon = epsilons[static_cast<std::size_t>(i)];
        return attack::fgsm_apply(scaled, grad, fc);
      });
}

std::string to_string(RuntimeMode m) {
  switch (m) {
    case RuntimeMode::kRawMl: return "ml_raw";
    case RuntimeMode::kResilient: return "resilient";
    case RuntimeMode::kRuleOnly: return "rule_only";
  }
  return "unknown";
}

namespace {

double default_input_fault_magnitude(sim::FaultType t) {
  switch (t) {
    case sim::FaultType::kSensorDelay: return 4.0;     // cycles (20 min)
    case sim::FaultType::kSensorGarbage: return 5000.0;  // wild-value ceiling
    case sim::FaultType::kSensorSpike: return 150.0;   // mg/dL
    default: return 0.0;
  }
}

/// Corrupt the monitor's view of a trace: the sensor channel goes through
/// the injector and d_bg is re-derived from the corrupted stream with the
/// same 15-minute lookback the closed loop uses (NaN propagates).
std::vector<sim::StepRecord> corrupt_monitor_input(const sim::Trace& trace,
                                                   sim::FaultInjector& faults) {
  constexpr int kTrendLookback = 3;
  std::vector<sim::StepRecord> out;
  out.reserve(trace.steps.size());
  std::vector<double> bg_history;
  for (const auto& orig : trace.steps) {
    sim::StepRecord r = orig;
    r.sensor_bg = faults.sense(orig.sensor_bg, orig.step);
    const int lag =
        std::min<int>(kTrendLookback, static_cast<int>(bg_history.size()));
    r.d_bg = lag > 0
                 ? (r.sensor_bg -
                    bg_history[bg_history.size() - static_cast<std::size_t>(lag)]) /
                       (lag * sim::kControlPeriodMin)
                 : 0.0;
    bg_history.push_back(r.sensor_bg);
    out.push_back(r);
  }
  return out;
}

}  // namespace

eval::ResilienceReport Experiment::evaluate_resilience(
    const MonitorVariant& variant, RuntimeMode mode, sim::FaultType fault_type,
    double fault_rate, const ResilienceEvalConfig& rc) {
  prepare();
  expects(fault_type == sim::FaultType::kNone || sim::is_input_fault(fault_type),
          "resilience evaluation takes a monitor-input fault (or kNone)");
  expects(fault_rate >= 0.0 && fault_rate <= 1.0, "fault rate must be in [0,1]");

  monitor::MlMonitor* ml =
      mode == RuntimeMode::kRuleOnly ? nullptr : &monitor(variant);
  safety::RuleBasedMonitor& rules = rule_monitor();

  const obs::ScopedSpan span("eval.resilience");
  CPSGUARD_OBS_EVENT("eval.resilience", obs::f("model", variant.name()),
                     obs::f("mode", to_string(mode)),
                     obs::f("fault", static_cast<int>(fault_type)),
                     obs::f("rate", fault_rate));

  eval::ResilienceReport total;
  const auto& traces = data_->test_traces;
  for (std::size_t ti = 0; ti < traces.size(); ++ti) {
    const sim::Trace& trace = traces[ti];
    sim::FaultSpec spec;
    if (fault_type != sim::FaultType::kNone) {
      spec.type = fault_type;
      spec.start_step = rc.runtime.window;  // let the ML window warm up
      spec.duration_steps = trace.length();
      spec.rate = fault_rate;
      spec.magnitude = default_input_fault_magnitude(fault_type);
    }
    sim::FaultInjector faults(spec,
                              rc.fault_seed + 0x9e3779b97f4a7c15ULL * (ti + 1));
    const std::vector<sim::StepRecord> corrupted =
        corrupt_monitor_input(trace, faults);

    std::vector<eval::StepOutcome> outcomes;
    outcomes.reserve(corrupted.size());
    switch (mode) {
      case RuntimeMode::kResilient: {
        ResilientMonitor rm(*ml, rc.runtime);
        for (const auto& r : corrupted) {
          const ResilientVerdict v = rm.step(r);
          eval::StepOutcome o;
          o.prediction = v.prediction;
          o.ready = v.ready;
          o.sample_valid = v.sample_fault == SampleFault::kNone;
          switch (v.state) {
            case MonitorState::kMlActive: o.regime = eval::Regime::kMl; break;
            case MonitorState::kDegraded: o.regime = eval::Regime::kFallback; break;
            case MonitorState::kFailSafe: o.regime = eval::Regime::kFailSafe; break;
          }
          o.available = v.ready && v.state != MonitorState::kFailSafe;
          outcomes.push_back(o);
        }
        eval::ResilienceReport rep =
            eval::evaluate_resilience(trace, outcomes, rc.tolerance_delta);
        const ResilienceTelemetry& tel = rm.telemetry();
        rep.fallback_entries = tel.fallback_entries;
        rep.recoveries = tel.recoveries;
        rep.recovery_latency_sum = tel.recovery_latency_sum;
        total += rep;
        break;
      }
      case RuntimeMode::kRawMl: {
        OnlineMonitor om(*ml, rc.runtime.window);
        InputValidator validator(rc.runtime.validator);
        int clean_run = 0;  // cycles since the last corrupted sample
        for (const auto& r : corrupted) {
          const OnlineVerdict v = om.step(r);
          const bool valid = validator.check(r) == SampleFault::kNone;
          clean_run = valid ? clean_run + 1 : 0;
          eval::StepOutcome o;
          o.prediction = v.prediction;
          o.ready = v.ready;
          o.sample_valid = valid;
          o.regime = eval::Regime::kMl;
          // A raw verdict is trustworthy only when the whole inference
          // window was uncorrupted — the monitor itself cannot tell.
          o.available = v.ready && clean_run >= rc.runtime.window;
          outcomes.push_back(o);
        }
        total += eval::evaluate_resilience(trace, outcomes, rc.tolerance_delta);
        break;
      }
      case RuntimeMode::kRuleOnly: {
        InputValidator validator(rc.runtime.validator);
        for (const auto& r : corrupted) {
          eval::StepOutcome o;
          o.prediction = rules.predict_step(r);
          o.ready = true;
          o.sample_valid = validator.check(r) == SampleFault::kNone;
          o.regime = eval::Regime::kFallback;
          o.available = o.sample_valid;
          outcomes.push_back(o);
        }
        total += eval::evaluate_resilience(trace, outcomes, rc.tolerance_delta);
        break;
      }
    }
  }
  return total;
}

}  // namespace cpsguard::core
