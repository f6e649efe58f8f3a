// robustness_sweep: the paper's Fig. 9 computation on Glucosym. Each timed
// repetition runs Experiment::evaluate_under_gaussian_sweep (σ 0.1…1.0)
// and evaluate_under_fgsm_sweep (ε 0.01…0.2) for MLP, LSTM, MLP-Custom and
// LSTM-Custom over the fixture's test windows. Each sweep call, one
// (variant, kind) curve of Fig. 9, is a request: its latency is the call's
// wall time, so p50 is a mid-priced curve and p99 the slowest (the LSTM
// FGSM curves, through BPTT). The rate counts perturbed windows verdicted
// per second of a repetition. Each of these figures is taken over the
// run's repetitions by best_quarter().
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "attack/fgsm.h"
#include "attack/gaussian.h"
#include "core/experiment.h"
#include "eval/metrics.h"
#include "eval/robustness.h"
#include "fixture.h"
#include "obs/sha256.h"
#include "probes.h"
#include "registry/registry.h"
#include "suite.h"
#include "util/thread_pool.h"

namespace cpsguard::suite {

namespace {

constexpr std::size_t kSweepThreads = 4;
constexpr int kSpareSetups = 4;  // set-up samples between repetitions
constexpr std::size_t kReplayReps = 3;
const std::vector<double> kSigmas = {0.1, 0.25, 0.5, 0.75, 1.0};
const std::vector<double> kEpsilons = {0.01, 0.05, 0.1, 0.15, 0.2};
constexpr const char* kKinds[] = {"gaussian", "fgsm"};

bool same(const core::EvalResult& a, const core::EvalResult& b) {
  return a.confusion.tp == b.confusion.tp && a.confusion.fp == b.confusion.fp &&
         a.confusion.tn == b.confusion.tn && a.confusion.fn == b.confusion.fn &&
         std::memcmp(&a.robustness_err, &b.robustness_err,
                     sizeof a.robustness_err) == 0;
}

/// Serial per-repetition cost of each layer the sweep calls, replayed on
/// one point per (variant, kind) and scaled by the points per sweep.
void replay_layers(core::Experiment& exp, std::uint64_t noise_seed,
                   Metrics& out) {
  const monitor::Dataset& test = exp.test_data();
  const auto points = static_cast<double>(kSigmas.size());
  double gaussian_s = 0.0, fgsm_s = 0.0, grad_s = 0.0, predict_s = 0.0,
         metrics_s = 0.0;
  for (const core::MonitorVariant& v : core::all_variants()) {
    const std::unique_ptr<monitor::MlMonitor> mon = exp.monitor(v).clone();
    const nn::Tensor3 scaled = mon->scaler().transform(test.x);
    const std::vector<int>& clean = exp.clean_predictions(v);

    attack::GaussianNoiseConfig gc;
    gc.sigma_factor = kSigmas[kSigmas.size() / 2];
    nn::Tensor3 noisy;
    gaussian_s += median_us([&] {
      util::Rng rng(noise_seed, 0x4e4f4953u /* 'NOIS' */);
      noisy = attack::add_gaussian_noise(test.x, mon->scaler(), gc, rng);
    }, kReplayReps);
    std::vector<int> preds;
    predict_s += median_us([&] { preds = mon->predict(noisy); }, kReplayReps);

    attack::FgsmConfig fc;
    fc.epsilon = kEpsilons[kEpsilons.size() / 2];
    nn::Tensor3 adv;
    fgsm_s += median_us([&] {
      adv = attack::fgsm_attack(mon->classifier(), scaled, test.labels, fc);
    }, kReplayReps);
    grad_s += median_us([&] {
      adv = mon->classifier().loss_input_gradient(scaled, test.labels);
    }, kReplayReps);
    predict_s += median_us([&] { preds = mon->predict_scaled(scaled); },
                           kReplayReps);
    metrics_s += 2.0 * median_us([&] {
      const eval::ConfusionCounts c = eval::evaluate_with_tolerance(
          test, preds, exp.config().tolerance_delta);
      (void)eval::robustness_error(clean, preds);
      (void)c;
    }, kReplayReps);
  }
  out.set("attack.gaussian.busy_s", gaussian_s * points * 1e-6, "s");
  out.set("attack.fgsm.busy_s", fgsm_s * points * 1e-6, "s");
  out.set("nn.input_grad.busy_s", grad_s * points * 1e-6, "s");
  out.set("eval.predict.busy_s", predict_s * points * 1e-6, "s");
  out.set("eval.metrics.busy_s", metrics_s * points * 1e-6, "s");
}

std::string load_digest(core::Experiment& exp, std::uint64_t noise_seed) {
  const monitor::Dataset& test = exp.test_data();
  obs::Sha256 h;
  h.update(test.x.data().data(), test.x.data().size() * sizeof(float));
  h.update(test.labels.data(), test.labels.size() * sizeof(int));
  h.update(kSigmas.data(), kSigmas.size() * sizeof(double));
  h.update(kEpsilons.data(), kEpsilons.size() * sizeof(double));
  h.update(&noise_seed, sizeof noise_seed);
  const auto d = h.digest();
  return hex(d.data(), d.size());
}

}  // namespace

Outcome run_sweep(const Options& opts) {
  require_fixture(opts.fixture_dir, opts.smoke);
  util::set_max_parallelism(kSweepThreads);
  const core::ExperimentConfig cfg = fixture_config(opts.fixture_dir, opts.smoke);
  const std::vector<core::MonitorVariant> variants = core::all_variants();
  const std::uint64_t noise_seed = opts.seed;
  Outcome out;

  std::vector<double> setup_s;
  const auto timed_setup = [&] {
    const auto start = Clock::now();
    auto e = std::make_unique<core::Experiment>(cfg);
    for (const core::MonitorVariant& v : variants) e->monitor(v);
    setup_s.push_back(seconds_between(start, Clock::now()));
    return e;
  };
  const ObsSnapshot before_setup = ObsSnapshot::take();
  const std::unique_ptr<core::Experiment> exp = timed_setup();
  // Warm-up: clean predictions, then the first point of every curve. The
  // first sweep calls of a process otherwise run two to three times slower
  // than later ones while buffers and caches fill.
  for (const core::MonitorVariant& v : variants) {
    exp->evaluate_clean(v);
    exp->evaluate_under_gaussian_sweep(v, {kSigmas.data(), 1}, noise_seed);
    exp->evaluate_under_fgsm_sweep(v, {kEpsilons.data(), 1});
  }

  const long windows = exp->test_data().size();
  SpanRecorder spans(opts.traced());
  std::vector<double> p50s, p99s, rates;
  std::vector<std::vector<core::EvalResult>> first;
  int reps = 0;
  const ObsSnapshot obs_before = ObsSnapshot::take();
  const auto start = Clock::now();
  // Whole repetitions only, stopping before one would overrun --seconds.
  for (;;) {
    // More set-up samples between repetitions, of spare Experiments built
    // and dropped, so that set-up time is sampled across the run (see
    // serve_workload.cpp). Traced runs skip them.
    for (int i = 0; reps > 0 && !spans.enabled() && i < kSpareSetups; ++i) {
      timed_setup();
    }
    const auto rep_start = Clock::now();
    const Scoped rep(spans, "sweep.rep");
    LatencyLog latency;  // one sample per sweep call
    long verdicts = 0;
    std::size_t call = 0;
    for (const core::MonitorVariant& v : variants) {
      for (const char* kind : kKinds) {
        const bool gaussian = kind == kKinds[0];
        const auto points = static_cast<long>(gaussian ? kSigmas.size()
                                                       : kEpsilons.size());
        std::vector<core::EvalResult> results;
        const auto call_start = Clock::now();
        {
          const Scoped span(spans, "sweep." + v.name() + "." + kind, rep.id());
          try {
            results = gaussian
                          ? exp->evaluate_under_gaussian_sweep(v, kSigmas,
                                                               noise_seed)
                          : exp->evaluate_under_fgsm_sweep(v, kEpsilons);
          } catch (const std::exception& e) {
            out.fail(std::string("sweep threw: ") + e.what());
          }
        }
        const double call_ms = seconds_between(call_start, Clock::now()) * 1e3;
        out.attempted += points;
        if (results.size() != static_cast<std::size_t>(points)) {
          out.failed += points;
          latency.add(std::numeric_limits<double>::infinity(), 1);
        } else {
          latency.add(call_ms, 1);
          verdicts += points * windows;
        }
        if (reps == 0) {
          first.push_back(results);
        } else if (results.size() != first[call].size() ||
                   !std::equal(results.begin(), results.end(),
                               first[call].begin(), same)) {
          out.fail("repetition " + std::to_string(reps) + " of sweep." +
                   v.name() + "." + kind + " differs from the first");
        }
        ++call;
      }
    }
    p50s.push_back(latency.quantile(0.5));
    p99s.push_back(latency.quantile(0.99));
    rates.push_back(static_cast<double>(verdicts) /
                    seconds_between(rep_start, Clock::now()));
    ++reps;
    const double elapsed = seconds_between(start, Clock::now());
    if (opts.smoke || elapsed * (reps + 1) / reps > opts.seconds) break;
  }
  const double wall_s = seconds_between(start, Clock::now());
  const ObsSnapshot obs_after = ObsSnapshot::take();
  if (obs_after.epochs_trained != before_setup.epochs_trained) {
    out.fail("the fixture cache missed: the sweep trained a monitor");
  }

  // Oracles: finite F1, robustness error in [0, 1], and one seeded point
  // per kind recomputed through the pointwise methods, bit for bit.
  for (std::size_t c = 0; c < first.size(); ++c) {
    for (const core::EvalResult& r : first[c]) {
      if (!std::isfinite(r.f1()) || !(r.robustness_err >= 0.0) ||
          !(r.robustness_err <= 1.0)) {
        out.fail("sweep call " + std::to_string(c) +
                 " has a non-finite F1 or a robustness error outside [0, 1]");
      }
    }
  }
  for (std::size_t k = 0; k < 2; ++k) {
    const std::uint64_t pick = mix64(opts.seed ^ (k + 1));
    const std::size_t vi = pick % variants.size();
    const std::size_t pi = (pick >> 8) % kSigmas.size();
    const std::vector<core::EvalResult>& swept = first[vi * 2 + k];
    if (swept.size() <= pi) continue;  // the call threw; already failed
    const core::EvalResult r =
        k == 0 ? exp->evaluate_under_gaussian(variants[vi], kSigmas[pi],
                                              noise_seed)
               : exp->evaluate_under_fgsm(variants[vi], kEpsilons[pi]);
    if (!same(r, swept[pi])) {
      out.fail(std::string("pointwise ") + kKinds[k] + " " +
               variants[vi].name() + " point " + std::to_string(pi) +
               " differs from the sweep");
    }
  }

  out.end_to_end.set("setup_s", median(setup_s), "s");
  out.end_to_end.set("lat_p50_ms", best_quarter(p50s, true), "ms");
  out.end_to_end.set("lat_p99_ms", best_quarter(p99s, true), "ms");
  out.end_to_end.set("peak_verdicts_per_s", best_quarter(rates, false), "1/s");
  out.end_to_end.set("peak_rss_mb", peak_rss_mb(), "MiB");
  out.load_sha256 = load_digest(*exp, noise_seed);
  out.model_sha256 = model_digest(opts.fixture_dir);

  if (spans.enabled()) {
    Metrics& m = out.layers;
    const double per_rep = 1.0 / reps;
    m.set("sweep.rep.self_s", spans.self_s("sweep.rep") * per_rep, "s");
    for (const core::MonitorVariant& v : variants) {
      double s = 0.0;
      for (const char* kind : kKinds) {
        s += spans.total_s("sweep." + v.name() + "." + kind);
      }
      m.set("sweep." + v.name() + ".s", s * per_rep, "s");
    }
    set_pool_metrics(obs_before, obs_after, wall_s, m);
    m.set("trace.lat_p50_ms", best_quarter(p50s, true), "ms");

    const core::MonitorVariant lstm{monitor::Arch::kLstm, false};
    const std::unique_ptr<monitor::MlMonitor> probe_model =
        exp->monitor(lstm).clone();
    std::vector<sim::StepRecord> records;
    for (const sim::Trace& trace : exp->test_traces()) {
      records.insert(records.end(), trace.steps.begin(), trace.steps.end());
    }
    const registry::ModelRegistry reg(registry_dir(opts.fixture_dir));
    run_layer_probes(ProbeInput{probe_model.get(), &exp->test_data().x,
                                static_cast<int>(windows), records, &reg,
                                kLstmVersion},
                     m);
    replay_layers(*exp, noise_seed, m);
    spans.write_chrome_trace(opts.trace_path);
  }
  return out;
}

}  // namespace cpsguard::suite
