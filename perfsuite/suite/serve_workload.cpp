// Serve workloads. One driver thread plays every patient session against a
// serve::Engine through its public API. After a paced warm-up the run makes
// rounds of a paced block followed by a peak segment:
//
//   paced  open loop: every session's next record falls due together once
//          per period, whether or not the engine kept up. A record's latency
//          runs from its due time to the tick() return that delivers its
//          verdict, so a stall also delays the records due after it.
//   peak   closed loop: cycles back to back; the segment's verdicts per
//          second count only if its p99 cycle time is within
//          kLatencyLimitMs.
//
// Rounds continue while another one still fits in --seconds. Each latency
// and rate figure is taken over the rounds by best_quarter(); rounds are
// short, so interference from outside the process spoils some of them
// without moving the figure. On serve_churn_swap a round is exactly one
// swap period long and every paced block holds one swap tick, so each
// block's p99 carries the cost of a swap.
// Every verdict is checked against the driver's own record log: each
// window-completing accepted record gets exactly one verdict, and a seeded
// sample is re-scored through MlMonitor::predict_proba.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/experiment.h"
#include "fixture.h"
#include "loadgen/churner.h"
#include "monitor/features.h"
#include "obs/metrics.h"
#include "obs/sha256.h"
#include "probes.h"
#include "registry/registry.h"
#include "serve/engine.h"
#include "suite.h"
#include "util/thread_pool.h"

namespace cpsguard::suite {

namespace {

using serve::SessionId;

constexpr double kLatencyLimitMs = 50.0;
constexpr int kShards = 4;
constexpr std::size_t kServeThreads = 2;
constexpr std::uint64_t kSampleEvery = 1000;  // oracle re-scores ~1 in this
constexpr int kMaxWindow = 8;
constexpr std::int64_t kChurnSwapEvery = 50;
constexpr std::int64_t kChurnSwapOffset = 7;  // paced ticks before the swap
constexpr std::int64_t kChurnIdleTtl = 8;
constexpr std::int64_t kDigestTicks = 1024;  // schedule ticks in load_sha256
constexpr double kInf = std::numeric_limits<double>::infinity();

struct ServeSpec {
  const char* name;
  std::uint64_t version;   // registry version served first
  int sessions;            // steady sessions, or the churn base
  int max_batch;
  double period_ms;        // open-loop period of the paced phase
  int block_cycles;        // paced cycles per round
  int peak_cycles;         // closed-loop cycles per round
  bool churn;
};

// Paced rates are about 40 % of the peak each workload reaches on the
// reference host (see README.md). A paced block lasts about 0.15 s and a
// peak segment 40 to 150 ms there.
constexpr ServeSpec kSpecs[] = {
    {"serve_mlp_steady", kMlpVersion, 1024, 256, 5.0, 30, 38, false},
    {"serve_lstm_steady", kLstmVersion, 64, 256, 12.0, 13, 18, false},
    {"serve_churn_swap", kMlpVersion, 1024, 64, 10.0, 15, 35, true},
};
// A churn round is one swap period, and the swap falls inside the block.
static_assert(kSpecs[2].churn &&
              kSpecs[2].block_cycles + kSpecs[2].peak_cycles ==
                  kChurnSwapEvery &&
              kChurnSwapOffset < kSpecs[2].block_cycles);

const ServeSpec* find_spec(const std::string& name) {
  for (const ServeSpec& s : kSpecs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

/// Diurnal churn: 1024 to 2048 concurrent sessions over a 96-tick day,
/// short heavy-tailed sessions, abandons left to TTL eviction, reconnects.
loadgen::TrafficConfig churn_traffic(int base) {
  loadgen::TrafficConfig cfg;
  cfg.model = loadgen::TrafficModel::kDiurnal;
  cfg.base_sessions = base;
  cfg.peak = 2.0;
  cfg.period = 96;
  cfg.min_session_len = 4;
  cfg.abandon_prob = 0.2;
  cfg.reconnect_prob = 0.25;
  return cfg;
}

/// The seeded simulation campaign whose traces the sessions replay.
core::CampaignConfig records_campaign(std::uint64_t seed, bool smoke) {
  core::CampaignConfig c;
  c.testbed = sim::Testbed::kGlucosymOpenAps;
  c.patients = smoke ? 2 : 8;
  c.sims_per_patient = smoke ? 2 : 4;
  c.trace_steps = smoke ? 40 : 150;
  c.seed = seed;
  return c;
}

/// Registry version staged at tick `t` (0 = none): churn alternates the
/// MLP-Custom and MLP models every kChurnSwapEvery ticks.
std::uint64_t swap_version(const ServeSpec& spec, std::int64_t t) {
  if (!spec.churn || t == 0 || t % kChurnSwapEvery != 0) return 0;
  return (t / kChurnSwapEvery) % 2 == 1 ? kMlpCustomVersion : kMlpVersion;
}

/// The load generator: which sessions close and submit at each tick. It
/// runs ahead of the cycles that consume its plans, never inside a timed
/// cycle.
class LoadGen {
 public:
  LoadGen(const ServeSpec& spec, std::uint64_t seed)
      : churn_(spec.churn), churner_(churn_traffic(spec.sessions), seed) {
    if (!churn_) {
      for (int s = 1; s <= spec.sessions; ++s) steady_.submits.push_back(s);
    }
  }

  /// Generate plans up to and including tick `t`.
  void prepare(std::int64_t t) {
    while (churn_ && next_ <= t) buffered_.push_back(churner_.plan(next_++));
  }

  /// Drop the plans of ticks before `t`.
  void release_before(std::int64_t t) {
    while (churn_ && base_ < t && !buffered_.empty()) {
      buffered_.pop_front();
      ++base_;
    }
  }

  [[nodiscard]] const loadgen::TickPlan& plan(std::int64_t t) const {
    return churn_ ? buffered_[static_cast<std::size_t>(t - base_)] : steady_;
  }

 private:
  bool churn_;
  loadgen::SessionChurner churner_;
  loadgen::TickPlan steady_;
  std::deque<loadgen::TickPlan> buffered_;
  std::int64_t base_ = 0;  // tick of buffered_.front()
  std::int64_t next_ = 0;  // next tick to generate
};

/// The driver's record log of one session since its (re)admission. The
/// loadgen InvariantChecker is not used here: it keeps state for every id
/// ever seen, which would grow the driver's memory with the run length.
struct SessionLog {
  std::array<std::int64_t, kMaxWindow> ticks{};  // tick of accepted record k
  int count = 0;                                 // records accepted
  int owed = -1;  // cycle whose verdict this tick must deliver, -1 = none
};

/// A verdict kept for re-scoring: its window's ticks, oldest first.
struct Sample {
  SessionId session = 0;
  std::array<std::int64_t, kMaxWindow> ticks{};
  std::uint64_t version = 0;
  double p_unsafe = 0.0;
};

struct Counts {
  long offered = 0;
  long rejected = 0;
  long owed = 0;       // verdicts owed for window-completing records
  long delivered = 0;

  void add(const Counts& o) {
    offered += o.offered;
    rejected += o.rejected;
    owed += o.owed;
    delivered += o.delivered;
  }
  [[nodiscard]] long failed() const { return rejected + (owed - delivered); }
};

double ms_between(Clock::time_point a, Clock::time_point b) {
  return seconds_between(a, b) * 1e3;
}

class ServeRun {
 public:
  ServeRun(const ServeSpec& spec, const Options& opts)
      : spec_(spec),
        opts_(opts),
        reg_(registry_dir(opts.fixture_dir)),
        window_(fixture_config(opts.fixture_dir, opts.smoke).dataset.window),
        spans_(opts.traced()) {
    if (window_ > kMaxWindow) throw CpsError("window longer than kMaxWindow");
    cfg_.shards = kShards;
    cfg_.window = window_;
    cfg_.max_batch = spec.max_batch;
    cfg_.idle_ttl_ticks = spec.churn ? kChurnIdleTtl : 0;
    cfg_.initial_model_version = spec.version;
  }

  Outcome run();

 private:
  /// Builds the system under test and returns the seconds it took.
  double setup();
  Clock::time_point cycle(bool timed, Counts& c);
  [[nodiscard]] const sim::StepRecord& record_for(SessionId id,
                                                  std::int64_t t) const {
    const auto& steps = traces_[id % traces_.size()].steps;
    return steps[(id + static_cast<std::uint64_t>(t)) % steps.size()];
  }
  void violation(const std::string& what) {
    if (violations_++ < 5) problems_.push_back(what);
  }
  [[nodiscard]] std::string load_digest() const;
  void check_samples();
  nn::Tensor3 probe_windows(int batch) const;

  const ServeSpec& spec_;
  const Options& opts_;
  registry::ModelRegistry reg_;
  int window_;
  serve::EngineConfig cfg_;

  // System under test, built by setup().
  std::unique_ptr<LoadGen> load_;
  std::vector<sim::Trace> traces_;
  std::unique_ptr<registry::ModelRegistry::LoadedModel> model_;
  std::unique_ptr<serve::Engine> engine_;
  std::int64_t tick_ = 0;

  // Driver bookkeeping.
  std::unordered_map<SessionId, SessionLog> logs_;
  std::vector<SessionId> owed_ids_;
  std::vector<Sample> samples_;
  std::vector<std::string> problems_;
  long violations_ = 0;

  // Traced-run observations.
  SpanRecorder spans_;
  obs::Histogram submit_us_;
  double submit_busy_s_ = 0.0;
  long submit_calls_ = 0;
  std::uint64_t inline_flushes_ = 0;
  long evicted_ = 0;
  std::size_t sessions_peak_ = 0;
  std::vector<double> swap_tick_ms_;
};

double ServeRun::setup() {
  load_ = std::make_unique<LoadGen>(spec_, opts_.seed);
  load_->prepare(window_ - 2);
  const auto start = Clock::now();
  traces_ = core::generate_campaign(records_campaign(opts_.seed, opts_.smoke));
  model_ = std::make_unique<registry::ModelRegistry::LoadedModel>(
      reg_.load(spec_.version));
  engine_ = std::make_unique<serve::Engine>(*model_->monitor, cfg_);
  // Fill every window but one record short: the next cycle verdicts.
  for (int i = 0; i < window_ - 1; ++i) {
    Counts c;
    cycle(false, c);
  }
  return seconds_between(start, Clock::now());
}

Clock::time_point ServeRun::cycle(bool timed, Counts& c) {
  const std::int64_t t = tick_++;
  const loadgen::TickPlan& plan = load_->plan(t);
  const bool traced = timed && spans_.enabled();
  const int top = traced ? spans_.begin("cycle") : -1;

  const std::uint64_t swap_to = swap_version(spec_, t);
  if (swap_to != 0) {
    const int span = traced ? spans_.begin("serve.swap_model", top) : -1;
    engine_->swap_model(reg_, swap_to);
    spans_.end(span);
  }
  if (!plan.closes.empty()) {
    const int span = traced ? spans_.begin("serve.close", top) : -1;
    for (const SessionId id : plan.closes) {
      if (engine_->close_session(id)) logs_.erase(id);
    }
    spans_.end(span);
  }

  {
    const int span = traced ? spans_.begin("serve.ingest", top) : -1;
    obs::Counter& flushes = obs::Registry::instance().counter("serve.flushes");
    const std::uint64_t flushes_before = traced ? flushes.value() : 0;
    for (const SessionId id : plan.submits) {
      const sim::StepRecord& rec = record_for(id, t);
      serve::SubmitStatus status;
      if (traced) {
        const auto a = Clock::now();
        status = engine_->try_submit(id, rec);
        const double s = seconds_between(a, Clock::now());
        submit_us_.record(s * 1e6);
        submit_busy_s_ += s;
        ++submit_calls_;
      } else {
        status = engine_->try_submit(id, rec);
      }
      ++c.offered;
      if (status != serve::SubmitStatus::kAccepted) {
        ++c.rejected;
        continue;
      }
      SessionLog& log = logs_[id];
      log.ticks[static_cast<std::size_t>(log.count % kMaxWindow)] = t;
      if (++log.count >= window_) {
        log.owed = log.count - 1;
        owed_ids_.push_back(id);
      }
    }
    if (traced) inline_flushes_ += flushes.value() - flushes_before;
    spans_.end(span);
  }

  const int tick_span = traced ? spans_.begin("serve.tick", top) : -1;
  const auto tick_start = traced ? Clock::now() : Clock::time_point{};
  const std::vector<serve::VerdictEvent> verdicts = engine_->tick();
  const auto delivered_at = Clock::now();
  spans_.end(tick_span);
  if (traced && swap_to != 0) {
    swap_tick_ms_.push_back(ms_between(tick_start, delivered_at));
  }

  for (const serve::VerdictEvent& ev : verdicts) {
    const auto it = logs_.find(ev.session);
    if (it == logs_.end() || it->second.owed != ev.cycle) {
      violation("unexpected verdict: session " + std::to_string(ev.session) +
                " cycle " + std::to_string(ev.cycle) + " at tick " +
                std::to_string(t));
      continue;
    }
    SessionLog& log = it->second;
    log.owed = -1;
    ++c.delivered;
    if (mix64(opts_.seed ^ mix64(ev.session ^ mix64(static_cast<std::uint64_t>(
                                                  ev.cycle)))) %
            kSampleEvery ==
        0) {
      Sample s{ev.session, {}, ev.model_version, ev.p_unsafe};
      for (int k = 0; k < window_; ++k) {
        const int cyc = ev.cycle - window_ + 1 + k;
        s.ticks[static_cast<std::size_t>(k)] =
            log.ticks[static_cast<std::size_t>(cyc % kMaxWindow)];
      }
      samples_.push_back(s);
    }
  }
  c.owed += static_cast<long>(owed_ids_.size());
  for (const SessionId id : owed_ids_) {
    SessionLog& log = logs_[id];
    if (log.owed != -1) {
      violation("missing verdict: session " + std::to_string(id) + " cycle " +
                std::to_string(log.owed) + " at tick " + std::to_string(t));
      log.owed = -1;
    }
  }
  owed_ids_.clear();
  for (const SessionId id : engine_->evicted_last_tick()) {
    logs_.erase(id);
    if (timed) ++evicted_;
  }
  if (traced) {
    sessions_peak_ = std::max(sessions_peak_, engine_->sessions_active());
  }
  spans_.end(top);
  return delivered_at;
}

std::string ServeRun::load_digest() const {
  obs::Sha256 h;
  std::array<float, monitor::Features::kNumFeatures> row{};
  for (const sim::Trace& trace : traces_) {
    for (const sim::StepRecord& rec : trace.steps) {
      monitor::fill_features(rec, row);
      h.update(row.data(), sizeof row);
    }
  }
  // The schedule's first kDigestTicks plans (steady plans never change). A
  // plan is pure in (config, seed, tick), so they stand for a schedule of
  // any length, and the digest does not depend on how many rounds the run
  // fitted into --seconds.
  LoadGen schedule(spec_, opts_.seed);
  for (std::int64_t t = 0; t < (spec_.churn ? kDigestTicks : 1); ++t) {
    schedule.prepare(t);
    schedule.release_before(t);
    const loadgen::TickPlan& p = schedule.plan(t);
    for (const auto* ids : {&p.closes, &p.submits}) {
      const std::uint64_t n = ids->size();
      h.update(&n, sizeof n);
      h.update(ids->data(), n * sizeof(SessionId));
    }
  }
  h.update(spec_.name, std::strlen(spec_.name));
  const auto d = h.digest();
  return hex(d.data(), d.size());
}

void ServeRun::check_samples() {
  std::map<std::uint64_t, registry::ModelRegistry::LoadedModel> models;
  for (const Sample& s : samples_) {
    auto it = models.find(s.version);
    if (it == models.end()) {
      it = models.emplace(s.version, reg_.load(s.version)).first;
    }
    nn::Tensor3 raw(1, window_, monitor::Features::kNumFeatures);
    for (int k = 0; k < window_; ++k) {
      monitor::fill_features(
          record_for(s.session, s.ticks[static_cast<std::size_t>(k)]),
          raw.row(0, k));
    }
    const double p = it->second.monitor->predict_proba(raw).at(0, 1);
    if (std::memcmp(&p, &s.p_unsafe, sizeof p) != 0) {
      violation("re-scored p_unsafe differs: session " +
                std::to_string(s.session) + " model v" +
                std::to_string(s.version));
    }
  }
}

nn::Tensor3 ServeRun::probe_windows(int batch) const {
  nn::Tensor3 x(batch, window_, monitor::Features::kNumFeatures);
  for (int b = 0; b < batch; ++b) {
    const auto& steps = traces_[static_cast<std::size_t>(b) % traces_.size()].steps;
    const std::size_t start =
        (static_cast<std::size_t>(b) * 7) % (steps.size() - window_ + 1);
    for (int k = 0; k < window_; ++k) {
      monitor::fill_features(steps[start + static_cast<std::size_t>(k)],
                             x.row(b, k));
    }
  }
  return x;
}

Outcome ServeRun::run() {
  util::set_max_parallelism(kServeThreads);
  const auto run_start = Clock::now();
  const double period_ms = spec_.period_ms;

  Outcome out;
  std::vector<double> setup_s = {setup()};

  const auto paced = [&](std::int64_t cycles, bool timed, Counts& total,
                         LatencyLog* latency, std::vector<double>* lags) {
    const auto start = Clock::now();
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(period_ms));
    for (std::int64_t k = 0; k < cycles; ++k) {
      load_->prepare(tick_);
      load_->release_before(tick_);
      const auto due = start + k * period;
      std::this_thread::sleep_until(due);
      if (lags != nullptr) lags->push_back(ms_between(due, Clock::now()));
      Counts c;
      const auto done = cycle(timed, c);
      if (latency != nullptr) {
        latency->add(ms_between(due, done), c.delivered);
        latency->add(kInf, c.failed());
      }
      total.add(c);
    }
  };

  // A tenth of --seconds is paced warm-up. On churn it runs on until the
  // next swap tick is kChurnSwapOffset ticks away; rounds of exactly one
  // swap period then keep every paced block holding one swap tick.
  std::int64_t warmup_cycles = std::max<std::int64_t>(
      2, std::llround(0.1 * opts_.seconds * 1e3 / period_ms));
  if (spec_.churn) {
    const std::int64_t swap_at =
        (tick_ + warmup_cycles + kChurnSwapOffset) % kChurnSwapEvery;
    warmup_cycles += (kChurnSwapEvery - swap_at) % kChurnSwapEvery;
  }
  Counts warm;
  paced(warmup_cycles, false, warm, nullptr, nullptr);

  const ObsSnapshot obs_before = ObsSnapshot::take();
  const auto timed_start = Clock::now();
  Counts paced_counts;
  Counts peak_counts;
  std::vector<double> p50s, p99s, rates, lags_ms;
  // Whole rounds only, stopping before one would overrun --seconds.
  for (int round = 0;; ++round) {
    if (round >= 2 &&
        seconds_between(run_start, Clock::now()) +
                seconds_between(timed_start, Clock::now()) / round >
            opts_.seconds) {
      break;
    }
    if (spec_.churn && (tick_ + kChurnSwapOffset) % kChurnSwapEvery != 0) {
      violation("a churn round does not line up with the swap schedule");
    }
    LatencyLog latency;
    paced(spec_.block_cycles, true, paced_counts, &latency, &lags_ms);
    p50s.push_back(latency.quantile(0.5));
    p99s.push_back(latency.quantile(0.99));

    // One more set-up sample per round, of a spare system built beside the
    // live one and dropped. Other tenants slow the host for spells of
    // seconds to minutes: set-ups made in one burst all land in one spell,
    // while samples spread over the run see the run's own mix. The peak
    // segment follows, not a paced block, so the cache the spare disturbs
    // costs a rate a sliver and no paced latency. Traced runs skip it: it
    // would show up in the pool's counters.
    if (!spans_.enabled()) setup_s.push_back(ServeRun(spec_, opts_).setup());

    load_->prepare(tick_ + spec_.peak_cycles - 1);
    load_->release_before(tick_);
    Counts c;
    std::vector<double> cycle_ms;
    const auto seg_start = Clock::now();
    for (int k = 0; k < spec_.peak_cycles; ++k) {
      const auto c0 = Clock::now();
      cycle(true, c);
      cycle_ms.push_back(ms_between(c0, Clock::now()));
    }
    const double seg_s = seconds_between(seg_start, Clock::now());
    if (quantile(cycle_ms, 0.99) <= kLatencyLimitMs) {
      rates.push_back(static_cast<double>(c.delivered) / seg_s);
    }
    peak_counts.add(c);
  }
  const double timed_s = seconds_between(timed_start, Clock::now());
  const ObsSnapshot obs_after = ObsSnapshot::take();

  out.attempted = paced_counts.offered + peak_counts.offered;
  out.failed = paced_counts.failed() + peak_counts.failed();
  if (rates.empty()) {
    violation("every peak segment broke the " +
              std::to_string(kLatencyLimitMs) + " ms p99 cycle-time limit");
  }
  const double lag_p99 = quantile(lags_ms, 0.99);
  if (lag_p99 > period_ms) {
    std::fprintf(stderr,
                 "warning: overloaded: the open-loop generator ran %.3f ms "
                 "late at p99 (period %.1f ms)\n",
                 lag_p99, period_ms);
  }
  check_samples();
  if (samples_.empty() && !opts_.smoke) violation("no verdict was re-scored");

  out.end_to_end.set("setup_s", median(setup_s), "s");
  out.end_to_end.set("lat_p50_ms", best_quarter(p50s, true), "ms");
  out.end_to_end.set("lat_p99_ms", best_quarter(p99s, true), "ms");
  out.end_to_end.set("peak_verdicts_per_s", best_quarter(rates, false), "1/s");
  out.end_to_end.set("peak_rss_mb", peak_rss_mb(), "MiB");
  out.load_sha256 = load_digest();
  out.model_sha256 = model_digest(opts_.fixture_dir);
  out.problems = problems_;

  if (spans_.enabled()) {
    Metrics& m = out.layers;
    const std::vector<double> tick_s = spans_.durations_s("serve.tick");
    std::vector<double> tick_ms;
    for (const double s : tick_s) tick_ms.push_back(s * 1e3);
    const auto flushes = static_cast<double>(obs_after.flushes - obs_before.flushes);
    const auto windows = static_cast<double>(obs_after.windows_flushed -
                                             obs_before.windows_flushed);
    const double flush_s = obs_after.flush_s - obs_before.flush_s;

    std::vector<sim::StepRecord> records;
    for (const sim::Trace& trace : traces_) {
      records.insert(records.end(), trace.steps.begin(), trace.steps.end());
    }
    const std::unique_ptr<monitor::MlMonitor> probe_model =
        model_->monitor->clone();
    const int batch =
        std::max(1, static_cast<int>(std::lround(windows / std::max(flushes, 1.0))));
    const nn::Tensor3 windows_raw = probe_windows(batch);
    run_layer_probes(ProbeInput{probe_model.get(), &windows_raw, batch, records,
                                &reg_, spec_.version},
                     m);
    const double predict_s =
        m.find("eval.predict.us_per_window")->value * windows * 1e-6;

    m.set("serve.submit.calls", static_cast<double>(submit_calls_), "count");
    m.set("serve.submit.busy_s", submit_busy_s_, "s");
    m.set("serve.submit.p99_us", submit_us_.quantile(0.99), "us");
    m.set("serve.tick.calls", static_cast<double>(tick_ms.size()), "count");
    m.set("serve.tick.busy_s", spans_.total_s("serve.tick"), "s");
    m.set("serve.tick.p50_ms", median(tick_ms), "ms");
    m.set("serve.tick.p99_ms", quantile(tick_ms, 0.99), "ms");
    m.set("serve.close.busy_s", spans_.total_s("serve.close"), "s");
    m.set("serve.swap_model.busy_s", spans_.total_s("serve.swap_model"), "s");
    m.set("serve.tick_swap.p50_ms", median(swap_tick_ms_), "ms");
    m.set("serve.flush.count", flushes, "count");
    m.set("serve.flush.busy_s", flush_s, "s");
    m.set("eval.predict.busy_s", predict_s, "s");
    m.set("serve.flush.overhead_s", flush_s - predict_s, "s");
    m.set("serve.batch_fill",
          flushes > 0 ? windows / (flushes * spec_.max_batch) : 0.0, "ratio");
    m.set("serve.inline_flush_frac",
          flushes > 0 ? static_cast<double>(inline_flushes_) / flushes : 0.0,
          "ratio");
    m.set("serve.rejected",
          static_cast<double>(paced_counts.rejected + peak_counts.rejected),
          "count");
    m.set("serve.evicted", static_cast<double>(evicted_), "count");
    m.set("serve.sessions.peak", static_cast<double>(sessions_peak_), "count");
    m.set("driver.lag_p99_ms", lag_p99, "ms");
    m.set("driver.lag_max_ms", quantile(lags_ms, 1.0), "ms");
    m.set("cycle.self_s", spans_.self_s("cycle"), "s");
    set_pool_metrics(obs_before, obs_after, timed_s, m);
    m.set("trace.lat_p50_ms", best_quarter(p50s, true), "ms");
    spans_.write_chrome_trace(opts_.trace_path);
  }
  return out;
}

}  // namespace

bool is_serve_workload(const std::string& name) {
  return find_spec(name) != nullptr;
}

Outcome run_serve(const Options& opts) {
  require_fixture(opts.fixture_dir, opts.smoke);
  const ServeSpec* spec = find_spec(opts.workload);
  if (spec == nullptr) throw CpsError("unknown serve workload " + opts.workload);
  ServeRun run(*spec, opts);
  return run.run();
}

}  // namespace cpsguard::suite
