#include "serve/engine.h"

#include <string>

#include <algorithm>

#include "monitor/features.h"
#include "nn/classifier.h"
#include "obs/metrics.h"
#include "registry/registry.h"
#include "serve/stable_hash.h"
#include "util/contracts.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace cpsguard::serve {

namespace {

struct EngineMetrics {
  obs::Gauge& sessions_active;
  obs::Gauge& queue_depth;
  obs::Counter& ticks;

  static EngineMetrics& get() {
    static EngineMetrics metrics{
        obs::Registry::instance().gauge("serve.sessions_active"),
        obs::Registry::instance().gauge("serve.queue_depth"),
        obs::Registry::instance().counter("serve.ticks"),
    };
    return metrics;
  }
};

// A monitor built for another window shape would throw inside every flush,
// after its windows were staged and before they were cleared, so the queue
// would grow past the micro-batch. Refuse it before any shard sees it: it
// may come from a registry artifact, which is outside input.
void check_shape(const monitor::MlMonitor& mon, const EngineConfig& config) {
  const nn::Classifier& clf = mon.classifier();
  if (clf.time_steps() == config.window &&
      clf.features() == monitor::Features::kNumFeatures) {
    return;
  }
  throw ModelShapeError(
      "serve: monitor consumes " + std::to_string(clf.time_steps()) + "x" +
      std::to_string(clf.features()) + " windows, engine serves " +
      std::to_string(config.window) + "x" +
      std::to_string(monitor::Features::kNumFeatures));
}

}  // namespace

Engine::Engine(const monitor::MlMonitor& mon, EngineConfig config)
    : config_(config),
      session_budget_(config.max_sessions),
      active_version_(config.initial_model_version) {
  expects(mon.trained(), "engine monitor must be trained");
  expects(config.initial_model_version > 0,
          "initial_model_version must be positive");
  expects(config.shards > 0, "shard count must be positive");
  expects(config.window > 0, "window must be positive");
  expects(config.max_batch > 0, "max_batch must be positive");
  expects(config.queue_capacity >= config.max_batch,
          "queue_capacity must hold at least one full micro-batch");
  expects(config.max_sessions > 0, "max_sessions must be positive");
  expects(config.idle_ttl_ticks >= 0, "idle_ttl_ticks must be non-negative");
  check_shape(mon, config_);
  const std::shared_ptr<const monitor::MlMonitor> model = mon.clone();
  shards_.reserve(static_cast<std::size_t>(config.shards));
  for (int s = 0; s < config.shards; ++s) {
    shards_.push_back(
        std::make_unique<SessionShard>(model, config_, session_budget_));
  }
}

int Engine::shard_of(SessionId id) const {
  return static_cast<int>(stable_hash64(id) %
                          static_cast<std::uint64_t>(config_.shards));
}

SubmitStatus Engine::try_submit(SessionId id, const sim::StepRecord& rec) {
  return shards_[static_cast<std::size_t>(shard_of(id))]->submit(
      id, rec, ticks_.load(std::memory_order_relaxed));
}

void Engine::submit(SessionId id, const sim::StepRecord& rec) {
  switch (try_submit(id, rec)) {
    case SubmitStatus::kAccepted:
      return;
    case SubmitStatus::kRejectedQueueFull:
      throw QueueFullError("serve: shard " + std::to_string(shard_of(id)) +
                           " queue full (capacity " +
                           std::to_string(config_.queue_capacity) +
                           ") for session " + std::to_string(id));
    case SubmitStatus::kRejectedSessionLimit:
      throw SessionLimitError("serve: session limit " +
                              std::to_string(config_.max_sessions) +
                              " reached admitting session " +
                              std::to_string(id));
  }
}

std::vector<VerdictEvent> Engine::tick() {
  EngineMetrics& metrics = EngineMetrics::get();
  metrics.ticks.increment();
  // This tick's index: records ingested since the previous tick carry it
  // as their ingest_tick, so a verdict delivered below has latency 0.
  const std::int64_t now = ticks_.load(std::memory_order_relaxed);
  evicted_last_tick_.clear();
  if (config_.idle_ttl_ticks > 0) {
    for (auto& shard : shards_) {
      shard->evict_idle(now, config_.idle_ttl_ticks, evicted_last_tick_);
    }
  }
  // Fans shards across the pool; under util::set_max_parallelism(1) this
  // runs serially in shard order on the calling thread.
  util::parallel_for(static_cast<int>(shards_.size()), [&](int s) {
    shards_[static_cast<std::size_t>(s)]->flush();
  });
  // Epoch boundary: a staged model activates here — after every shard
  // flushed under the outgoing model, before this tick's verdicts drain.
  // Stage-to-activate latency is therefore at most one flush epoch.
  if (staged_version_ != 0) {
    for (auto& shard : shards_) shard->activate_staged();
    prev_version_ = active_version_;
    active_version_ = staged_version_;
    staged_version_ = 0;
    ++swap_stats_.swaps;
    swap_stats_.last_activate_tick = now;
    const std::int64_t latency = (now + 1) - stage_tick_;
    swap_stats_.max_latency_ticks =
        std::max(swap_stats_.max_latency_ticks, latency);
    util::log_info("serve: activated model v", active_version_, " at tick ",
                   now, " (staged at tick ", stage_tick_, ")");
  }
  std::vector<VerdictEvent> out = drain();
  ticks_.fetch_add(1, std::memory_order_relaxed);
  metrics.sessions_active.set(static_cast<double>(sessions_active()));
  metrics.queue_depth.set(static_cast<double>(queue_depth()));
  return out;
}

std::vector<VerdictEvent> Engine::drain() {
  std::vector<VerdictEvent> out;
  for (auto& shard : shards_) shard->drain(out);
  return out;
}

bool Engine::close_session(SessionId id) {
  const bool closed =
      shards_[static_cast<std::size_t>(shard_of(id))]->close(id);
  EngineMetrics::get().sessions_active.set(
      static_cast<double>(sessions_active()));
  return closed;
}

std::size_t Engine::sessions_active() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->stats().sessions;
  return total;
}

std::size_t Engine::queue_depth() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    const ShardStats s = shard->stats();
    total += s.pending_windows + s.undrained_verdicts;
  }
  return total;
}

void Engine::stage_model(const monitor::MlMonitor& mon, std::uint64_t version,
                         SwapMode mode) {
  expects(mon.trained(), "staged monitor must be trained");
  stage(mon.clone(), version, mode);
}

void Engine::swap_model(const registry::ModelRegistry& reg,
                        std::uint64_t version, SwapMode mode) {
  // load() verifies the artifact (structure + SHA) and returns a monitor
  // that owns the verified bytes, so the shards share it as it is.
  stage(reg.load(version).monitor, version, mode);
}

void Engine::stage(const std::shared_ptr<const monitor::MlMonitor>& model,
                   std::uint64_t version, SwapMode mode) {
  expects(version > 0, "model versions start at 1");
  check_shape(*model, config_);
  for (auto& shard : shards_) shard->stage(model, version, mode);
  if (mode == SwapMode::kShadow) {
    shadow_version_ = version;
    util::log_info("serve: shadow-scoring model v", version, " against v",
                   active_version_);
    return;
  }
  staged_version_ = version;
  stage_tick_ = ticks();
  swap_stats_.last_stage_tick = stage_tick_;
}

bool Engine::promote_shadow() {
  if (shadow_version_ == 0) return false;
  bool any = false;
  for (auto& shard : shards_) any = shard->promote_shadow() || any;
  if (!any) return false;
  staged_version_ = shadow_version_;
  shadow_version_ = 0;
  stage_tick_ = ticks();
  swap_stats_.last_stage_tick = stage_tick_;
  return true;
}

bool Engine::rollback() {
  bool restaged = false;
  for (auto& shard : shards_) restaged = shard->rollback() || restaged;
  shadow_version_ = 0;
  if (!restaged) {
    staged_version_ = 0;
    return false;
  }
  staged_version_ = prev_version_;
  prev_version_ = 0;
  stage_tick_ = ticks();
  swap_stats_.last_stage_tick = stage_tick_;
  util::log_info("serve: rolling back to model v", staged_version_);
  return true;
}

EngineStats Engine::stats() const {
  EngineStats out;
  out.ticks = ticks();
  out.shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    const ShardStats s = shard->stats();
    out.sessions += s.sessions;
    out.queue_depth += s.pending_windows + s.undrained_verdicts;
    out.records += s.records;
    out.windows_flushed += s.windows_flushed;
    out.flushes += s.flushes;
    out.closed += s.closed;
    out.evicted += s.evicted;
    out.rejected_queue_full += s.rejected_queue_full;
    out.rejected_session_limit += s.rejected_session_limit;
    out.swaps += s.swaps;
    out.shadow_windows += s.shadow_windows;
    out.shadow_disagree += s.shadow_disagree;
    out.shards.push_back(s);
  }
  return out;
}

}  // namespace cpsguard::serve
